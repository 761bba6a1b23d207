package dxbar

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"dxbar/internal/diag"
	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/metrics"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
)

// checkpointWindow applies the shared small-run shape: 4×4 mesh, warmup 64,
// measure 192 (total 256), checkpoints at cycles 96 and 192.
func checkpointWindow(cfg Config) Config {
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupCycles, cfg.MeasureCycles = 64, 192
	return cfg
}

// TestSnapshotRoundTripByteStable asserts Snapshot → Restore → Snapshot is
// byte-stable: the canonical encodings (rings rebased to head 0, maps sorted,
// sparse structures ascending) make the stream a pure function of simulation
// state, which is what lets CI compare snapshots with cmp.
func TestSnapshotRoundTripByteStable(t *testing.T) {
	for _, d := range []Design{DesignDXbar, DesignSCARAB, DesignAFC} {
		t.Run(string(d), func(t *testing.T) {
			a, b := snapshotPair(t, d)
			a.Engine.Run(300)
			var b1 bytes.Buffer
			if err := a.Engine.Snapshot(&b1); err != nil {
				t.Fatal(err)
			}
			if err := b.Engine.Restore(b1.Bytes()); err != nil {
				t.Fatal(err)
			}
			var b2 bytes.Buffer
			if err := b.Engine.Snapshot(&b2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatalf("snapshot not byte-stable across restore: %d vs %d bytes", b1.Len(), b2.Len())
			}
			// And the restored engine simulates identically from here.
			a.Engine.Run(100)
			b.Engine.Run(100)
			var a3, b3 bytes.Buffer
			if err := a.Engine.Snapshot(&a3); err != nil {
				t.Fatal(err)
			}
			if err := b.Engine.Snapshot(&b3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a3.Bytes(), b3.Bytes()) {
				t.Fatalf("restored engine diverged within 100 cycles")
			}
		})
	}
}

// TestSnapshotFormatPinned pins the byte stream across versions, section by
// section: the SHA-256 of Engine.Snapshot for every design (DXbar and Unified
// also under a fault plan, AFC also on two shards, whose stream must equal the
// sequential one) on a 4×4 mesh past saturation with 4-flit packets and every
// observer attached, at three cycles each. TestSnapshotRoundTripByteStable
// passes any change made alike on both sides and bench/golden.ckpt covers
// DXbar alone; these digests were computed once and only move with
// snapshot.Version.
func TestSnapshotFormatPinned(t *testing.T) {
	pinned := []struct {
		name    string
		design  Design
		faulted bool
		shards  int
		digests [3]string
	}{
		{"flitbless", DesignFlitBless, false, 0, [3]string{
			"82a34aae34cff2ee825ea073238510800964623c0a015fef35d1b05f04d55270",
			"ba34c27ba1de1f79b99b20d52b3dd96282c394790789ff6791631ca62b97022f",
			"a7798b1510da53179dd28867f270ba57a51bb66d93a28bc9163a42210fe2c2a9"}},
		{"scarab", DesignSCARAB, false, 0, [3]string{
			"a9a3b59cdd34913ac149292156767bc05b12627ae9e79a4b8fbb82e691b14b4c",
			"cfa78b7d92b7fe3953d2c116ddaf8d59b7b5940ca165c829897b63f5f57964a3",
			"67bf20d9f1ec3b371fe5bedd9e016e022fc22cb15e6a78dae64beb0a67960446"}},
		{"buffered4", DesignBuffered4, false, 0, [3]string{
			"b179e76810992b51957ae2a86408d141c55164c86d28743bfb43c0c6efb1c351",
			"cca40091a24c62160e2cd2656c34fd605b19f3567d7627cedb0e53b4cbb02c8f",
			"c09b4e35bf43f1a7de01aaffcded4ede4ca29475974c965923aeb13f685ad1d0"}},
		{"buffered8", DesignBuffered8, false, 0, [3]string{
			"fa14bb6d63c5df82ad144f72cf5ee84c2acbaaec8f84c0608660eb30bb3037fa",
			"2c0c79ac733060d1e421a3c1477055728eb1d10349712703d1ade27fd7155295",
			"2ab8556a0525daf253a3c1b1d913194d65021db6632195f54a79d0fdf2da7a76"}},
		{"dxbar", DesignDXbar, false, 0, [3]string{
			"5892fa4f51be034c180833ef9a9ed7b3c37fd294871843f024218c9c0029714a",
			"9c07e96be9c286a8f50a49702cb94b8cd99e7edde97eb4d7a9a0a392d6feb3b5",
			"3e15cbbfdc42f2b653f8b4eadb07d6007f10243f2a85d4f6374492176a639b53"}},
		{"unified", DesignUnified, false, 0, [3]string{
			"96dc9c098ec635e3835926ea4b8c83a84350349b9d0c2161bdfdf5454d4a82af",
			"e64f239041d117dbf4e7951bc214afbdbac6761be1df1bfd17bd93021b1b1800",
			"c4d810e6fc3723fdfa32b95c892b03b6f78f041adcc7eea50e2cc358114e3ad2"}},
		{"afc", DesignAFC, false, 0, [3]string{
			"aaff6ada52731291a8f4e967b85b5f43c309865231b1c879dad833af24d57484",
			"84a05a34e780707cd1b58216bc132f1cbde28d7b877608cd7f634c390a7c7c99",
			"2cdc78e777a0fc64e5f1184661d01ecfd7ebe6dcbbddad08c8fa6387fdc19338"}},
		{"dxbar/faulted", DesignDXbar, true, 0, [3]string{
			"5892fa4f51be034c180833ef9a9ed7b3c37fd294871843f024218c9c0029714a",
			"9cf6195290068d900f808fac33538bdf259d09ec38332fc00a9f42fe9c8c653a",
			"06e74175e8c1c4b3a9f3f00e1a2309e16875b65360d4eab89ec0ed7dc7095e6e"}},
		{"unified/faulted", DesignUnified, true, 0, [3]string{
			"96dc9c098ec635e3835926ea4b8c83a84350349b9d0c2161bdfdf5454d4a82af",
			"05982430a85b39fccf62b0ef0a8678a5a5d6be314ca7104e1dbbe282dba670d5",
			"78bb8eca87ac35eedcb22ab7ee8e90c036fa1f956804dc44c85a965bf56c589e"}},
		{"afc/shards2", DesignAFC, false, 2, [3]string{
			"aaff6ada52731291a8f4e967b85b5f43c309865231b1c879dad833af24d57484",
			"84a05a34e780707cd1b58216bc132f1cbde28d7b877608cd7f634c390a7c7c99",
			"2cdc78e777a0fc64e5f1184661d01ecfd7ebe6dcbbddad08c8fa6387fdc19338"}},
	}
	for _, row := range pinned {
		t.Run(row.name, func(t *testing.T) {
			net := observedNetwork(t, row.design, row.faulted, row.shards)
			for i, at := range [3]uint64{80, 200, 400} {
				net.Engine.Run(at - net.Engine.Cycle())
				var buf bytes.Buffer
				if err := net.Engine.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != row.digests[i] {
					t.Errorf("cycle %d: snapshot digest %s, want %s (a format change must bump snapshot.Version)", at, got, row.digests[i])
				}
			}
		})
	}
}

// observedNetwork builds a 4×4 network past saturation (UR 0.6, 4-flit
// packets) with every observer whose state a snapshot carries: a flight
// recorder, a run-health monitor tuned to fire, the time-series sampler (a
// ring that wraps) and link utilization. faulted adds a fault plan manifesting
// at cycle 100 (DXbar and Unified only).
func observedNetwork(tb testing.TB, design Design, faulted bool, shards int) *Network {
	tb.Helper()
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 64, 4096)
	coll.EnableTimeSeries(16, 8)
	coll.EnableLinkUtilization(mesh.Width, mesh.Height)
	o := NetworkOptions{
		Design: design,
		Mesh:   mesh,
		Source: bernoulliSource(tb, mesh, "UR", 0.6, 4, 21),
		Stats:  coll,
		Events: events.NewRecorder(mesh.Nodes(), 128),
		Diag: diag.NewMonitor(diag.Config{Window: 32, StallCycles: 16, MaxFlitAge: 48,
			StormFactor: 1.5, StormMinCount: 8, MaxRecords: 4}, mesh.Nodes()),
		Shards: shards,
	}
	if faulted {
		plan, err := faults.NewPlan(mesh.Nodes(), 0.25, 100, 21)
		if err != nil {
			tb.Fatal(err)
		}
		o.FaultPlan = plan
	}
	net, err := NewNetwork(o)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// TestRestoreEngineCorruptInput walks truncations and single-byte flips of a
// real snapshot through Restore. With the CRC left alone every one must fail —
// the checksum makes all bit flips detectable. With the CRC recomputed
// (withCRC) a flip reaches the decoders: over every design's snapshot, every
// observer attached, a flip may restore or fail, but it must not panic, at
// restore or in the 30 cycles after it.
func TestRestoreEngineCorruptInput(t *testing.T) {
	a, _ := snapshotPair(t, DesignSCARAB)
	a.Engine.Run(200)
	var buf bytes.Buffer
	if err := a.Engine.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for n := 0; n < len(data); n += 7 {
		_, fresh := snapshotPair(t, DesignSCARAB)
		if err := fresh.Engine.Restore(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes restored without error", n)
		}
	}
	flipped := make([]byte, len(data))
	for i := 0; i < len(data); i += 11 {
		copy(flipped, data)
		flipped[i] ^= 0x40
		_, fresh := snapshotPair(t, DesignSCARAB)
		if err := fresh.Engine.Restore(flipped); err == nil {
			t.Fatalf("bit flip at offset %d restored without error", i)
		}
	}
	// Design mismatch: a SCARAB snapshot must not restore into a buffered
	// engine (router-state presence differs).
	_, buffered := snapshotPair(t, DesignBuffered4)
	if err := buffered.Engine.Restore(data); err == nil {
		t.Fatal("snapshot restored into an engine of a different design")
	}

	for _, d := range AllDesigns {
		net := observedNetwork(t, d, false, 0)
		net.Engine.Run(100)
		buf.Reset()
		if err := net.Engine.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		rejected, restored := 0, 0
		for i := 0; i < buf.Len(); i += 43 {
			mut := withCRC(buf.Bytes())
			mut[i] ^= 0xff
			if restoreAndRun(t, d, withCRC(mut), 30) == nil {
				restored++
			} else {
				rejected++
			}
		}
		t.Logf("%s: %d-byte snapshot, %d flips rejected, %d restored and ran", d, buf.Len(), rejected, restored)
	}
}

// restoreAndRun restores data into a fresh observed network of design d and,
// when that succeeds, runs it for cycles. A panic fails the test with the
// stream that caused it.
func restoreAndRun(t *testing.T, d Design, data []byte, cycles uint64) error {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: panic on a CRC-valid %d-byte stream: %v\n%s", d, len(data), p, debug.Stack())
		}
	}()
	net := observedNetwork(t, d, false, 0)
	err := net.Engine.Restore(data)
	if err == nil {
		net.Engine.Run(cycles)
	}
	return err
}

// withCRC returns a copy of a snapshot stream with its CRC32 trailer
// recomputed, so a mutation reaches the decoders instead of stopping at the
// checksum.
func withCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	if n := len(out) - 4; n >= 0 {
		binary.LittleEndian.PutUint32(out[n:], crc32.ChecksumIEEE(out[:n]))
	}
	return out
}

// TestRestoreEngineForgedCounts restores CRC-valid streams whose fields were
// raised past anything a run writes: a BERN draw count raised by 2^40 (a
// replay of about 44 minutes) and a WHEL offset of 0xff0000c8 (a wheel grown
// to a 96 GiB slice, a fatal out-of-memory). Each must fail within a second,
// allocating no more than restoring the genuine stream does.
func TestRestoreEngineForgedCounts(t *testing.T) {
	net := observedNetwork(t, DesignSCARAB, false, 0)
	net.Engine.Run(200)
	var buf bytes.Buffer
	if err := net.Engine.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restore := func(data []byte) (took time.Duration, alloc uint64, err error) {
		net := observedNetwork(t, DesignSCARAB, false, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err = net.Engine.Restore(data)
		took = time.Since(start)
		runtime.ReadMemStats(&after)
		return took, after.TotalAlloc - before.TotalAlloc, err
	}
	_, genuine, err := restore(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		section string
		forge   func(section []byte)
	}{
		{"BERN", func(p []byte) { binary.LittleEndian.PutUint64(p[4:], binary.LittleEndian.Uint64(p[4:])+1<<40) }},
		{"WHEL", func(p []byte) {
			if binary.LittleEndian.Uint32(p[4:]) == 0 {
				t.Fatal("the retransmit wheel is empty: no offset to forge")
			}
			binary.LittleEndian.PutUint64(p[8:], 0xff0000c8)
		}},
	} {
		data := append([]byte(nil), buf.Bytes()...)
		c.forge(data[bytes.Index(data, []byte(c.section)):])
		took, alloc, err := restore(withCRC(data))
		if err == nil {
			t.Errorf("%s: forged stream restored", c.section)
		}
		if took > time.Second || alloc > genuine+1<<20 {
			t.Errorf("%s: failing took %v and %d bytes (a genuine restore: %d bytes)", c.section, took, alloc, genuine)
		}
		t.Logf("%s: %v", c.section, err)
	}
}

// FuzzRestoreEngine throws mutations of real snapshots — every design, every
// observer attached — at Restore into the seed's own design, with the CRC
// trailer recomputed so a mutation reaches the decoders. The contract under
// fuzzing: an error or a restored engine that runs on, never a panic; a
// half-restored engine is impossible because the caller discards the engine
// on error.
func FuzzRestoreEngine(f *testing.F) {
	for i, d := range AllDesigns {
		net := observedNetwork(f, d, false, 0)
		net.Engine.Run(150)
		var buf bytes.Buffer
		if err := net.Engine.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), buf.Bytes())
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte("DXSN"))
	f.Fuzz(func(t *testing.T, design uint8, data []byte) {
		// Restoring the injector replays its RNG position, in time linear in
		// the cycle the stream claims (DESIGN.md §5e): a forged cycle paired
		// with a forged position is a long run to restore, not a hang.
		if len(data) >= 18 && binary.LittleEndian.Uint64(data[10:]) > 1<<20 {
			t.Skip("claims a run longer than 2^20 cycles")
		}
		restoreAndRun(t, AllDesigns[int(design)%len(AllDesigns)], withCRC(data), 30)
	})
}

// snapshotPair builds two structurally identical 4×4 networks (separate
// collectors, meters and sources) for round-trip tests and fuzz targets.
func snapshotPair(tb testing.TB, design Design) (a, b *Network) {
	tb.Helper()
	build := func() *Network {
		mesh := topology.MustMesh(4, 4)
		net, err := NewNetwork(NetworkOptions{
			Design: design,
			Mesh:   mesh,
			Source: bernoulliSource(tb, mesh, "UR", 0.3, 2, 21),
			Stats:  stats.NewCollector(mesh.Nodes(), 64, 4096),
		})
		if err != nil {
			tb.Fatal(err)
		}
		return net
	}
	return build(), build()
}

// FuzzLoadCheckpoint fuzzes the checkpoint-file decoder the same way, CRC
// recomputed: any mutation of a real file must produce an error or a
// checkpoint, never a panic.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	cfg := checkpointWindow(Config{Design: DesignDXbar, Load: 0.3, Seed: 7})
	cfg.CheckpointInterval = 96
	cfg.CheckpointDir = dir
	if _, err := Run(cfg); err != nil {
		f.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.dxsn"))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.dxsn")
		if err := os.WriteFile(p, withCRC(data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = LoadCheckpoint(p) // must not panic
	})
}

// TestCheckpointZeroAllocBetweenWrites pins the steady-state cost of an armed
// checkpoint hook: between writes the cycle loop must stay allocation-free
// (the hook is a nil check and a compare per cycle).
func TestCheckpointZeroAllocBetweenWrites(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	net, err := NewNetwork(NetworkOptions{
		Design: DesignDXbar,
		Mesh:   mesh,
		Source: bernoulliSource(t, mesh, "UR", 0.25, 1, 21),
		Stats:  stats.NewCollector(mesh.Nodes(), 64, 1<<30),
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Engine.SetCheckpointHook(1<<40, func(uint64) {})
	net.Engine.Run(3000)
	avg := testing.AllocsPerRun(5, func() { net.Engine.Run(200) })
	if avg != 0 {
		t.Errorf("%.2f allocations per 200-cycle run with checkpointing armed, want 0", avg)
	}
}

// TestRewindPartialWindowNormalized covers the unified partial-result path:
// a rewind clipped to a window shorter than the remaining run must come back
// renormalized (Truncate) even though Interrupted is unset — per-cycle rates
// comparable to the full run's, not diluted by never-simulated cycles.
func TestRewindPartialWindowNormalized(t *testing.T) {
	cfg := checkpointWindow(Config{Design: DesignDXbar, Load: 0.3, Seed: 7})
	full := run(t, cfg)
	dir := t.TempDir()
	ckptCfg := cfg
	ckptCfg.CheckpointInterval = 96
	ckptCfg.CheckpointDir = dir
	run(t, ckptCfg)
	paths, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.dxsn"))
	if len(paths) == 0 {
		t.Fatal("no checkpoints written")
	}
	// Rewind 64 cycles from the first checkpoint (cycle 96): the run ends at
	// 160, far short of 256, with Interrupted unset. Checkpoints carry no live
	// handles; the mutate hook is how this process attaches its registry.
	reg := metrics.NewRegistry()
	res, err := Rewind(paths[0], 64, 512, func(c *Config) { c.Metrics = reg })
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Sum(metrics.MetricCycles); v <= 0 {
		t.Errorf("registry handed to Rewind saw %s = %v, want > 0", metrics.MetricCycles, v)
	}
	if res.Interrupted {
		t.Fatal("rewind misreported an interrupt")
	}
	if res.Packets == 0 {
		t.Fatal("rewind window measured no packets")
	}
	if len(res.Events) == 0 {
		t.Fatal("rewind did not record events despite widened trace")
	}
	// The renormalized accepted load must be in the full run's neighbourhood;
	// without Truncate it would be scaled down by the missing ~96 cycles.
	lo, hi := full.AcceptedLoad*0.5, full.AcceptedLoad*1.5
	if res.AcceptedLoad < lo || res.AcceptedLoad > hi {
		t.Errorf("rewind AcceptedLoad %.4f outside [%.4f, %.4f] of full run's %.4f",
			res.AcceptedLoad, lo, hi, full.AcceptedLoad)
	}
}

// TestCheckpointPruning asserts keep-last-K: a long checkpointed run leaves
// exactly K files, the newest ones.
func TestCheckpointPruning(t *testing.T) {
	dir := t.TempDir()
	cfg := checkpointWindow(Config{Design: DesignFlitBless, Load: 0.2, Seed: 1})
	cfg.CheckpointInterval = 32 // checkpoints at 32, 64, ..., 256
	cfg.CheckpointDir = dir
	cfg.CheckpointKeep = 2
	run(t, cfg)
	paths, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.dxsn"))
	if len(paths) != 2 {
		t.Fatalf("want 2 retained checkpoints, got %d: %v", len(paths), paths)
	}
	want := []string{"ckpt-000000000224.dxsn", "ckpt-000000000256.dxsn"}
	for i, p := range paths {
		if filepath.Base(p) != want[i] {
			t.Errorf("retained %s, want %s", filepath.Base(p), want[i])
		}
	}
}

// TestGoldenCheckpoint restores the committed golden checkpoint and compares
// the completed run against the committed expectation — the cross-version
// gate: any accidental format-version bump or silent layout drift breaks
// decoding of yesterday's files, and this test, loudly. Regenerate both files
// with DXBAR_UPDATE_GOLDEN=1 after an intentional format change. As committed,
// the file's config JSON still carries the retired "RebalanceInterval" key, so
// restoring it also proves that a Config field can be dropped without
// orphaning old checkpoints: unknown keys are ignored.
func TestGoldenCheckpoint(t *testing.T) {
	ckptPath := filepath.Join("bench", "golden.ckpt")
	expPath := filepath.Join("bench", "golden_expected.json")
	if os.Getenv("DXBAR_UPDATE_GOLDEN") != "" {
		regenerateGolden(t, ckptPath, expPath)
	}
	res, err := ResumeWith(ckptPath, func(c *Config) {
		c.CheckpointInterval = 0
		c.CheckpointDir = ""
	})
	if err != nil {
		t.Fatalf("golden checkpoint failed to restore (format drift? regenerate with DXBAR_UPDATE_GOLDEN=1 if intentional): %v", err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(expPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Fatalf("golden checkpoint result drifted from %s (regenerate with DXBAR_UPDATE_GOLDEN=1 if intentional)", expPath)
	}
}

// goldenConfig is the fixed run behind bench/golden.ckpt.
func goldenConfig() Config {
	return checkpointWindow(Config{Design: DesignDXbar, Load: 0.2, Seed: 7})
}

func regenerateGolden(t *testing.T, ckptPath, expPath string) {
	t.Helper()
	dir := t.TempDir()
	cfg := goldenConfig()
	cfg.CheckpointInterval = 128 // one checkpoint, at cycle 128
	cfg.CheckpointDir = dir
	run(t, cfg)
	src := filepath.Join(dir, fmt.Sprintf("ckpt-%012d.dxsn", 128))
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ResumeWith(ckptPath, func(c *Config) {
		c.CheckpointInterval = 0
		c.CheckpointDir = ""
	})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(expPath, append(exp, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s and %s", ckptPath, expPath)
}
