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
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"dxbar/internal/diag"
	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/metrics"
	"dxbar/internal/snapshot"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
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
			"af7935e726cf21edec2a46619cc829cf46eec1251f03bb38f07146f45148bde3",
			"9d70c9e6a5ab83a6671b441896045cfa84478c4aa210272a09f594b981b57bf0",
			"3d84201f31d91246cdf2d595d0e4cd5cf6dc777ecf4de30ac2bbc9434e77cdb7"}},
		{"scarab", DesignSCARAB, false, 0, [3]string{
			"53900b6e99b128bf44e03a3250554b5800982c100800c7b1833bb208fc3eae02",
			"794df0a6884766e1eec7deba6af9f0db1b21f2c5fcdd4cb1649adaab17a0a8ed",
			"9b2991cf281507294e0087af3354250da021bdbc759324afd050574fe793669e"}},
		{"buffered4", DesignBuffered4, false, 0, [3]string{
			"815f5a3776065caffbc04ce9747dc980cef10347ec5afd0fece54d4c5268f768",
			"34a8266ee6edee70f3128b6cee387562a5d1a48ea24c611677119b2c6a95b8c4",
			"6ab52f72eae4aeb3eacc26f6a2ebbfcc29710bbe9d4b7bb6d18ef7316d7c7328"}},
		{"buffered8", DesignBuffered8, false, 0, [3]string{
			"5c74dbfb299fab4d8b2a33f9b5ed1eb590c54165626ec9a1cea0ce956b0ba9a3",
			"fe16295df022115e1385e18ad67709091b94d6f7b253a0f43b5b0a93784dc06e",
			"69db5425e2b35d8b7c138c13d2934d9663b232ac10cc7c4cc2ab0ffed7902df3"}},
		{"dxbar", DesignDXbar, false, 0, [3]string{
			"2e2f28dbba9b2f0385b391e301a2eb185f63dd1edc48cb41f898ec4cbd99c2ec",
			"32adf2e7f491723d656874ce376c2827cd69e375949a636bf7caeff294f64c05",
			"212228da5921a214b02af12323d1e733d5e25876bd7f7a9f10b3f3385c3bb5c5"}},
		{"unified", DesignUnified, false, 0, [3]string{
			"de403771498d17d3ad737f6733a2ef46717d699d821af6cc9c9e74bcf8fbb9e2",
			"22f90f7d4ff8a12b191cf3ae8f8af68b1ee4eba4f3bc9770fb9f8372103bd7c9",
			"05411f6342f384aa3aeadebf1655926018d13ec1d7dfbb3b2fdede76fbccb213"}},
		{"afc", DesignAFC, false, 0, [3]string{
			"ec0a6717831a4c21e373376843665cf430de11d53f04cd27a6cbff61cc4dd821",
			"5ebb122de37f42fb541e74084082b148d4a5ee05d2a2dd22172120a6df8534a6",
			"9c403a376dcb5eb8993946d210b7947de9209850fd4504a3b8783e00517cf82c"}},
		{"dxbar/faulted", DesignDXbar, true, 0, [3]string{
			"2e2f28dbba9b2f0385b391e301a2eb185f63dd1edc48cb41f898ec4cbd99c2ec",
			"2401d9d1bdc0e32f31e73ebc13886edee2f06a36be7ab57e0edb6706fe07df16",
			"095189e2244bd8c48f6cf61738ee3070ca7fd5cc4f5f76b105b04d35070ba433"}},
		{"unified/faulted", DesignUnified, true, 0, [3]string{
			"de403771498d17d3ad737f6733a2ef46717d699d821af6cc9c9e74bcf8fbb9e2",
			"3d320f26f703d50db918c66bfed59fdbafb503f07975431bc8a21684e4239c72",
			"a1eceaab23814f3b0b85264dee3bbd9cfb8573578e49e00c1865644fc84832b1"}},
		{"afc/shards2", DesignAFC, false, 2, [3]string{
			"ec0a6717831a4c21e373376843665cf430de11d53f04cd27a6cbff61cc4dd821",
			"5ebb122de37f42fb541e74084082b148d4a5ee05d2a2dd22172120a6df8534a6",
			"9c403a376dcb5eb8993946d210b7947de9209850fd4504a3b8783e00517cf82c"}},
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
// raised past anything a run writes: a BERN tap index of 0xffff (outside the
// 607-word register), a WHEL offset of 0xff0000c8 (a wheel grown to a
// 96 GiB slice, a fatal out-of-memory) and a queued packet whose Src is not
// the node queueing it (an engine queue keeps the node, not the field, so
// restoring it would run another network). Each must fail within a second,
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
		want    string // in the error, when set
	}{
		{"BERN", func(p []byte) { binary.LittleEndian.PutUint16(p[4:], 0xffff) }, ""},
		{"WHEL", func(p []byte) {
			if binary.LittleEndian.Uint32(p[4:]) == 0 {
				t.Fatal("the retransmit wheel is empty: no offset to forge")
			}
			binary.LittleEndian.PutUint64(p[8:], 0xff0000c8)
		}, ""},
		{"ENVS", forgeQueuedSrc(t, 200), "queues a packet from node"},
	} {
		data := append([]byte(nil), buf.Bytes()...)
		c.forge(data[bytes.Index(data, []byte(c.section)):])
		took, alloc, err := restore(withCRC(data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: forged stream restored with error %v, want one containing %q", c.section, err, c.want)
		}
		if took > time.Second || alloc > genuine+1<<20 {
			t.Errorf("%s: failing took %v and %d bytes (a genuine restore: %d bytes)", c.section, took, alloc, genuine)
		}
		t.Logf("%s: %v", c.section, err)
	}
}

// forgeQueuedSrc returns a forge for a snapshot of observedNetwork taken after
// the given number of cycles, applied from its ENVS section on: it finds the
// newest packet the network's source generated — past saturation still queued
// at its node, as a spec of 35 bytes (ID, Src, Dst, flits, kind, cycle) — by
// replaying the source's draws, and names the next node as its Src.
func forgeQueuedSrc(tb testing.TB, cycles uint64) func(section []byte) {
	mesh := topology.MustMesh(4, 4)
	twin := bernoulliSource(tb, mesh, "UR", 0.6, 4, 21)
	var last traffic.PacketSpec
	for c := uint64(0); c < cycles; c++ {
		for n := 0; n < mesh.Nodes(); n++ {
			if specs := twin.Generate(n, c); specs != nil {
				last = *specs[0]
			}
		}
	}
	le := binary.LittleEndian
	spec := le.AppendUint64(nil, last.ID)
	spec = le.AppendUint64(spec, uint64(last.Src))
	spec = le.AppendUint64(spec, uint64(last.Dst))
	spec = le.AppendUint16(spec, last.NumFlits)
	spec = append(spec, uint8(last.Kind))
	spec = le.AppendUint64(spec, last.Cycle)
	return func(p []byte) {
		i := bytes.Index(p, spec)
		if i < 0 {
			tb.Fatalf("packet %d is not queued in the snapshot", last.ID)
		}
		le.PutUint64(p[i+8:], uint64((last.Src+1)%mesh.Nodes()))
	}
}

// TestResumeParentBuffered8 resumes a committed Buffered 8 checkpoint (4×4,
// WF, load 0.45, 2-flit packets, cycle 128 of 256) whose config JSON still
// carries the removed ReferenceArbitration key. The resumed run must equal
// the uninterrupted one.
func TestResumeParentBuffered8(t *testing.T) {
	resumed, err := ResumeWith(filepath.Join("testdata", "buffered8.ckpt"), func(c *Config) {
		c.CheckpointInterval, c.CheckpointDir = 0, ""
	})
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, checkpointWindow(Config{Design: DesignBuffered8, Routing: "WF", Load: 0.45, FlitsPerPacket: 2, Seed: 7}))
	if !reflect.DeepEqual(resumed, want) {
		t.Fatalf("resumed run differs from the uninterrupted one in %v", diffFields(reflect.ValueOf(want), reflect.ValueOf(resumed)))
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
		if i == 0 {
			forged := append([]byte(nil), buf.Bytes()...)
			forgeQueuedSrc(f, 150)(forged[bytes.Index(forged, []byte("ENVS")):])
			f.Add(uint8(i), forged)
		}
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte("DXSN"))
	f.Fuzz(func(t *testing.T, design uint8, data []byte) {
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

// TestRestoreEngineRejectsRetiredVersions loads a checkpoint in each retired
// format version (bench/golden.ckpt as it was before each bump): LoadCheckpoint
// and Resume must fail with an error naming the version, not panic and not
// restore.
func TestRestoreEngineRejectsRetiredVersions(t *testing.T) {
	for _, row := range []struct{ file, version string }{
		{"golden-v1.ckpt", "version 1"},
		{"golden-v2.ckpt", "version 2"},
	} {
		t.Run(row.file, func(t *testing.T) {
			path := filepath.Join("testdata", row.file)
			_, loadErr := LoadCheckpoint(path)
			_, resumeErr := Resume(path)
			for name, err := range map[string]error{"LoadCheckpoint": loadErr, "Resume": resumeErr} {
				if err == nil || !strings.Contains(err.Error(), row.version) {
					t.Errorf("%s: %v, want an error naming %s", name, err, row.version)
				}
			}
		})
	}
}

// TestCheckpointDirUncreatable: a CheckpointDir under a regular file can never
// be created, so Run and Resume fail before the first cycle with an error
// naming it, and write nothing.
func TestCheckpointDirUncreatable(t *testing.T) {
	root := t.TempDir()
	file := filepath.Join(root, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "ckpt")
	cfg := goldenConfig()
	cfg.CheckpointInterval, cfg.CheckpointDir = 64, dir
	_, runErr := Run(cfg)
	_, resumeErr := ResumeWith(filepath.Join("bench", "golden.ckpt"), func(c *Config) {
		c.CheckpointInterval, c.CheckpointDir = 64, dir
	})
	for name, err := range map[string]error{"Run": runErr, "Resume": resumeErr} {
		if err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("%s: %v, want an error naming %s", name, err, dir)
		}
	}
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 1 {
		t.Errorf("%s holds %v (%v), want only the file", root, entries, err)
	}
}

// TestGoldenCheckpoint restores the committed golden checkpoint and compares
// the completed run against the committed expectation — the cross-version
// gate: any accidental format-version bump or silent layout drift breaks
// decoding of yesterday's files, and this test, loudly. As committed, the
// file's config JSON still carries the retired keys of retiredConfigKeys, so
// restoring it also proves that a Config field can be dropped without
// orphaning old checkpoints: unknown keys are ignored. The test holds the
// file to carrying them, and DXBAR_UPDATE_GOLDEN=1, which would write today's
// config, refuses to regenerate it (see regenerateGolden).
func TestGoldenCheckpoint(t *testing.T) {
	ckptPath := filepath.Join("bench", "golden.ckpt")
	expPath := filepath.Join("bench", "golden_expected.json")
	if os.Getenv("DXBAR_UPDATE_GOLDEN") != "" {
		regenerateGolden(t, ckptPath, expPath)
	}
	if missing := missingRetiredKeys(t, ckptPath); len(missing) > 0 {
		t.Fatalf("%s: config JSON lacks the retired keys %q, whose presence proves old configs still decode", ckptPath, missing)
	}
	res, err := ResumeWith(ckptPath, func(c *Config) {
		c.CheckpointInterval = 0
		c.CheckpointDir = ""
	})
	if err != nil {
		t.Fatalf("golden checkpoint failed to restore (format drift? see regenerateGolden if intentional): %v", err)
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
		t.Fatalf("golden checkpoint result drifted from %s (see regenerateGolden if intentional)", expPath)
	}
}

// retiredConfigKeys are the config keys bench/golden.ckpt keeps although
// Config no longer has them.
var retiredConfigKeys = []string{"RebalanceInterval"}

// missingRetiredKeys returns the retiredConfigKeys absent from the config
// JSON of the checkpoint file at path.
func missingRetiredKeys(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var (
		ck  Checkpoint
		cfg []byte
	)
	if err := ck.state(r, &cfg); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(cfg, &keys); err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, k := range retiredConfigKeys {
		if _, ok := keys[k]; !ok {
			missing = append(missing, k)
		}
	}
	return missing
}

// goldenConfig is the fixed run behind bench/golden.ckpt.
func goldenConfig() Config {
	return checkpointWindow(Config{Design: DesignDXbar, Load: 0.2, Seed: 7})
}

// regenerateGolden rewrites bench/golden.ckpt and its expected result from
// goldenConfig. A checkpoint written today stores today's config JSON, so it
// fails rather than write a golden without the retired keys.
func regenerateGolden(t *testing.T, ckptPath, expPath string) {
	t.Helper()
	dir := t.TempDir()
	cfg := goldenConfig()
	cfg.CheckpointInterval = 128 // one checkpoint, at cycle 128
	cfg.CheckpointDir = dir
	run(t, cfg)
	src := filepath.Join(dir, fmt.Sprintf("ckpt-%012d.dxsn", 128))
	if missing := missingRetiredKeys(t, src); len(missing) > 0 {
		t.Fatalf("not regenerating %s: today's config JSON lacks the retired keys %q that prove old configs still decode. "+
			"Rewrite it with a throwaway test instead: run the committed file's own config JSON, kept byte for byte, "+
			"to cycle 128, store that checkpoint under the same JSON, and write %s from its resumed result", ckptPath, missing, expPath)
	}
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
