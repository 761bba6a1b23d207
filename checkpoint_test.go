package dxbar

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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

// TestRestoreEngineCorruptInput walks every truncation and every single-byte
// flip of a real snapshot through Restore: each must fail with an error —
// never panic — and the CRC makes all bit flips detectable.
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
}

// FuzzRestoreEngine throws arbitrary mutations of real snapshot bytes at
// Restore. The contract under fuzzing is error-not-panic; a half-restored
// engine is impossible because the caller discards the engine on error.
func FuzzRestoreEngine(f *testing.F) {
	for _, d := range []Design{DesignDXbar, DesignSCARAB} {
		a, _ := snapshotPair(f, d)
		a.Engine.Run(150)
		var buf bytes.Buffer
		if err := a.Engine.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("DXSN"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, net := snapshotPair(t, DesignDXbar)
		_ = net.Engine.Restore(data) // must not panic
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

// FuzzLoadCheckpoint fuzzes the checkpoint-file decoder the same way: any
// mutation of a real file must produce an error, never a panic.
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
		if err := os.WriteFile(p, data, 0o644); err != nil {
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
