package dxbar

import (
	"bytes"
	"reflect"
	"testing"

	"dxbar/internal/coherence"
	"dxbar/internal/energy"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
)

// The determinism suites run at loads where almost no router is ever
// quiescent. These tests repeat their comparisons where most routers sleep
// (the activity-driven router phase of internal/sim): every execution path
// must still produce the sequential engine's results bit for bit.

// idleLoad is the uniform-random load of the mostly-asleep runs: at 8×8 about
// 70 % of router-steps are skipped.
const idleLoad = 0.05

// TestActivityBitIdentityLowLoad compares, per design at idleLoad: the
// sequential run, the same run on two shards, and a resume — same backend and
// the other one — from each of the three checkpoints a checkpointed run wrote
// (taken while most nodes sleep; the restored engine wakes them all and they
// must go back to sleep unnoticed).
func TestActivityBitIdentityLowLoad(t *testing.T) {
	for _, d := range AllDesigns {
		t.Run(string(d), func(t *testing.T) {
			base := Config{
				Design: d, Width: 8, Height: 8, Pattern: "UR", Load: idleLoad,
				WarmupCycles: 300, MeasureCycles: 1200, Seed: 42,
				EventTrace: 512,
			}
			runPair(t, base, 2)
			checkResumeIdentity(t, base, 500, 3)
		})
	}
}

// TestActivityShardedLowLoad runs a mesh in which most routers sleep on the
// sequential engine and on four shards: a node sleeps and wakes the same way
// whichever tile owns it. It also pins the share of skipped steps the
// low-load tests rely on.
func TestActivityShardedLowLoad(t *testing.T) {
	const cycles = 2000
	for _, d := range []Design{DesignDXbar, DesignSCARAB, DesignBuffered4} {
		t.Run(string(d), func(t *testing.T) {
			seq, sharded := oracleNetwork(t, d, 8, 8, idleLoad, 1, false), oracleNetwork(t, d, 8, 8, idleLoad, 4, false)
			seq.Engine.Run(cycles)
			sharded.Engine.Run(cycles)
			if !reflect.DeepEqual(seq.Stats.Results(), sharded.Stats.Results()) {
				t.Errorf("results differ from sequential\nseq:     %+v\nsharded: %+v", seq.Stats.Results(), sharded.Stats.Results())
			}
			if seqE, shE := seq.Meter.Snapshot(), sharded.Meter.Snapshot(); !reflect.DeepEqual(seqE, shE) {
				t.Errorf("energy counts differ from sequential\nseq:     %+v\nsharded: %+v", seqE, shE)
			}
			for name, e := range map[string]*Network{"sequential": seq, "sharded": sharded} {
				executed, skipped := e.Engine.RouterSteps()
				if executed+skipped != cycles*64 {
					t.Errorf("%s: %d executed + %d skipped router-steps, want %d in all", name, executed, skipped, cycles*64)
				}
				if share := float64(skipped) / float64(cycles*64); share < 0.5 {
					t.Errorf("%s: only %.0f %% of router-steps skipped at load %.2f; the run is not mostly asleep", name, 100*share, idleLoad)
				}
			}
		})
	}
}

// splashRun is one hand-built closed-loop run (RunSplash without the facade,
// so the test can shard it and snapshot it mid-run).
type splashRun struct {
	sys  *coherence.System
	net  *Network
	opts NetworkOptions
}

func newSplashRun(t *testing.T, d Design, bench string, shards int) *splashRun {
	t.Helper()
	mesh := topology.MustMesh(8, 8)
	prof, ok := coherence.ProfileByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	sys, err := coherence.NewSystem(mesh, prof, 42)
	if err != nil {
		t.Fatal(err)
	}
	r := &splashRun{sys: sys}
	r.opts = NetworkOptions{
		Design: d, Mesh: mesh, Source: sys, Sink: sys, PreCycle: sys.PreCycle,
		Stats:  stats.NewCollector(mesh.Nodes(), 0, 3_000_000),
		Shards: shards,
	}
	if r.net, err = NewNetwork(r.opts); err != nil {
		t.Fatal(err)
	}
	return r
}

// splashOutcome is what a finished closed-loop run is compared on.
type splashOutcome struct {
	finish  uint64
	cycles  uint64
	results stats.Results
	energy  energy.Counts
}

func (r *splashRun) finish(t *testing.T) splashOutcome {
	t.Helper()
	if !r.net.Engine.RunUntil(r.sys.Quiesced, 3_000_000) {
		t.Fatal("closed-loop run did not finish")
	}
	return splashOutcome{r.sys.FinishCycle(), r.net.Engine.Cycle(), r.net.Stats.Results(), r.net.Meter.Snapshot()}
}

// TestActivityBitIdentitySplash runs one SPLASH-2 profile — the lightly
// loaded closed loop the activity-driven router phase exists for — on every
// execution path: sequential, two shards, and an engine snapshot taken
// mid-run (most nodes asleep) restored into a fresh engine that finishes the
// run.
func TestActivityBitIdentitySplash(t *testing.T) {
	const bench = "LU"
	for _, d := range []Design{DesignDXbar, DesignBuffered4, DesignFlitBless} {
		t.Run(string(d), func(t *testing.T) {
			seq := newSplashRun(t, d, bench, 1)
			want := seq.finish(t)
			executed, skipped := seq.net.Engine.RouterSteps()
			if share := float64(skipped) / float64(executed+skipped); share < 0.5 {
				t.Errorf("only %.0f %% of router-steps skipped on %s; the run is not mostly asleep", 100*share, bench)
			}
			check := func(name string, got splashOutcome) {
				t.Helper()
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s differs from sequential\nseq: %+v\ngot: %+v", name, want, got)
				}
			}

			check("2 shards", newSplashRun(t, d, bench, 2).finish(t))

			// The coherence system is not part of the engine snapshot: the
			// restored engine keeps driving the same live system, exactly as
			// Engine.Restore is used on a running workload.
			resumed := newSplashRun(t, d, bench, 1)
			resumed.net.Engine.Run(want.cycles / 2)
			var snap bytes.Buffer
			if err := resumed.net.Engine.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			resumed.opts.Stats = stats.NewCollector(64, 0, 3_000_000)
			fresh, err := NewNetwork(resumed.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Engine.Restore(snap.Bytes()); err != nil {
				t.Fatal(err)
			}
			resumed.net = fresh
			check("snapshot mid-run + restore", resumed.finish(t))
		})
	}
}

// TestActivityEngineReuse is TestShardEngineReuse where runs end with most
// nodes asleep: the second run goes through Engine.Reset, which must wake
// every node again — on both backends.
func TestActivityEngineReuse(t *testing.T) {
	for _, shards := range []int{1, 2} {
		checkEngineReuse(t, Config{
			Design: DesignDXbar, Width: 8, Height: 8, Pattern: "UR", Load: idleLoad,
			WarmupCycles: 200, MeasureCycles: 800, Seed: 5, Shards: shards,
		})
	}
}
