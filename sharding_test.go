package dxbar

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// shardCounts are the shard counts the determinism tests sweep: the
// sequential engine, even and uneven column splits, and the auto sizing.
// AutoShards resolves to GOMAXPROCS, so under -race this also drives the
// barrier with real parallelism on multi-core hosts.
var shardCounts = []int{1, 2, 3, 4, AutoShards}

// runPair executes the same config sequentially and sharded and fails the
// test unless the full Results — throughput, latency, energy counts, event
// trace, per-router matrices, time series — are bit-identical.
func runPair(t *testing.T, base Config, shards int) {
	t.Helper()
	seq := base
	seq.Shards = 1
	want, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = shards
	got, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("shards=%d: result differs from sequential\nseq:     %+v\nsharded: %+v", shards, want, got)
	}
}

// TestShardBitIdentityAllDesigns is the sharded engine's determinism
// contract: for every design, seed and shard count, the sharded engine must
// reproduce the sequential engine bit for bit. Event tracing is on so the
// comparison covers the flight-recorder ring ordering, not just aggregate
// counters; SCARAB's load sits past saturation so retransmit staging is
// exercised hard.
func TestShardBitIdentityAllDesigns(t *testing.T) {
	for _, d := range AllDesigns {
		for _, seed := range []int64{7, 42} {
			base := Config{
				Design: d, Width: 8, Height: 8, Pattern: "UR", Load: 0.3,
				WarmupCycles: 300, MeasureCycles: 1200, Seed: seed,
				EventTrace: 512,
			}
			for _, n := range shardCounts {
				n := n
				t.Run(fmt.Sprintf("%s/seed%d/shards%d", d, seed, n), func(t *testing.T) {
					runPair(t, base, n)
				})
			}
		}
	}
}

// TestShardBitIdentityFaultSweep covers the fault-injection configurations:
// broken crossbars (and single crosspoints) reroute flits through the
// secondary fabric and change buffering/retransmission behaviour, so the
// staged side effects differ from the healthy runs. Utilization tracking
// and time-series sampling are enabled to compare those result fields too.
func TestShardBitIdentityFaultSweep(t *testing.T) {
	for _, d := range []Design{DesignDXbar, DesignUnified} {
		for _, gran := range []string{"crossbar", "crosspoint"} {
			for _, frac := range []float64{0.5, 1.0} {
				base := Config{
					Design: d, Width: 8, Height: 8, Pattern: "UR", Load: 0.25,
					WarmupCycles: 300, MeasureCycles: 1000, Seed: 11,
					FaultFraction: frac, FaultGranularity: gran,
					TrackUtilization: true, SampleInterval: 128,
					EventTrace: 256,
				}
				t.Run(fmt.Sprintf("%s/%s/%.2f", d, gran, frac), func(t *testing.T) {
					runPair(t, base, 4)
				})
			}
		}
	}
}

// TestShardBitIdentityLargeMesh checks a 16×16 mesh — multi-column tiles,
// and the mesh size where sharding is actually meant to be used.
func TestShardBitIdentityLargeMesh(t *testing.T) {
	base := Config{
		Design: DesignDXbar, Width: 16, Height: 16, Pattern: "MT", Load: 0.25,
		WarmupCycles: 200, MeasureCycles: 800, Seed: 3,
	}
	for _, n := range []int{4, AutoShards} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			runPair(t, base, n)
		})
	}
}

// snapshotBytes serializes the network's engine between cycles.
func snapshotBytes(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := net.Engine.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lockstep is the per-cycle differential oracle: it advances a sequential and
// a sharded engine of the same network side by side and requires their
// Engine.Snapshot streams — every latch, link register, queue, credit
// pipeline, the retransmit wheel, the collector, the meter and the event ring
// — to be byte-identical every `every` cycles, so a divergence is caught
// within `every` cycles of where it happens instead of as a different total
// at the end of the run. Equal bytes also prove the sharded engine's stages
// are empty between cycles: the format has no room for them. stop, when
// non-nil, ends the run early once it reports true on both sides.
func lockstep(t *testing.T, seq, sharded *Network, cycles, every uint64, stop func() bool) {
	t.Helper()
	for done := uint64(0); done < cycles; done += every {
		seq.Engine.Run(every)
		sharded.Engine.Run(every)
		a, b := snapshotBytes(t, seq), snapshotBytes(t, sharded)
		if !bytes.Equal(a, b) {
			at := 0
			for at < len(a) && at < len(b) && a[at] == b[at] {
				at++
			}
			t.Fatalf("engines diverged by cycle %d: snapshots of %d and %d bytes first differ at byte %d",
				seq.Engine.Cycle(), len(a), len(b), at)
		}
		if stop != nil && stop() {
			return
		}
	}
}

// oracleNetwork builds one side of a lockstep pair: the design on a w×h mesh
// under UR traffic with the flight recorder on (so snapshots cover event
// order) and an optional crossbar fault plan.
func oracleNetwork(t *testing.T, d Design, w, h int, load float64, shards int, faulty bool) *Network {
	t.Helper()
	mesh := topology.MustMesh(w, h)
	pat, err := traffic.New("UR", mesh)
	if err != nil {
		t.Fatal(err)
	}
	bern, err := traffic.NewBernoulli(mesh, pat, load, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	o := NetworkOptions{
		Design: d, Mesh: mesh,
		Source: &sim.SourceAdapter{B: bern},
		Stats:  stats.NewCollector(mesh.Nodes(), 0, 1<<40),
		Events: events.NewRecorder(mesh.Nodes(), 256),
		Shards: shards,
	}
	if faulty {
		if o.FaultPlan, err = faults.NewPlan(mesh.Nodes(), 0.5, 120, 5); err != nil {
			t.Fatal(err)
		}
	}
	net, err := NewNetwork(o)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestShardLockstepAllDesigns runs the oracle over every design at UR 0.6 —
// past saturation for all of them, so SCARAB's drops and NACK-driven
// retransmissions, Flit-Bless's deflections and the buffered designs' credit
// returns all cross tile boundaries constantly — on 2, 3, 4 and 6 shards
// (1×2, 1×3, 2×2 and 2×3 grids) and on a non-square mesh.
func TestShardLockstepAllDesigns(t *testing.T) {
	for _, d := range AllDesigns {
		for _, shards := range []int{1, 2, 3, 4, 6} {
			t.Run(fmt.Sprintf("%s/shards%d", d, shards), func(t *testing.T) {
				lockstep(t, oracleNetwork(t, d, 8, 8, 0.6, 1, false), oracleNetwork(t, d, 8, 8, 0.6, shards, false), 600, 50, nil)
			})
		}
		t.Run(fmt.Sprintf("%s/12x5/shards6", d), func(t *testing.T) {
			lockstep(t, oracleNetwork(t, d, 12, 5, 0.6, 1, false), oracleNetwork(t, d, 12, 5, 0.6, 6, false), 400, 50, nil)
		})
	}
}

// TestShardLockstepFaults runs the oracle through a crossbar fault plan
// manifesting mid-run on the two fault-tolerant designs.
func TestShardLockstepFaults(t *testing.T) {
	for _, d := range []Design{DesignDXbar, DesignUnified} {
		t.Run(string(d), func(t *testing.T) {
			lockstep(t, oracleNetwork(t, d, 8, 8, 0.4, 1, true), oracleNetwork(t, d, 8, 8, 0.4, 4, true), 600, 50, nil)
		})
	}
}

// TestShardLockstepClosedLoop runs the oracle on the coherence closed loop,
// where the order of Sink deliveries feeds back into what is injected next: a
// sharded engine that delivered one cycle's packets in any order but
// ascending destination node would drive its coherence system — and within a
// few cycles its network — somewhere else.
func TestShardLockstepClosedLoop(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			seq, sharded := newSplashRun(t, DesignDXbar, "LU", 1), newSplashRun(t, DesignDXbar, "LU", shards)
			lockstep(t, seq.net, sharded.net, 3_000_000, 50, func() bool {
				return seq.sys.Quiesced() && sharded.sys.Quiesced()
			})
			if !seq.sys.Quiesced() || seq.sys.FinishCycle() != sharded.sys.FinishCycle() {
				t.Errorf("finish cycles differ or run unfinished: sequential %d, sharded %d", seq.sys.FinishCycle(), sharded.sys.FinishCycle())
			}
		})
	}
}

// TestShardEngineReuse checks determinism through the runner's engine
// recycling: RunMany gives both identical sharded jobs to one worker, so
// the second run goes through Engine.Reset instead of a fresh build, and
// both must still match a sequential run.
func TestShardEngineReuse(t *testing.T) {
	checkEngineReuse(t, Config{
		Design: DesignSCARAB, Width: 8, Height: 8, Pattern: "UR", Load: 0.2,
		WarmupCycles: 200, MeasureCycles: 800, Seed: 5, Shards: 2,
	})
}

// checkEngineReuse runs cfg twice on one RunMany worker (fresh engine, then
// the same engine after Reset) and requires both results to equal a fresh
// sequential run's.
func checkEngineReuse(t *testing.T, cfg Config) {
	t.Helper()
	batch, err := RunMany([]Config{cfg, cfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := cfg
	seq.Shards = 1
	want, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range batch {
		if !reflect.DeepEqual(want, got) {
			t.Errorf("run %d of the reused engine (shards=%d) differs from sequential", i, cfg.Shards)
		}
	}
}

// TestShardZeroAllocSteadyState extends the zero-allocation guard to the
// sharded engine: entering and leaving Run (the worker scope), the staging
// slices, the tile pools and the barrier must all reuse capacity once warm.
func TestShardZeroAllocSteadyState(t *testing.T) {
	load := map[Design]float64{DesignFlitBless: 0.12, DesignSCARAB: 0.10}
	for _, d := range AllDesigns {
		t.Run(string(d), func(t *testing.T) {
			l, ok := load[d]
			if !ok {
				l = 0.3
			}
			net := steadyShardedNetwork(t, d, l, 4)
			net.Engine.Run(3000)
			avg := testing.AllocsPerRun(5, func() { net.Engine.Run(200) })
			if avg != 0 {
				t.Errorf("%s: %.2f allocations per 200-cycle run in sharded steady state, want 0", d, avg)
			}
		})
	}
}

// TestShardZeroAllocSteadyStateLargeMesh is the sharded counterpart of the
// sequential large-mesh guard: at 16×16, 32×32 and 64×64 the tile-parallel
// backend — worker scopes, staging slices, profiler — must also run
// allocation-free once warm (the ISSUE-7 acceptance bar is 0 allocs/cycle at
// 64×64 for both engines).
func TestShardZeroAllocSteadyStateLargeMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("large-mesh warmups are seconds of simulated work")
	}
	for _, c := range largeMeshAllocCases {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			net := steadyMeshNetwork(t, DesignDXbar, c.w, c.h, c.load, c.shards)
			net.Engine.Run(c.warmup)
			avg := testing.AllocsPerRun(5, func() { net.Engine.Run(200) })
			if avg != 0 {
				t.Errorf("dxbar %dx%d sharded: %.2f allocations per 200-cycle run in steady state, want 0", c.w, c.h, avg)
			}
		})
	}
}

// TestShardCountResolution pins the Shards-resolution rules the public API
// documents.
func TestShardCountResolution(t *testing.T) {
	cases := []struct {
		n, width, height, want int
	}{
		{0, 8, 8, 1},
		{1, 8, 8, 1},
		{2, 8, 8, 2},
		{8, 8, 8, 8},
		{16, 8, 8, 16},        // 4x4 grid of 2x2 tiles
		{16, 8, 1, 8},         // 1-row mesh: grid degenerates to column strips
		{100, 8, 8, 64},       // clamped to one tile per node
		{7, 8, 8, 7},          // primes stay feasible as 7x1 strips
		{AutoShards, 1, 1, 1}, // clamped to a 1-node mesh
		{AutoShards, 1 << 10, 1 << 10, runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		if got := sim.ResolveShards(c.n, c.width, c.height); got != c.want {
			t.Errorf("ResolveShards(%d, %d, %d) = %d, want %d", c.n, c.width, c.height, got, c.want)
		}
	}
	// The engine must report the resolved count.
	net := steadyShardedNetwork(t, DesignDXbar, 0.1, 2)
	if got := net.Engine.Shards(); got != 2 {
		t.Errorf("Engine.Shards() = %d, want 2", got)
	}
}
