package dxbar

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"dxbar/internal/coherence"
	"dxbar/internal/diag"
	"dxbar/internal/flit"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// steadyLoad is a uniform-random load below the design's saturation point:
// past saturation the source queues (and with them the flit pool) grow without
// bound, which is real work, not a pooling regression — and a healthy run for
// the run-health monitor, which then reports nothing.
func steadyLoad(d Design) float64 {
	switch d {
	case DesignFlitBless:
		return 0.12
	case DesignSCARAB:
		return 0.10
	}
	return 0.3
}

// bernoulliSource is the open-loop source of a test network: Bernoulli
// injection of the named pattern at the given load.
func bernoulliSource(tb testing.TB, mesh *topology.Mesh, pattern string, load float64, flits int, seed int64) *sim.SourceAdapter {
	tb.Helper()
	pat, err := traffic.New(pattern, mesh)
	if err != nil {
		tb.Fatal(err)
	}
	bern, err := traffic.NewBernoulli(mesh, pat, load, flits, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return &sim.SourceAdapter{B: bern}
}

// drainSource is a Bernoulli source that falls silent at cycle stop, so that
// the network can drain. Embedding the adapter keeps the random stream's
// position in the engine's snapshots.
type drainSource struct {
	*sim.SourceAdapter
	stop uint64
}

func (s *drainSource) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	if cycle >= s.stop {
		return nil
	}
	return s.SourceAdapter.Generate(node, cycle)
}

// steadyNetwork builds an 8×8 network of the given design driven by
// uniform-random Bernoulli traffic, for allocation and leak tests.
func steadyNetwork(t *testing.T, design Design, load float64) *Network {
	t.Helper()
	return steadyShardedNetwork(t, design, load, 0)
}

// steadyShardedNetwork is steadyNetwork with a shard count (0 sequential).
func steadyShardedNetwork(t *testing.T, design Design, load float64, shards int) *Network {
	t.Helper()
	return steadyMeshNetwork(t, design, 8, 8, load, shards)
}

// steadyMeshNetwork is the fully parameterized builder behind the steady-
// state helpers: any mesh size, load and shard count.
func steadyMeshNetwork(t *testing.T, design Design, w, h int, load float64, shards int) *Network {
	t.Helper()
	mesh := topology.MustMesh(w, h)
	coll := stats.NewCollector(mesh.Nodes(), 0, 1<<40)
	// Sampling is on (with a capacity small enough that the ring wraps
	// during the alloc test) so the zero-alloc guard below also covers the
	// histogram and time-series instrumentation.
	coll.EnableTimeSeries(64, 32)
	net, err := NewNetwork(NetworkOptions{
		Design: design,
		Mesh:   mesh,
		Source: bernoulliSource(t, mesh, "UR", load, 1, 42),
		Stats:  coll,
		Shards: shards,
		// The run-health monitor is on by default in the public Run path, so
		// the zero-alloc guard must hold with it attached. A short window
		// keeps the windowed detector leg (the flit-age scan and storm
		// deltas) inside the measured runs.
		Diag: diag.NewMonitor(diag.Config{Window: 64}, mesh.Nodes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestStepZeroAllocSteadyState is the tentpole's regression guard: after
// warmup (flit pool populated, event wheel and router scratch at their
// steady sizes) the cycle loop must not allocate at all, for every design.
func TestStepZeroAllocSteadyState(t *testing.T) {
	for _, d := range AllDesigns {
		t.Run(string(d), func(t *testing.T) {
			net := steadyNetwork(t, d, steadyLoad(d))
			net.Engine.Run(3000)
			avg := testing.AllocsPerRun(5, func() { net.Engine.Run(200) })
			if avg != 0 {
				t.Errorf("%s: %.2f allocations per 200-cycle run in steady state, want 0", d, avg)
			}
		})
	}
}

// largeMeshAllocCases are the mesh sizes the large-mesh zero-alloc guards
// sweep, with per-size below-saturation loads: larger meshes saturate at
// lower offered loads (mean hop count grows with the mesh diagonal while
// per-node link capacity stays fixed), and above saturation the injection
// backlog — queued as compact specs — grows without bound, taking a slab of
// spec chunks whenever its tile's free list runs dry. That regime is real
// work, not a pooling regression, so the guards (and the scale benchmark)
// stay below it.
var largeMeshAllocCases = []struct {
	w, h   int
	load   float64
	warmup uint64
	shards int
}{
	{16, 16, 0.15, 6000, 4},
	{32, 32, 0.10, 6000, 4},
	{64, 64, 0.05, 6000, 4},
}

var (
	warmMeshMu sync.Mutex
	warmSnaps  = map[int]*bytes.Buffer{}
	warmNets   = map[int]*Network{}
)

// warmLargeMesh builds largeMeshAllocCases[i] on the sequential engine and
// warms it, once per test binary, and returns the network and its snapshot
// at the end of the warm-up: the sequential guard runs on the network, the
// sharded guard restores the snapshot.
func warmLargeMesh(t *testing.T, i int) (*Network, []byte) {
	t.Helper()
	warmMeshMu.Lock()
	defer warmMeshMu.Unlock()
	if warmNets[i] == nil {
		c := largeMeshAllocCases[i]
		net, snap := steadyMeshNetwork(t, DesignDXbar, c.w, c.h, c.load, 0), &bytes.Buffer{}
		net.Engine.Run(c.warmup)
		if err := net.Engine.Snapshot(snap); err != nil {
			t.Fatal(err)
		}
		warmNets[i], warmSnaps[i] = net, snap
	}
	return warmNets[i], warmSnaps[i].Bytes()
}

// TestStepZeroAllocSteadyStateLargeMesh extends the steady-state guard to
// 16×16, 32×32 and 64×64 meshes on the fastest design: pools, deques and
// router scratch must reach their high-water marks during warmup at every
// mesh size (the seed benchmarks showed 23 allocs/cycle at 16×16 and 194 at
// 32×32 from structures sized for small meshes, and the 2026-08-08 scale
// artifact still leaked 0.13–0.51 allocs/cycle from spec-ring doublings).
func TestStepZeroAllocSteadyStateLargeMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("large-mesh warmups are seconds of simulated work")
	}
	for i, c := range largeMeshAllocCases {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			net, _ := warmLargeMesh(t, i)
			avg := testing.AllocsPerRun(5, func() { net.Engine.Run(200) })
			if avg != 0 {
				t.Errorf("dxbar %dx%d: %.2f allocations per 200-cycle run in steady state, want 0", c.w, c.h, avg)
			}
		})
	}
}

// TestNewNetworkAllocsPerTile is the construction guard: building a network
// allocates per tile and per network, never per node — every per-node
// structure (Envs, link stages, first spec chunks, reassemblers, input
// buffers, flits, routers) comes from a slab. So a 32×32 network costs at
// most 64 allocations more than an 8×8 one, on every design, sequential and
// sharded (one per node would be 960 more).
func TestNewNetworkAllocsPerTile(t *testing.T) {
	allocs := func(d Design, side, shards int) float64 {
		mesh := topology.MustMesh(side, side)
		coll := stats.NewCollector(mesh.Nodes(), 0, 1<<40)
		return testing.AllocsPerRun(2, func() {
			if _, err := NewNetwork(NetworkOptions{Design: d, Mesh: mesh, Stats: coll, Shards: shards}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, d := range AllDesigns {
		for _, shards := range []int{0, 4} {
			small, large := allocs(d, 8, shards), allocs(d, 32, shards)
			if large-small > 64 {
				t.Errorf("%s shards=%d: NewNetwork allocates %.0f times at 8x8 and %.0f at 32x32, want at most 64 more",
					d, shards, small, large)
			}
		}
	}
}

// TestNetworkFlitsFollowTraffic holds the flit pool to the traffic it serves:
// (a) a network of any design at 64×64 carves at most sim.InjectionSlack (8)
// flits per node at construction, sequential or on 4 shards — a tile pool
// carves only when a Get finds it dry, so at construction the engine's pool
// holds every carved flit; (b) sat8's flitbless point, which outgrows that
// floor, carves at most 1.25× its peak of live flits (read cycle by cycle)
// plus one minimum slab — the pool's documented bound — and on 2 shards — where the engine's pool grows
// between worker cycles, through Settle — ejects what the sequential run
// ejects from a pool that grew past its floor as well; (c) the same run
// repeated on the Reset engine allocates nothing inside Engine.Run and carves
// no more flits.
func TestNetworkFlitsFollowTraffic(t *testing.T) {
	const (
		slack  = sim.InjectionSlack // the primed flits per node
		cycles = 6500
	)
	big := topology.MustMesh(64, 64)
	coll := stats.NewCollector(big.Nodes(), 0, 1<<40)
	for _, d := range AllDesigns {
		for _, shards := range []int{0, 4} {
			net, err := NewNetwork(NetworkOptions{Design: d, Mesh: big, Stats: coll, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if got := net.Engine.Pool().Carved(); got > slack*big.Nodes() {
				t.Errorf("%s shards=%d: construction carved %d flits, want at most %d per node (%d)",
					d, shards, got, slack, slack*big.Nodes())
			}
		}
	}

	mesh := topology.MustMesh(8, 8)
	r := newRunner()
	sat8 := func(shards int) *Network {
		t.Helper()
		net, err := r.network(NetworkOptions{Design: DesignFlitBless, Mesh: mesh, Shards: shards,
			Source: bernoulliSource(t, mesh, "UR", 0.6, 1, 42), Stats: stats.NewCollector(mesh.Nodes(), 0, cycles)})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	net := sat8(0)
	pool := net.Engine.Pool()
	peak := 0
	net.Engine.RunUntil(func() bool { peak = max(peak, pool.Outstanding()); return false }, cycles)
	carved := pool.Carved()
	if carved <= slack*mesh.Nodes() {
		t.Fatalf("the pool did not grow past its floor of %d (carved %d, peak %d live): the run exercises nothing", slack*mesh.Nodes(), carved, peak)
	}
	if limit := peak + peak/4 + flit.MinSlab; carved > limit {
		t.Errorf("carved %d flits for a peak of %d live, want at most %d", carved, peak, limit)
	}
	t.Logf("sat8 flitbless: peak %d live flits (%.1f per node), %d carved", peak, float64(peak)/float64(mesh.Nodes()), carved)
	ejected := net.Stats.TotalEjected()

	net = sat8(0)
	if net.Engine.Pool() != pool {
		t.Fatal("the runner built a new engine instead of resetting the first")
	}
	// Collect garbage first and keep the collector off for the window, so the
	// runtime's own work after a GC cycle is not counted as the engine's.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net.Engine.Run(cycles)
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gcPercent)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("the second %d-cycle run on the reset engine allocated %d times, want 0", cycles, n)
	}
	if got := pool.Carved(); got != carved {
		t.Errorf("the reset engine carved %d flits in its second run, %d in its first", got, carved)
	}

	sharded := sat8(2)
	sharded.Engine.Run(cycles)
	if got := sharded.Stats.TotalEjected(); got != ejected {
		t.Errorf("2 shards ejected %d flits, the sequential engine %d", got, ejected)
	}
	if got := sharded.Engine.Pool().Carved(); got <= slack*mesh.Nodes() {
		t.Errorf("on 2 shards the engine's pool carved %d flits, want growth past its floor of %d", got, slack*mesh.Nodes())
	}
}

// TestPoolNoLeakAfterDrain checks the pooling ownership discipline: every
// flit acquired from the pool is released exactly once (at ejection), so a
// drained network has zero outstanding flits — across the buffered,
// deflecting and drop/retransmit designs, with multi-flit packets to
// exercise reassembly.
func TestPoolNoLeakAfterDrain(t *testing.T) {
	for _, d := range []Design{DesignDXbar, DesignUnified, DesignFlitBless, DesignSCARAB, DesignBuffered4} {
		t.Run(string(d), func(t *testing.T) {
			mesh := topology.MustMesh(4, 4)
			coll := stats.NewCollector(mesh.Nodes(), 0, 1<<40)
			net, err := NewNetwork(NetworkOptions{
				Design: d,
				Mesh:   mesh,
				Source: &drainSource{bernoulliSource(t, mesh, "UR", 0.4, 2, 7), 500},
				Stats:  coll,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng := net.Engine
			eng.Run(500)
			drained := eng.RunUntil(func() bool {
				return eng.QueuedFlits() == 0 && eng.Pool().Outstanding() == 0
			}, 20_000)
			if !drained {
				t.Fatalf("%s: network did not drain; %d flits outstanding, %d queued",
					d, eng.Pool().Outstanding(), eng.QueuedFlits())
			}
			if got := eng.Pool().Outstanding(); got != 0 {
				t.Errorf("%s: %d flits leaked from the pool", d, got)
			}
		})
	}
}

// TestClosedLoopZeroAllocSteadyState is the closed-loop twin of
// TestStepZeroAllocSteadyState: once the coherence substrate's calendars,
// in-flight table and outboxes have reached their working size, a cycle of a
// SPLASH-2 run allocates nothing but the slab chunk a first-touched directory
// entry occasionally needs — on the lightest and the heaviest profile, three
// designs, sequential and sharded.
func TestClosedLoopZeroAllocSteadyState(t *testing.T) {
	for _, bench := range []string{"LU", "Ocean"} {
		for _, d := range []Design{DesignDXbar, DesignBuffered4, DesignFlitBless} {
			for _, shards := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/%s/shards%d", bench, d, shards), func(t *testing.T) {
					mesh := topology.MustMesh(8, 8)
					prof, _ := coherence.ProfileByName(bench)
					sys, err := coherence.NewSystem(mesh, prof, 42)
					if err != nil {
						t.Fatal(err)
					}
					net, err := NewNetwork(NetworkOptions{
						Design: d, Mesh: mesh, Shards: shards, Source: sys, Sink: sys, PreCycle: sys.PreCycle,
						Stats: stats.NewCollector(mesh.Nodes(), 0, 1<<40),
					})
					if err != nil {
						t.Fatal(err)
					}
					net.Engine.Run(2000)
					const window = 200
					avg := testing.AllocsPerRun(10, func() { net.Engine.Run(window) })
					if sys.Done() {
						t.Fatal("the workload finished inside the measured windows")
					}
					if avg > 0.05*window {
						t.Errorf("%.1f allocations per %d-cycle window in steady state, want at most %.0f", avg, window, 0.05*window)
					}
					t.Logf("%.2f allocations per %d-cycle window", avg, window)
				})
			}
		}
	}
}

// TestTraceReplayZeroAllocSteadyState holds a trace replay to zero
// allocations per cycle: RunTrace's stop condition runs after every cycle and
// reads counters only — checked once the trace has run out, where every term
// of it is evaluated — and the player reuses the specs it returns. The
// measured replay is the second on a reused engine, so the reassemblers' and
// pools' high-water marks were reached by the first.
func TestTraceReplayZeroAllocSteadyState(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordSplash(SplashConfig{Benchmark: "FFT", Seed: 42}, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner()
	mesh, err := r.mesh(tr.Width, tr.Height)
	if err != nil {
		t.Fatal(err)
	}
	replay := func() (*Network, *traffic.Player, func() bool) {
		player := traffic.NewPlayer(tr)
		net, err := r.network(NetworkOptions{Design: DesignDXbar, Mesh: mesh, Source: player, Stats: stats.NewCollector(mesh.Nodes(), 0, 1<<40)})
		if err != nil {
			t.Fatal(err)
		}
		return net, player, replayDone(player, net, uint64(len(tr.Records)))
	}
	net, _, done := replay()
	if !net.Engine.RunUntil(done, 100_000) {
		t.Fatal("the first replay did not drain")
	}
	if avg := testing.AllocsPerRun(10, func() { done() }); avg != 0 {
		t.Errorf("the stop condition of a drained replay allocates %.0f times per call, want 0", avg)
	}
	net, player, done := replay()
	net.Engine.RunUntil(done, 2000)
	const window = 200
	avg := testing.AllocsPerRun(5, func() { net.Engine.RunUntil(done, window) })
	if player.Remaining() == 0 {
		t.Fatal("the trace ran out inside the measured windows")
	}
	if avg != 0 {
		t.Errorf("%.2f allocations per %d-cycle window of a replay, want 0", avg, window)
	}
}
