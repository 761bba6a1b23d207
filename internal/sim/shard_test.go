package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"dxbar"
	"dxbar/internal/diag"
	"dxbar/internal/flit"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// The tests in this file pin the sharded engine's execution model — workers
// that live exactly as long as one Run/RunUntil call, one barrier per cycle
// that cannot starve, a profiler that accounts for the whole wall time — as
// opposed to its results, which the bit-identity suites of the root package
// own.

// shardNet builds a w×h dxbar network under UR traffic on the given number of
// shards. opts, when non-nil, may adjust the options before construction.
func shardNet(t testing.TB, w, h int, load float64, shards int, opts func(*dxbar.NetworkOptions)) *dxbar.Network {
	t.Helper()
	mesh := topology.MustMesh(w, h)
	pat, err := traffic.New("UR", mesh)
	if err != nil {
		t.Fatal(err)
	}
	bern, err := traffic.NewBernoulli(mesh, pat, load, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := dxbar.NetworkOptions{
		Design: dxbar.DesignDXbar, Mesh: mesh,
		Source: &sim.SourceAdapter{B: bern},
		Stats:  stats.NewCollector(mesh.Nodes(), 0, 1<<40),
		Shards: shards,
	}
	if opts != nil {
		opts(&o)
	}
	net, err := dxbar.NewNetwork(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Engine.Shards(); got != shards {
		t.Fatalf("Shards() = %d, want %d", got, shards)
	}
	return net
}

// TestShardPartitionStatic pins the partition as a construction-time fact:
// tile (i, j) of the topology.Grid2D grid is exactly its topology.SplitEven
// rectangle, listed ascending; a port's crossMask bit is set iff the link
// leaves the tile, seen the same from both ends; and nothing an engine does
// afterwards — a run, a bare Step, a Reset and a second run — changes either.
func TestShardPartitionStatic(t *testing.T) {
	for _, c := range []struct{ w, h, shards int }{
		{8, 8, 1}, {8, 8, 2}, {8, 8, 4}, {8, 8, 6}, {12, 5, 6}, {7, 3, 3}, {32, 32, 2},
	} {
		t.Run(fmt.Sprintf("%dx%d/shards%d", c.w, c.h, c.shards), func(t *testing.T) {
			mesh := topology.MustMesh(c.w, c.h)
			pat, err := traffic.New("UR", mesh)
			if err != nil {
				t.Fatal(err)
			}
			cfg := func() sim.Config {
				bern, err := traffic.NewBernoulli(mesh, pat, 0.1, 1, 7)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Config{
					Mesh: mesh, Stats: stats.NewCollector(mesh.Nodes(), 0, 1<<40),
					Source: &sim.SourceAdapter{B: bern}, Shards: c.shards,
				}
			}
			eng, err := sim.New(cfg(), sim.PassthroughFactory)
			if err != nil {
				t.Fatal(err)
			}

			gx, gy := 1, 1
			if c.shards > 1 {
				gx, gy = mesh.Grid2D(c.shards)
			}
			xcuts, ycuts := topology.SplitEven(c.w, gx), topology.SplitEven(c.h, gy)
			wantTiles := make([][]int, gx*gy)
			owner := make([]int, mesh.Nodes())
			for j := 0; j < gy; j++ {
				for i := 0; i < gx; i++ {
					for y := ycuts[j]; y < ycuts[j+1]; y++ {
						for x := xcuts[i]; x < xcuts[i+1]; x++ {
							wantTiles[j*gx+i] = append(wantTiles[j*gx+i], mesh.Node(x, y))
							owner[mesh.Node(x, y)] = j*gx + i
						}
					}
				}
			}
			wantCross := make([]uint8, mesh.Nodes())
			for n := range wantCross {
				for p := flit.North; p <= flit.West; p++ {
					if nb := mesh.Neighbor(n, p); nb >= 0 && owner[nb] != owner[n] {
						wantCross[n] |= 1 << uint(p)
					}
				}
			}

			check := func(when string) {
				t.Helper()
				tiles, cross := eng.Partition()
				if !reflect.DeepEqual(tiles, wantTiles) {
					t.Fatalf("%s: tiles = %v, want the SplitEven rectangles %v", when, tiles, wantTiles)
				}
				if !reflect.DeepEqual(cross, wantCross) {
					t.Fatalf("%s: crossMask = %v, want %v", when, cross, wantCross)
				}
				seen := make([]bool, mesh.Nodes())
				for id, nodes := range tiles {
					for k, n := range nodes {
						if k > 0 && n <= nodes[k-1] {
							t.Fatalf("%s: tile %d not ascending at %d: %v", when, id, k, nodes)
						}
						if seen[n] {
							t.Fatalf("%s: node %d is in two tiles", when, n)
						}
						seen[n] = true
					}
				}
				for n, ok := range seen {
					if !ok {
						t.Fatalf("%s: node %d is in no tile", when, n)
					}
				}
				for n := range cross {
					for p := flit.North; p <= flit.West; p++ {
						nb := mesh.Neighbor(n, p)
						if nb < 0 {
							continue
						}
						here, there := cross[n]>>uint(p)&1, cross[nb]>>uint(p.Opposite())&1
						if here != there {
							t.Fatalf("%s: link %d-%s->%d crosses at one end only", when, n, p, nb)
						}
					}
				}
			}
			check("after construction")
			eng.Run(300)
			check("after Run")
			eng.Step()
			check("after a bare Step")
			if err := eng.Reset(cfg(), sim.PassthroughFactory); err != nil {
				t.Fatal(err)
			}
			check("after Reset")
			eng.Run(300)
			check("after Reset and a second Run")
		})
	}
}

// TestTileSetsOwnCacheLines pins the layout the concurrent tile phases rely
// on: the flags and sets a tile's phase writes are allocations of its own, in
// whole 64-byte lines, so that no two tiles' workers ever write the same cache
// line (side-by-side tiles sharing lines cost mesh32_sharded 23 % when PR17
// measured it).
func TestTileSetsOwnCacheLines(t *testing.T) {
	for _, c := range []struct{ w, h, shards int }{{8, 8, 1}, {8, 8, 4}, {12, 5, 6}, {32, 32, 2}} {
		net := shardNet(t, c.w, c.h, 0.1, c.shards, nil)
		flags, sets := net.Engine.TileSets()
		if len(flags) != c.shards || len(sets) != 2*c.shards {
			t.Fatalf("%dx%d/%d shards: %d flag and %d set arrays", c.w, c.h, c.shards, len(flags), len(sets))
		}
		type span struct{ lo, hi uintptr }
		var spans []span
		add := func(kind string, base unsafe.Pointer, bytes int) {
			lo := uintptr(base)
			if bytes == 0 || bytes%64 != 0 || lo%64 != 0 {
				t.Errorf("%dx%d/%d shards: %s array of %d bytes at %#x is not whole cache lines", c.w, c.h, c.shards, kind, bytes, lo)
			}
			for _, o := range spans {
				if lo < o.hi && o.lo < lo+uintptr(bytes) {
					t.Errorf("%dx%d/%d shards: %s array [%#x, %#x) overlaps [%#x, %#x)", c.w, c.h, c.shards, kind, lo, lo+uintptr(bytes), o.lo, o.hi)
				}
			}
			spans = append(spans, span{lo, lo + uintptr(bytes)})
		}
		for _, f := range flags {
			add("flag", unsafe.Pointer(unsafe.SliceData(f)), len(f))
		}
		for _, s := range sets {
			add("set", unsafe.Pointer(unsafe.SliceData(s)), 8*len(s))
		}
	}
}

// TestShardProfileAccountsForRunWall: per shard, RouterPhase + BarrierWait is
// the wall time of the parallel phases — release-to-start latency and the
// coordinator's own wake-up included — so added to the coordinator's serial
// time it must give back the wall time of Run. A profiler that only timed
// finish-to-finish gaps (as the per-cycle-spawn engine did) misses the
// scheduler's share and fails this.
func TestShardProfileAccountsForRunWall(t *testing.T) {
	net := shardNet(t, 32, 32, 0.1, 2, nil)
	net.Engine.Run(200)
	before, serial0 := net.Engine.ShardProfiles(), net.Engine.CoordinatorSerial()
	start := time.Now()
	net.Engine.Run(1000)
	wall := time.Since(start)
	parallel := wall - (net.Engine.CoordinatorSerial() - serial0)
	if parallel <= 0 || parallel > wall {
		t.Fatalf("coordinator serial time %v out of range for a %v run", wall-parallel, wall)
	}
	for i, p := range net.Engine.ShardProfiles() {
		got := (p.RouterPhase - before[i].RouterPhase) + (p.BarrierWait - before[i].BarrierWait)
		if diff := (got - parallel).Abs(); diff > parallel/20 {
			t.Errorf("shard %d: busy+wait = %v, Run wall minus coordinator serial = %v (off by %v, > 5%%)", i, got, parallel, diff)
		}
		if p.RouterPhase <= before[i].RouterPhase {
			t.Errorf("shard %d: RouterPhase did not advance", i)
		}
	}
}

// settledGoroutines returns runtime.NumGoroutine once it is at most want, or
// after a grace period: a worker has signalled its exit a few instructions
// before the runtime stops counting it.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutineBaseline returns runtime.NumGoroutine once it has held still for
// 50 ms, so a goroutine of an earlier test that is still on its way out is
// not counted into the baseline.
func goroutineBaseline() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 50*time.Millisecond {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// TestShardWorkersLiveOnlyInsideRun: a sharded engine owns goroutines only
// while Run or RunUntil is executing. Before the first run, between runs,
// during a bare Step, after a stop request cut a run short and after Reset the
// process is back at its baseline goroutine count — so an engine that is
// dropped at any of those points (there is no Close to forget) leaks nothing.
func TestShardWorkersLiveOnlyInsideRun(t *testing.T) {
	const shards = 4
	base := goroutineBaseline()
	check := func(when string) {
		t.Helper()
		if n := settledGoroutines(base); n != base {
			t.Errorf("%s: %d goroutines, want the baseline %d", when, n, base)
		}
	}

	// inCycle samples the goroutine count from inside a cycle.
	var inCycle int
	mon := diag.NewMonitor(diag.Config{}, 64)
	defer mon.Detach()
	stopAt := ^uint64(0)
	net := shardNet(t, 8, 8, 0.2, shards, func(o *dxbar.NetworkOptions) {
		o.Diag = mon
		o.PreCycle = func(c uint64) {
			inCycle = runtime.NumGoroutine()
			if c == stopAt {
				mon.RequestStop()
			}
		}
	})
	check("never run")

	net.Engine.Run(100)
	if inCycle != base+shards-1 {
		t.Errorf("inside Run: %d goroutines, want baseline %d + %d workers", inCycle, base, shards-1)
	}
	check("after Run")

	net.Engine.Step()
	if inCycle != base {
		t.Errorf("inside a bare Step: %d goroutines, want the baseline %d (tiles run inline)", inCycle, base)
	}
	check("after Step")

	if !net.Engine.RunUntil(func() bool { return net.Engine.Cycle() >= 150 }, 1000) {
		t.Error("RunUntil: predicate did not fire")
	}
	check("after RunUntil (predicate fired)")
	if net.Engine.RunUntil(func() bool { return false }, 50) {
		t.Error("RunUntil: fired without its predicate")
	}
	check("after RunUntil (cycles exhausted)")

	stopAt = net.Engine.Cycle() + 20
	net.Engine.Run(1000)
	if got := net.Engine.Cycle(); got != stopAt+1 {
		t.Errorf("stop requested in cycle %d: Run returned at cycle %d, want %d", stopAt, got, stopAt+1)
	}
	check("after a stop request mid-run")

	// Reset through the facade: RunMany's one worker runs the first config on
	// a fresh sharded engine and the second on the same engine after Reset.
	cfg := dxbar.Config{
		Design: dxbar.DesignDXbar, Width: 8, Height: 8, Pattern: "UR", Load: 0.2,
		WarmupCycles: 50, MeasureCycles: 150, Seed: 3, Shards: shards,
	}
	if _, err := dxbar.RunMany([]dxbar.Config{cfg, cfg}, 1); err != nil {
		t.Fatal(err)
	}
	check("after a run, Reset and a second run")
}

// TestShardBarrierCannotStarve: with more tiles than processors — down to a
// single one — every wait at the barrier must hand its processor to the tiles
// still working. A barrier that only spins would not finish these runs (it
// hung the suites for ten minutes on a 2-processor machine running 4 shards);
// here each must complete well inside the timeout.
func TestShardBarrierCannotStarve(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, shards := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("procs%d/shards%d", procs, shards), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				net := shardNet(t, 16, 16, 0.2, shards, nil)
				done := make(chan struct{})
				go func() {
					defer close(done)
					net.Engine.Run(200)
					net.Engine.RunUntil(func() bool { return false }, 100)
				}()
				select {
				case <-done:
				case <-time.After(time.Minute):
					t.Fatalf("300 cycles of a 16x16 mesh on %d shards did not finish within a minute on GOMAXPROCS=%d", shards, procs)
				}
				if got := net.Engine.Cycle(); got != 300 {
					t.Errorf("ran %d cycles, want 300", got)
				}
			})
		}
	}
}

// TestRunUntilHonoursStopRequest: RunUntil shares Run's loop, so a stop
// request ends it at the next cycle boundary on either engine.
func TestRunUntilHonoursStopRequest(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			mon := diag.NewMonitor(diag.Config{}, 64)
			defer mon.Detach()
			net := shardNet(t, 8, 8, 0.2, shards, func(o *dxbar.NetworkOptions) {
				o.Diag = mon
				o.PreCycle = func(c uint64) {
					if c == 40 {
						mon.RequestStop()
					}
				}
			})
			if net.Engine.RunUntil(func() bool { return false }, 1000) {
				t.Error("RunUntil reported its predicate fired")
			}
			if got := net.Engine.Cycle(); got != 41 {
				t.Errorf("stop requested in cycle 40: RunUntil returned at cycle %d, want 41", got)
			}
		})
	}
}
