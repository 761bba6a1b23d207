package dxbar

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dxbar/internal/flit"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// rebalanceNetwork builds a network with automatic rebalancing disabled, so
// the tests control exactly when migrations happen via RebalanceShards.
func rebalanceNetwork(t *testing.T, design Design, w, h int, load float64, seed int64, shards int, src sim.Source) *Network {
	t.Helper()
	mesh := topology.MustMesh(w, h)
	if src == nil {
		pat, err := traffic.New("UR", mesh)
		if err != nil {
			t.Fatal(err)
		}
		bern, err := traffic.NewBernoulli(mesh, pat, load, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		src = &sim.SourceAdapter{B: bern}
	}
	coll := stats.NewCollector(mesh.Nodes(), 0, 1<<40)
	net, err := NewNetwork(NetworkOptions{
		Design:            design,
		Mesh:              mesh,
		Source:            src,
		Stats:             coll,
		Shards:            shards,
		RebalanceInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRebalanceBitIdentity is dynamic rebalancing's determinism contract:
// migrating boundary rows and columns between shards mid-run must leave
// results bit-identical to the sequential engine, for every design, seed and
// grid shape — the partition only decides which worker steps which node,
// never what the step computes. Migrations are forced every 100 cycles (far
// more often than the production interval) so the run crosses many distinct
// partitions, including band-row shifts on the 3×2 grid. Run with -race to
// also prove the rebuilt node lists introduce no cross-shard access.
func TestRebalanceBitIdentity(t *testing.T) {
	const cycles = 2000
	// DXbar exercises credit staging across migrated boundaries, SCARAB
	// retransmit staging (its 0.3 load sits past saturation), FlitBless pure
	// deflection.
	for _, d := range []Design{DesignDXbar, DesignSCARAB, DesignFlitBless} {
		for _, seed := range []int64{7, 42} {
			for _, shards := range []int{4, 6} {
				t.Run(fmt.Sprintf("%s/seed%d/shards%d", d, seed, shards), func(t *testing.T) {
					checkForcedRebalance(t, d, 0.3, seed, shards, cycles)
				})
			}
		}
	}
}

// TestRebalanceLockstep is the per-cycle form of TestRebalanceBitIdentity:
// with a migration forced every 100 cycles, the sharded engine's snapshot
// must equal the sequential engine's every 50 — so a boundary that moved
// while flits were on the links it cut, credits were in flight across it or
// retransmissions were parked next to it is checked on the spot.
func TestRebalanceLockstep(t *testing.T) {
	for _, d := range []Design{DesignDXbar, DesignSCARAB, DesignFlitBless, DesignBuffered4} {
		for _, shards := range []int{4, 6} {
			t.Run(fmt.Sprintf("%s/shards%d", d, shards), func(t *testing.T) {
				seq, sharded := oracleNetwork(t, d, 8, 8, 0.6, 1, false), oracleNetwork(t, d, 8, 8, 0.6, shards, false)
				forced := 0
				lockstep(t, seq, sharded, 1000, 50, func() {
					if sharded.Engine.Cycle()%100 == 0 && sharded.Engine.RebalanceShards() {
						forced++
					}
				}, nil)
				if forced == 0 {
					t.Fatal("no forced migration succeeded; the test exercised nothing")
				}
			})
		}
	}
}

// checkForcedRebalance runs the design sequentially and on the given shard
// count with a migration forced every 100 cycles, and requires identical
// results, energy counts and a consistent rebalance tally. It returns both
// networks for further assertions.
func checkForcedRebalance(t *testing.T, d Design, load float64, seed int64, shards int, cycles uint64) (seq, sharded *Network) {
	t.Helper()
	seq = rebalanceNetwork(t, d, 8, 8, load, seed, 1, nil)
	seq.Engine.Run(cycles)

	sharded = rebalanceNetwork(t, d, 8, 8, load, seed, shards, nil)
	forced := 0
	for c := uint64(0); c < cycles; c += 100 {
		sharded.Engine.Run(100)
		if sharded.Engine.RebalanceShards() {
			forced++
		}
	}
	if forced == 0 {
		t.Fatal("no forced migration succeeded; the test exercised nothing")
	}

	if !reflect.DeepEqual(seq.Stats.Results(), sharded.Stats.Results()) {
		t.Errorf("results differ from sequential after %d forced migrations\nseq:     %+v\nsharded: %+v",
			forced, seq.Stats.Results(), sharded.Stats.Results())
	}
	if seqE, shE := seq.Meter.Snapshot(), sharded.Meter.Snapshot(); !reflect.DeepEqual(seqE, shE) {
		t.Errorf("energy counts differ from sequential\nseq:     %+v\nsharded: %+v", seqE, shE)
	}
	rebalances, migrated := sharded.Engine.ShardRebalances()
	if rebalances != uint64(forced) || migrated == 0 {
		t.Errorf("ShardRebalances() = (%d, %d), want (%d, >0)", rebalances, migrated, forced)
	}
	return seq, sharded
}

// quadrantSource is the adversarial hotspot workload: only nodes in the
// top-left w/2 × h/2 quadrant inject, to destinations inside the same
// quadrant, so on a 2×2 tile grid one shard starts with essentially all the
// router work. A per-node LCG keeps it deterministic without a shared RNG.
type quadrantSource struct {
	mesh   *topology.Mesh
	prob   uint64 // inject when lcg(node,cycle) % 1000 < prob
	nextID uint64
	spec   traffic.PacketSpec
	seed   uint64
}

func (q *quadrantSource) inQuadrant(node int) bool {
	x, y := q.mesh.XY(node)
	return x < q.mesh.Width/2 && y < q.mesh.Height/2
}

func (q *quadrantSource) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	if !q.inQuadrant(node) {
		return nil
	}
	r := (uint64(node)*0x9E3779B97F4A7C15 ^ cycle*0xBF58476D1CE4E5B9 ^ q.seed) * 0x94D049BB133111EB
	if r%1000 >= q.prob {
		return nil
	}
	// Destination: another quadrant node, from the next LCG step.
	qw, qh := q.mesh.Width/2, q.mesh.Height/2
	d := (r >> 17) % uint64(qw*qh)
	dst := q.mesh.Node(int(d)%qw, int(d)/qw)
	if dst == node {
		return nil
	}
	q.spec = traffic.PacketSpec{
		ID: q.nextID, Src: node, Dst: dst, NumFlits: 1, Kind: flit.Data, Cycle: cycle,
	}
	q.nextID++
	return []*traffic.PacketSpec{&q.spec}
}

// windowImbalance runs the engine for a window of cycles and returns the
// max/mean per-shard router-phase time over just that window.
func windowImbalance(net *Network, cycles uint64) float64 {
	before := net.Engine.ShardProfiles()
	net.Engine.Run(cycles)
	after := net.Engine.ShardProfiles()
	var total, max time.Duration
	for i := range after {
		d := after[i].RouterPhase - before[i].RouterPhase
		total += d
		if d > max {
			max = d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(after)) / float64(total)
}

// TestRebalanceHotspotReducesImbalance drives the adversarial pattern: all
// traffic confined to the top-left quadrant of a 16×16 mesh over a 2×2 tile
// grid, so shard 0 starts hot. Forced rebalancing passes must migrate nodes
// out of the hot tile and reduce the window imbalance ratio. The profiler is
// wall-clock, so the thresholds are deliberately loose: the hot shard must
// shrink, and imbalance must drop at all — not hit a specific ratio.
func TestRebalanceHotspotReducesImbalance(t *testing.T) {
	mesh16 := topology.MustMesh(16, 16)
	src := &quadrantSource{mesh: mesh16, prob: 350, nextID: 1, seed: 99}
	net := rebalanceNetwork(t, DesignDXbar, 16, 16, 0, 1, 4, src)
	if got := net.Engine.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4 (2x2 grid)", got)
	}

	// Warm up, then measure the untouched partition's imbalance.
	net.Engine.Run(500)
	before := windowImbalance(net, 500)

	// Alternate measurement windows (feeding the profiler) with forced
	// rebalancing passes.
	for i := 0; i < 12; i++ {
		net.Engine.Run(200)
		net.Engine.RebalanceShards()
	}

	rebalances, migrated := net.Engine.ShardRebalances()
	if rebalances == 0 || migrated == 0 {
		t.Fatalf("no migrations happened: rebalances=%d migrated=%d", rebalances, migrated)
	}
	profs := net.Engine.ShardProfiles()
	initial := mesh16.Nodes() / 4
	if profs[0].Nodes >= initial {
		t.Errorf("hot shard still owns %d nodes, want < %d after %d migrations",
			profs[0].Nodes, initial, migrated)
	}

	after := windowImbalance(net, 500)
	if after >= before {
		t.Errorf("window imbalance did not drop: before %.2f, after %.2f (rebalances=%d, migrated=%d)",
			before, after, rebalances, migrated)
	}
	t.Logf("imbalance %.2f -> %.2f after %d migrations (%d nodes)", before, after, rebalances, migrated)
}
