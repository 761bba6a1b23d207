package dxbar

import (
	"fmt"
	"runtime"
	"testing"

	"dxbar/internal/sim"
)

// TestShardZeroAllocSteadyState extends the zero-allocation guard to the
// sharded engine: entering and leaving Run (the worker scope), the staging
// slices, the tile pools and the barrier must all reuse capacity once warm.
func TestShardZeroAllocSteadyState(t *testing.T) {
	for _, d := range AllDesigns {
		t.Run(string(d), func(t *testing.T) {
			net := steadyShardedNetwork(t, d, steadyLoad(d), 4)
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
// allocation-free once warm. The network restores the sequential guard's
// warm snapshot and re-warms for 1,000 cycles, so that what only the sharded
// path owns (staging slices, tile pools) reaches its steady size before the
// measured runs.
func TestShardZeroAllocSteadyStateLargeMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("large-mesh warmups are seconds of simulated work")
	}
	for i, c := range largeMeshAllocCases {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			_, snap := warmLargeMesh(t, i)
			net := steadyMeshNetwork(t, DesignDXbar, c.w, c.h, c.load, c.shards)
			if err := net.Engine.Restore(snap); err != nil {
				t.Fatal(err)
			}
			net.Engine.Run(1000)
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
