package coherence

import (
	"testing"

	"dxbar/internal/router"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
)

// BenchmarkWorkloadCycles measures coherence-substrate simulation speed
// (workload cycles per second on a 4x4 mesh).
func BenchmarkWorkloadCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mesh := topology.MustMesh(4, 4)
		prof := Profile{
			Name: "bench", OpsPerProc: 200, L1Hit: 0.7, L2Hit: 0.5,
			Share: 0.5, Write: 0.3, ComputeGap: 3, Writeback: 0.3,
			SharedBlocks: 256, PrivateBlocksPerTile: 64,
		}
		sys, err := NewSystem(mesh, prof, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		coll := stats.NewCollector(mesh.Nodes(), 0, 10_000_000)
		algo := routing.DOR{}
		eng, err := sim.New(sim.Config{
			Mesh: mesh, Stats: coll,
			Source: sys, Sink: sys, BufferDepth: 4, PreCycle: sys.PreCycle,
		}, func(env *sim.Env) sim.Router { return router.NewBuffered(env, algo, false) })
		if err != nil {
			b.Fatal(err)
		}
		if !eng.RunUntil(sys.Quiesced, 1_000_000) {
			b.Fatal("workload did not finish")
		}
	}
}
