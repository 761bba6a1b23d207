// Engine micro-benchmarks, each the kernel-level view of a workload of the
// repo's benchmark (`bash benchmark/run.sh`). The paper's tables and figures
// come from `dxbar-sweep -fig N`, its claims from TestPaperClaims.
package dxbar

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"dxbar/internal/stats"
	"dxbar/internal/topology"
)

const benchSeed = 42

// BenchmarkSimulatorSpeed measures raw simulation throughput
// (router-cycles per second) for the DXbar design — the number to watch
// when optimizing the engine.
func BenchmarkSimulatorSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{Design: DesignDXbar, Pattern: "UR", Load: 0.3,
			WarmupCycles: 100, MeasureCycles: 900, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
	}
	// 1000 cycles × 64 routers per iteration.
	b.ReportMetric(float64(b.N)*1000*64/b.Elapsed().Seconds(), "router-cycles/s")
}

// BenchmarkNewNetwork measures what building a network costs before it
// simulates a cycle — the set-up every restore, resume, cold ledger point and
// NewNetwork call pays: all seven designs at 8×8, 32×32 and 64×64, and on two
// shards at the two larger sizes, reported as ns per node, bytes allocated per
// node (B/node) and allocations per network. The end-to-end judges are the
// benchmark's `setup_s` and `peak_rss_mb` on `mesh64`.
func BenchmarkNewNetwork(b *testing.B) {
	type size struct{ w, h, shards int }
	sizes := []size{{8, 8, 0}, {32, 32, 0}, {64, 64, 0}, {32, 32, 2}, {64, 64, 2}}
	for _, d := range AllDesigns {
		for _, s := range sizes {
			b.Run(fmt.Sprintf("%s/%dx%d/shards%d", d, s.w, s.h, s.shards), func(b *testing.B) {
				mesh := topology.MustMesh(s.w, s.h)
				coll := stats.NewCollector(mesh.Nodes(), 0, ^uint64(0))
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < b.N; i++ {
					if _, err := NewNetwork(NetworkOptions{Design: d, Mesh: mesh, Stats: coll, Shards: s.shards}); err != nil {
						b.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				perNode := float64(b.N) * float64(mesh.Nodes())
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perNode, "ns/node")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perNode, "B/node")
			})
		}
	}
}

// BenchmarkRestoreEngine measures Engine.Restore of a 64×64 dxbar network at
// UR 0.05 from snapshots taken at cycles 1,000 and 8,000, each restored into
// a fresh network of the same shape. The snapshot stores the injector's RNG
// state, not a draw count to replay, so the two rows must agree within noise:
// restore time does not depend on the cycle. The end-to-end judge is the
// benchmark's `persist` workload (`snapshot.restore_ms`).
func BenchmarkRestoreEngine(b *testing.B) {
	mesh := topology.MustMesh(64, 64)
	build := func() *Network {
		net, err := NewNetwork(NetworkOptions{
			Design: DesignDXbar, Mesh: mesh,
			Source: bernoulliSource(b, mesh, "UR", 0.05, 1, benchSeed),
			Stats:  stats.NewCollector(mesh.Nodes(), 0, ^uint64(0)),
		})
		if err != nil {
			b.Fatal(err)
		}
		return net
	}
	src := build()
	for _, at := range []uint64{1000, 8000} {
		src.Engine.Run(at - src.Engine.Cycle())
		var buf bytes.Buffer
		if err := src.Engine.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cycle%d", at), func(b *testing.B) {
			dst := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dst.Engine.Restore(buf.Bytes()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIdleStep measures what a router with nothing to do costs the
// engine: an 8×8 network of each design with no traffic source, reported as
// ns per router-cycle. It is the number the activity-driven router phase
// (DESIGN.md §5) moves — a quiescent router costs one byte test instead of a
// Step, on every design. The end-to-end judge for idle-path changes is the
// benchmark's `splash` workload; this is the kernel-level view.
func BenchmarkIdleStep(b *testing.B) {
	const cycles = 10_000
	for _, d := range AllDesigns {
		b.Run(string(d), func(b *testing.B) {
			mesh := topology.MustMesh(8, 8)
			net, err := NewNetwork(NetworkOptions{
				Design: d, Mesh: mesh,
				Stats: stats.NewCollector(mesh.Nodes(), 0, ^uint64(0)),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Engine.Run(cycles)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*cycles*float64(mesh.Nodes())), "ns/router-cycle")
		})
	}
}

// BenchmarkBacklog measures what the injection backlog costs past
// saturation: an 8×8 flitbless network at UR 0.6 — saturated near 0.28 —
// run for 6,500 cycles, the operating point of the benchmark's `sat8`
// workload, with a fresh network per iteration built outside the timer. It
// reports the bytes the run allocates and those bytes per packet still queued
// at its source at the end (single-flit packets, so every queued flit is a
// packet). The end-to-end judge is `sat8`'s `peak_rss_mb`.
func BenchmarkBacklog(b *testing.B) {
	const cycles = 6500
	mesh := topology.MustMesh(8, 8)
	b.ReportAllocs()
	var alloc uint64
	queued := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := NewNetwork(NetworkOptions{
			Design: DesignFlitBless, Mesh: mesh,
			Source: bernoulliSource(b, mesh, "UR", 0.6, 1, benchSeed),
			Stats:  stats.NewCollector(mesh.Nodes(), 0, cycles),
		})
		if err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		net.Engine.Run(cycles)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		queued += net.Engine.QueuedFlits()
		b.StartTimer()
	}
	b.ReportMetric(float64(alloc)/float64(queued), "B/queued-packet")
}

// BenchmarkClosedLoop is the kernel-level view of the benchmark's `splash`
// workload: one RunSplash per iteration — coherence system and network built,
// run to completion — on the lightest, the heaviest and the sleepiest profile,
// reported as ns per router-cycle of the run's execution time; -benchmem adds
// the allocations of a whole run, construction included.
func BenchmarkClosedLoop(b *testing.B) {
	for _, d := range []Design{DesignDXbar, DesignBuffered4} {
		for _, bench := range []string{"LU", "Ocean", "Water"} {
			b.Run(fmt.Sprintf("%s/%s", d, bench), func(b *testing.B) {
				b.ReportAllocs()
				var cycles uint64
				for i := 0; i < b.N; i++ {
					res, err := RunSplash(SplashConfig{Design: d, Benchmark: bench, Seed: benchSeed})
					if err != nil {
						b.Fatal(err)
					}
					cycles += res.ExecutionCycles
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(cycles)*64), "ns/router-cycle")
			})
		}
	}
}

// BenchmarkShardedStep is the sequential-vs-sharded column of the operating
// point grid: dxbar under UR traffic below saturation at the two mesh sizes
// sharding is meant for, on the sequential engine and on 2 and 4 shards,
// reported as ns per router-cycle and as speed-up over the sequential row of
// the same mesh (1.00 on that row itself). Each iteration is one 500-cycle
// Engine.Run on a warmed network, so entering and leaving the worker scope is
// inside the measurement. The end-to-end judge for sharding changes is the
// benchmark's `mesh32_sharded` workload; this is the kernel-level view, and
// on a machine with fewer cores than shards the rows above its core count
// show oversubscription, not scaling.
func BenchmarkShardedStep(b *testing.B) {
	const cycles = 500
	for _, m := range []struct {
		w, h int
		load float64
	}{{32, 32, 0.1}, {64, 64, 0.05}} {
		seq := 0.0
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%dx%d/shards%d", m.w, m.h, shards), func(b *testing.B) {
				mesh := topology.MustMesh(m.w, m.h)
				net, err := NewNetwork(NetworkOptions{
					Design: DesignDXbar, Mesh: mesh,
					Source: bernoulliSource(b, mesh, "UR", m.load, 1, benchSeed),
					Stats:  stats.NewCollector(mesh.Nodes(), 0, ^uint64(0)),
					Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				net.Engine.Run(1000)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Engine.Run(cycles)
				}
				ns := float64(b.Elapsed().Nanoseconds()) / (float64(b.N) * cycles * float64(mesh.Nodes()))
				if shards == 1 {
					seq = ns
				}
				b.ReportMetric(ns, "ns/router-cycle")
				if seq > 0 {
					b.ReportMetric(seq/ns, "x-sequential")
				}
			})
		}
	}
}
