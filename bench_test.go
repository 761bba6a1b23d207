// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§III), plus the ablations called out in DESIGN.md. Each
// benchmark regenerates the figure's data and prints the same rows/series
// the paper reports (on the first iteration only, so -benchtime multipliers
// stay readable).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The absolute numbers come from this repository's simulator and energy
// model, not the authors' Synopsys/GEMS testbed; EXPERIMENTS.md records the
// paper-vs-measured comparison for every figure.
package dxbar

import (
	"fmt"
	"os"
	"testing"

	"dxbar/internal/report"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
)

// benchQ is the quality used by the figure benchmarks: the paper's load
// axis, trimmed to keep a full -bench=. run in minutes.
var benchQ = Quality{
	Warmup: 1000, Measure: 4000,
	Loads:          []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
	FaultFractions: []float64{0, 0.25, 0.5, 0.75, 1.0},
	SplashSeeds:    1,
}

const benchSeed = 42

// benchFigure times one figure generator and prints the figure it regenerates
// (on the first iteration only).
func benchFigure(b *testing.B, generate func(Quality, int64) (Figure, error)) {
	for i := 0; i < b.N; i++ {
		fig, err := generate(benchQ, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			fmt.Println()
			if err := report.WriteText(os.Stdout, fig); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkTable3AreaEnergy regenerates Table III (area and buffer energy
// per design, 65 nm / 1.0 V / 1 GHz).
func BenchmarkTable3AreaEnergy(b *testing.B) {
	var rows []Table3Row
	for i := 0; i < b.N; i++ {
		rows = Table3()
	}
	b.StopTimer()
	fmt.Printf("\n== Table III: area and buffer energy ==\n")
	for _, r := range rows {
		fmt.Printf("%-12s area=%.4f mm^2  buffer=%.1f pJ/flit\n", r.Design, r.AreaMM2, r.BufferEnergyPJ)
	}
}

// BenchmarkFig5ThroughputUR regenerates Fig. 5: accepted vs offered load
// under uniform random traffic for all six designs.
func BenchmarkFig5ThroughputUR(b *testing.B) { benchFigure(b, Figure5) }

// BenchmarkFig6EnergyUR regenerates Fig. 6: average energy per packet vs
// offered load under uniform random traffic.
func BenchmarkFig6EnergyUR(b *testing.B) { benchFigure(b, Figure6) }

// BenchmarkFig7SyntheticThroughput regenerates Fig. 7: throughput at
// offered load 0.5 across all nine synthetic patterns.
func BenchmarkFig7SyntheticThroughput(b *testing.B) { benchFigure(b, Figure7) }

// BenchmarkFig8SyntheticEnergy regenerates Fig. 8: energy at offered load
// 0.5 across all nine synthetic patterns.
func BenchmarkFig8SyntheticEnergy(b *testing.B) { benchFigure(b, Figure8) }

// BenchmarkFig9SplashTime regenerates Fig. 9: normalized execution time of
// the nine SPLASH-2 (substitute) workloads on every design.
func BenchmarkFig9SplashTime(b *testing.B) { benchFigure(b, Figure9) }

// BenchmarkFig10SplashEnergy regenerates Fig. 10: energy per packet of the
// nine SPLASH-2 (substitute) workloads on every design.
func BenchmarkFig10SplashEnergy(b *testing.B) { benchFigure(b, Figure10) }

// BenchmarkFig11FaultThroughputLatency regenerates Fig. 11: DXbar
// throughput under 0-100% crossbar faults for DOR and WF routing.
func BenchmarkFig11FaultThroughputLatency(b *testing.B) { benchFigure(b, Figure11) }

// BenchmarkFig12FaultPower regenerates Fig. 12: DXbar latency/power under
// 0-100% crossbar faults for DOR and WF routing.
func BenchmarkFig12FaultPower(b *testing.B) { benchFigure(b, Figure12) }

// BenchmarkBufferingProbability checks §III.C's observation that past
// saturation only ~1/6 of DXbar flits are buffered per router traversal.
func BenchmarkBufferingProbability(b *testing.B) {
	var prob float64
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Design: DesignDXbar, Pattern: "UR", Load: 0.8,
			WarmupCycles: benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		prob = res.BufferingProbability
	}
	b.StopTimer()
	fmt.Printf("\n== buffering probability past saturation (paper: ~1/6) ==\nmeasured: %.3f\n", prob)
}

// BenchmarkAblationFairness sweeps the fairness-counter threshold (the
// paper chose 4 after testing; DESIGN.md ablation).
func BenchmarkAblationFairness(b *testing.B) {
	thresholds := []int{1, 2, 4, 8, 16, 1 << 20}
	type row struct {
		threshold int
		accepted  float64
		maxLat    uint64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, th := range thresholds {
			res, err := Run(Config{Design: DesignDXbar, Pattern: "UR", Load: 0.45,
				FairnessThreshold: th,
				WarmupCycles:      benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{th, res.AcceptedLoad, res.MaxLatency})
		}
	}
	b.StopTimer()
	fmt.Printf("\n== ablation: fairness threshold (UR @ 0.45) ==\n")
	for _, r := range rows {
		fmt.Printf("threshold=%-8d accepted=%.4f maxLatency=%d\n", r.threshold, r.accepted, r.maxLat)
	}
}

// BenchmarkAblationBufferDepth sweeps DXbar's secondary-crossbar buffer
// depth around the paper's 4 flits.
func BenchmarkAblationBufferDepth(b *testing.B) {
	depths := []int{1, 2, 4, 8, 16}
	type row struct {
		depth    int
		accepted float64
		energy   float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range depths {
			res, err := Run(Config{Design: DesignDXbar, Pattern: "UR", Load: 0.45,
				BufferDepth:  d,
				WarmupCycles: benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{d, res.AcceptedLoad, res.AvgEnergyNJ})
		}
	}
	b.StopTimer()
	fmt.Printf("\n== ablation: DXbar buffer depth (UR @ 0.45) ==\n")
	for _, r := range rows {
		fmt.Printf("depth=%-3d accepted=%.4f energy=%.4f nJ/pkt\n", r.depth, r.accepted, r.energy)
	}
}

// BenchmarkAblationUnifiedVsDual compares the unified dual-input crossbar
// against the dual-crossbar design (paper claim: similar performance,
// smaller area, +2 pJ/flit switching energy).
func BenchmarkAblationUnifiedVsDual(b *testing.B) {
	type row struct {
		design   Design
		accepted float64
		latency  float64
		energy   float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range []Design{DesignDXbar, DesignUnified} {
			res, err := Run(Config{Design: d, Pattern: "UR", Load: 0.45,
				WarmupCycles: benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{d, res.AcceptedLoad, res.AvgLatency, res.AvgEnergyNJ})
		}
	}
	b.StopTimer()
	fmt.Printf("\n== ablation: unified vs dual crossbar (UR @ 0.45) ==\n")
	for _, r := range rows {
		fmt.Printf("%-9s accepted=%.4f latency=%.1f energy=%.4f nJ/pkt\n",
			r.design, r.accepted, r.latency, r.energy)
	}
}

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
// shards at the two larger sizes, reported as ns per node and allocations per
// network. The end-to-end judge is the benchmark's `setup_s` on `mesh64`.
func BenchmarkNewNetwork(b *testing.B) {
	type size struct{ w, h, shards int }
	sizes := []size{{8, 8, 0}, {32, 32, 0}, {64, 64, 0}, {32, 32, 2}, {64, 64, 2}}
	for _, d := range AllDesigns {
		for _, s := range sizes {
			b.Run(fmt.Sprintf("%s/%dx%d/shards%d", d, s.w, s.h, s.shards), func(b *testing.B) {
				mesh := topology.MustMesh(s.w, s.h)
				coll := stats.NewCollector(mesh.Nodes(), 0, ^uint64(0))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := NewNetwork(NetworkOptions{Design: d, Mesh: mesh, Stats: coll, Shards: s.shards}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(mesh.Nodes())), "ns/node")
			})
		}
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

// BenchmarkExtensionAFC compares the AFC extension design (network-wide
// adaptive flow control, reference [9]) against DXbar and the pure designs
// across the load axis — the comparison the paper argues for but did not
// simulate: DXbar should match AFC's bufferless energy at low load and beat
// its buffered-mode throughput at high load, without mode-switch state.
func BenchmarkExtensionAFC(b *testing.B) {
	type row struct {
		design Design
		low    Result
		high   Result
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range []Design{DesignFlitBless, DesignBuffered4, DesignAFC, DesignDXbar} {
			lo, err := Run(Config{Design: d, Pattern: "UR", Load: 0.1,
				WarmupCycles: benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			hi, err := Run(Config{Design: d, Pattern: "UR", Load: 0.45,
				WarmupCycles: benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{d, lo, hi})
		}
	}
	b.StopTimer()
	fmt.Printf("\n== extension: AFC vs DXbar (UR) ==\n")
	for _, r := range rows {
		fmt.Printf("%-10s low: E=%.3f lat=%.1f | high: acc=%.3f E=%.3f\n",
			r.design, r.low.AvgEnergyNJ, r.low.AvgLatency, r.high.AcceptedLoad, r.high.AvgEnergyNJ)
	}
}

// BenchmarkExtensionPowerBudget reproduces the paper's §I motivation with
// the extension leakage model: the generic buffered router spends ~40% of
// its total power (dynamic + static) in the input buffers, the bufferless
// designs eliminate that entirely, and DXbar keeps the buffers but uses
// them rarely.
func BenchmarkExtensionPowerBudget(b *testing.B) {
	type row struct {
		design Design
		res    Result
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range []Design{DesignBuffered4, DesignBuffered8, DesignFlitBless, DesignDXbar} {
			res, err := Run(Config{Design: d, Pattern: "UR", Load: 0.3,
				WarmupCycles: benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{d, res})
		}
	}
	b.StopTimer()
	fmt.Printf("\n== extension: total power budget at UR load 0.3 (paper §I: buffers ~40%%) ==\n")
	for _, r := range rows {
		p := r.res.Power
		fmt.Printf("%-10s total=%7.1f mW  buffers=%6.1f mW (%.0f%%)  dynamic=%7.1f  static=%6.1f\n",
			r.design, p.TotalMW, p.BufferDynamicMW+p.BufferStaticMW, p.BufferShareOfTot*100,
			p.BufferDynamicMW+p.OtherDynamicMW, p.BufferStaticMW+p.OtherStaticMW)
	}
}

// BenchmarkExtensionMeshScaling sweeps the mesh size (4x4 / 8x8 / 12x12):
// DXbar's advantage over the buffered baseline grows with network diameter
// (more hops saved per packet), while the bufferless designs saturate
// earlier on larger meshes (more chances to conflict per route).
func BenchmarkExtensionMeshScaling(b *testing.B) {
	type row struct {
		size   int
		design Design
		res    Result
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, size := range []int{4, 8, 12} {
			for _, d := range []Design{DesignFlitBless, DesignBuffered4, DesignDXbar} {
				res, err := Run(Config{Design: d, Pattern: "UR", Load: 0.3,
					Width: size, Height: size,
					WarmupCycles: benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				rows = append(rows, row{size, d, res})
			}
		}
	}
	b.StopTimer()
	fmt.Printf("\n== extension: mesh-size scaling (UR @ 0.3) ==\n")
	for _, r := range rows {
		fmt.Printf("%2dx%-2d %-10s acc=%.3f lat=%6.1f E=%.3f nJ/pkt\n",
			r.size, r.size, r.design, r.res.AcceptedLoad, r.res.AvgLatency, r.res.AvgEnergyNJ)
	}
}

// BenchmarkAblationCreditDelay sweeps the credit-return signalling latency.
// §II.A.2 notes the fairness threshold must cover the credit round trip;
// longer return paths shrink the usable buffer window and cost throughput.
func BenchmarkAblationCreditDelay(b *testing.B) {
	delays := []int{1, 2, 3, 4}
	type row struct {
		delay    int
		accepted float64
		latency  float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range delays {
			res, err := Run(Config{Design: DesignDXbar, Pattern: "UR", Load: 0.45,
				CreditDelay:  d,
				WarmupCycles: benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{d, res.AcceptedLoad, res.AvgLatency})
		}
	}
	b.StopTimer()
	fmt.Printf("\n== ablation: credit-return delay (UR @ 0.45) ==\n")
	for _, r := range rows {
		fmt.Printf("delay=%d accepted=%.4f latency=%.1f\n", r.delay, r.accepted, r.latency)
	}
}

// BenchmarkAblationArbitration compares the paper's age-based arbitration
// against static port order: age order is the mechanism that bounds worst-
// case latency (the oldest flit always wins), so the tail collapses without
// it even when mean throughput barely moves.
func BenchmarkAblationArbitration(b *testing.B) {
	type row struct {
		policy   string
		accepted float64
		avg      float64
		max      uint64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, portOrder := range []bool{false, true} {
			res, err := Run(Config{Design: DesignDXbar, Pattern: "UR", Load: 0.42,
				PortOrderArbitration: portOrder,
				WarmupCycles:         benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			name := "age-based"
			if portOrder {
				name = "port-order"
			}
			rows = append(rows, row{name, res.AcceptedLoad, res.AvgLatency, res.MaxLatency})
		}
	}
	b.StopTimer()
	fmt.Printf("\n== ablation: arbitration policy (UR @ 0.42) ==\n")
	for _, r := range rows {
		fmt.Printf("%-10s accepted=%.4f avgLat=%.1f maxLat=%d\n", r.policy, r.accepted, r.avg, r.max)
	}
}

// BenchmarkSeedVariance reports the headline Fig. 5/6 numbers as
// mean ± stddev across seeds — the noise floor every EXPERIMENTS.md
// comparison should be read against.
func BenchmarkSeedVariance(b *testing.B) {
	type row struct {
		design Design
		stats  SeedSweepResult
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range []Design{DesignFlitBless, DesignBuffered8, DesignDXbar} {
			st, err := RunSeeds(Config{Design: d, Pattern: "UR", Load: 0.45,
				WarmupCycles: benchQ.Warmup, MeasureCycles: benchQ.Measure, Seed: benchSeed}, 5)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{d, st})
		}
	}
	b.StopTimer()
	fmt.Printf("\n== seed variance at UR @ 0.45 (5 seeds) ==\n")
	for _, r := range rows {
		fmt.Printf("%-10s accepted %s | energy %s nJ/pkt\n",
			r.design, r.stats.Accepted, r.stats.EnergyNJ)
	}
}
