package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dxbar"
	"dxbar/internal/coherence"
	"dxbar/internal/diag"
	"dxbar/internal/energy"
	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/metrics"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// Workload sizes. They are chosen so that one repeat takes about a second
// on the 2-core box this was sized on, which gives a 15-second run ten or
// more repeats to take the median over; see README.md for the measurements.
var (
	// figQuality is dxbar.Quick's axes (5 loads, 3 fault fractions) with a
	// quarter of its cycles: 114 runs x 1 250 cycles.
	figQuality = dxbar.Quality{Warmup: 250, Measure: 1000, Loads: dxbar.Quick.Loads, FaultFractions: dxbar.Quick.FaultFractions, SplashSeeds: 1}
	// figSetupQuality runs the same 114 configurations for two cycles each:
	// what is left is the facade's per-run set-up (patterns, fault plans,
	// engine Reset, monitors, result assembly).
	figSetupQuality = dxbar.Quality{Warmup: 1, Measure: 1, Loads: dxbar.Quick.Loads, FaultFractions: dxbar.Quick.FaultFractions, SplashSeeds: 1}

	steady8 = netSpec{W: 8, H: 8, Load: 0.3, Warm: 500, Cycles: 5000}
	sat8    = netSpec{W: 8, H: 8, Load: 0.6, Warm: 500, Cycles: 6000}
	mesh64  = netSpec{W: 64, H: 64, Design: dxbar.DesignDXbar, Load: 0.05, Warm: 100, Cycles: 200}
	mesh32  = netSpec{W: 32, H: 32, Design: dxbar.DesignDXbar, Load: 0.1, Shards: 2, Warm: 200, Cycles: 1000}

	persistNet     = netSpec{W: 16, H: 16, Design: dxbar.DesignDXbar, Load: 0.1, Warm: 200, Cycles: persistSnapshots * persistStep}
	persistQuality = dxbar.Quality{Warmup: 250, Measure: 1000, Loads: dxbar.Quick.Loads, SplashSeeds: 1}
)

const (
	persistSnapshots  = 20 // Snapshot -> Restore round trips, persistStep cycles apart
	persistStep       = 100
	persistWarmSweeps = 10
	persistCkptEvery  = 100
	persistCkptKeep   = 5
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	// Why is the one line on why the workload exists (BENCHMARK.json, -list).
	Why string
	// Mesh and Load describe the traffic the common probes reproduce (idle
	// engine on the same mesh, stand-alone generation at the same load).
	Mesh [2]int
	Load float64
	// Prepare computes, once per process and outside every measurement,
	// what the repeats check their outputs against.
	Prepare func(seed int64) (*precomputed, error)
	// Run is one repeat.
	Run func(r *rep)
	// Probe runs once in a traced run, after the traced repeats: extra
	// measurements that are not part of the workload. best is the fastest
	// traced repeat, for probes that report a difference or a ratio to it.
	Probe func(r, best *rep)
}

// precomputed is the per-process reference data of Prepare.
type precomputed struct {
	// splashBase is the Buffered 4 execution time of each benchmark, which
	// turns Figure 9's normalized series back into simulated cycles.
	splashBase []float64
	// persistRef is the result record of the persist network run without
	// any snapshot or restore.
	persistRef string
}

var workloads = []*workload{
	{Name: "figset", Mesh: [2]int{8, 8}, Load: 0.3, Run: runFigset, Probe: probeFigset,
		Why: "Figure5+7+11 through RunMany on 2 workers: what dxbar-sweep users wait for (engine reuse, default-on diag, result assembly, worker pool)"},
	{Name: "splash", Mesh: [2]int{8, 8}, Prepare: prepareSplash, Run: runSplash, Probe: probeSplash,
		Why: "Figure9: 54 closed-loop coherence runs to completion; bursty self-throttled load where the coherence layer does a large share"},
	{Name: "steady8", Mesh: [2]int{8, 8}, Load: 0.3, Run: runSteady8, Probe: probeObservers,
		Why: "bare 8x8 engine at UR 0.3, all 7 designs: cache-resident, arbitration- and dispatch-bound; continuity with bench/BENCH records"},
	{Name: "sat8", Mesh: [2]int{8, 8}, Load: 0.6, Run: runSat8,
		Why: "8x8 past saturation (UR 0.6): deflection, drop/NACK/retransmit, full FIFOs; the contention path steady8 bypasses"},
	{Name: "mesh64", Mesh: [2]int{64, 64}, Load: 0.05, Run: runMesh64,
		Why: "dxbar 64x64 at UR 0.05, sequential: memory-bound per-node loops and routing tables, mostly idle routers, large set-up"},
	{Name: "mesh32_sharded", Mesh: [2]int{32, 32}, Load: 0.1, Run: runMesh32, Probe: probeShardSpeedup,
		Why: "dxbar 32x32 at UR 0.1 on 2 shards: barrier, staged merge, rebalancing; the only workload a sharding change moves"},
	{Name: "persist", Mesh: [2]int{16, 16}, Load: 0.1, Prepare: preparePersist, Run: runPersist, Probe: probePersist,
		Why: "16x16 snapshot/restore, checkpointed run + resumes, ledger-warm sweeps: the tooling shell, where simulation is the minority"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// netSpec describes one bare open-loop network: what cmd/dxbar-bench builds.
type netSpec struct {
	W, H         int
	Design       dxbar.Design
	Load         float64
	Shards       int
	Warm, Cycles uint64

	// Observers, attached by the price-list probe only.
	Diag      *diag.Monitor
	Telemetry *metrics.SimTelemetry
	Events    *events.Recorder
	Sampler   bool
	// Idle builds the network without a traffic source.
	Idle bool
}

func (s netSpec) nodes() uint64 { return uint64(s.W * s.H) }

// built is a constructed network with the handles results are read from.
type built struct {
	net  *dxbar.Network
	coll *stats.Collector
	base energy.Counts // meter at the end of warm-up
}

// build constructs the network through the same constructors
// cmd/dxbar-bench uses, one span per layer. It returns nil after recording
// a failure.
func (r *rep) build(s netSpec) *built {
	var (
		mesh *topology.Mesh
		src  sim.Source
		net  *dxbar.Network
		err  error
	)
	r.span("topology.NewMesh", "", func() { mesh, err = topology.NewMesh(s.W, s.H) })
	if !r.check("topology.NewMesh", err) {
		return nil
	}
	if !s.Idle {
		r.span("traffic.NewSource", "", func() {
			var pat traffic.Pattern
			if pat, err = traffic.New("UR", mesh); err != nil {
				return
			}
			var bern *traffic.Bernoulli
			if bern, err = traffic.NewBernoulli(mesh, pat, s.Load, 1, r.seed); err == nil {
				src = &sim.SourceAdapter{B: bern}
			}
		})
		if !r.check("traffic.NewBernoulli", err) {
			return nil
		}
	}
	coll := stats.NewCollector(mesh.Nodes(), s.Warm, s.Warm+s.Cycles)
	if s.Sampler {
		coll.EnableTimeSeries(100, int((s.Warm+s.Cycles)/100)+1)
	}
	r.span("dxbar.NewNetwork", string(s.Design), func() {
		net, err = dxbar.NewNetwork(dxbar.NetworkOptions{
			Design: s.Design, Routing: "DOR", Mesh: mesh, Source: src, Stats: coll,
			Shards: s.Shards, Diag: s.Diag, Telemetry: s.Telemetry, Events: s.Events,
		})
	})
	if !r.check("dxbar.NewNetwork", err) {
		return nil
	}
	return &built{net: net, coll: coll}
}

// simulate warms the network up and runs its timed cycles; both legs are
// simulation. It returns the span of the timed leg.
func (r *rep) simulate(b *built, s netSpec) time.Duration {
	r.span("sim.warmup", string(s.Design), func() { b.net.Engine.Run(s.Warm) })
	b.base = b.net.Meter.Snapshot()
	d := r.span("sim.Engine.Run", string(s.Design), func() { b.net.Engine.Run(s.Cycles) })
	r.simulated(s.nodes(), s.Warm+s.Cycles)
	r.hops += b.window().LinkTraversals
	return d
}

// window is the energy-model event counts of the timed cycles.
func (b *built) window() energy.Counts { return b.net.Meter.Snapshot().Sub(b.base) }

// openLoop builds one bare engine per spec (set-up), then runs them one
// after the other (timed), recording each one's results in the digest under
// its design's name. It returns, per spec, the network (nil if it failed to
// build) and the span of its timed cycles.
func (r *rep) openLoop(specs ...netSpec) ([]*built, []time.Duration) {
	nets := make([]*built, len(specs))
	runs := make([]time.Duration, len(specs))
	r.setup(func() {
		for i, s := range specs {
			nets[i] = r.build(s)
		}
	})
	r.timed(func() {
		for i, s := range specs {
			r.ops++
			if nets[i] != nil {
				runs[i] = r.simulate(nets[i], s)
			}
		}
	})
	for i, s := range specs {
		b := nets[i]
		if b == nil {
			continue
		}
		r.dig[string(s.Design)] = statsRecord(b.coll.Results(), b.window())
		if s.Design == dxbar.DesignDXbar {
			r.bareStats(b, b.window())
		}
	}
	return nets, runs
}

// dxbarStats publishes the simulated statistics of the workload's dxbar run.
func (r *rep) dxbarStats(s stats.Results, hops uint64, njPerPacket float64) {
	r.val("stats.accepted_load", s.AcceptedLoad)
	r.val("stats.avg_latency_cycles", s.AvgLatency)
	r.val("stats.p99_latency_cycles", float64(s.P99Latency))
	r.val("stats.flit_hops", float64(hops))
	r.val("energy.nj_per_packet", njPerPacket)
}

// bareStats is dxbarStats for an engine driven directly, whose energy per
// packet the benchmark derives from the network's own meter.
func (r *rep) bareStats(b *built, c energy.Counts) {
	res := b.coll.Results()
	nj := 0.0
	if res.Packets > 0 {
		nj = b.net.Meter.EnergyPJ(c) / 1000 / float64(res.Packets)
	}
	r.dxbarStats(res, c.LinkTraversals, nj)
}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// --- figset ---------------------------------------------------------------

var figsetFigures = []struct {
	ID   string
	Span string
	Fn   func(dxbar.Quality, int64) (dxbar.Figure, error)
}{
	{"5", "dxbar.Figure5", dxbar.Figure5},
	{"7", "dxbar.Figure7", dxbar.Figure7},
	{"11", "dxbar.Figure11", dxbar.Figure11},
}

func runFigset(r *rep) {
	r.setup(func() {
		for _, f := range figsetFigures {
			r.span(f.Span+".setup", "", func() {
				_, err := f.Fn(figSetupQuality, r.seed)
				r.check(f.Span+" (set-up)", err)
			})
		}
	})
	r.timed(func() {
		for _, f := range figsetFigures {
			r.span(f.Span, "", func() {
				fig, err := f.Fn(figQuality, r.seed)
				runs := dxbar.PointCount(f.ID, figQuality)
				r.ops += runs
				if r.check(f.Span, err) {
					r.dig.addFigure(fig)
				}
				r.simulated(64, uint64(runs)*(figQuality.Warmup+figQuality.Measure))
			})
		}
	})
}

// paperGains are the saturation-throughput gains of DXbar DOR the paper
// quotes (and EXPERIMENTS.md records as the reference), in percent.
var paperGains = []struct {
	Over   string
	Quoted float64
}{{"Buffered 8", 20}, {"Buffered 4", 40}, {"Flit-Bless", 40}, {"SCARAB", 40}}

// paperGainErr is the mean absolute gap, in percentage points, between the
// simulated and the quoted gains; saturation throughput is the maximum
// accepted load over Figure 5's load axis.
func paperGainErr(fig dxbar.Figure) (float64, error) {
	sat := map[string]float64{}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			sat[s.Label] = math.Max(sat[s.Label], y)
		}
	}
	dx := sat["DXbar DOR"]
	if dx == 0 {
		return 0, errors.New("figure 5 has no DXbar DOR series")
	}
	var sum float64
	for _, g := range paperGains {
		if sat[g.Over] == 0 {
			return 0, fmt.Errorf("figure 5 has no %s series", g.Over)
		}
		sum += math.Abs((dx/sat[g.Over]-1)*100 - g.Quoted)
	}
	return sum / float64(len(paperGains)), nil
}

func probeFigset(r, _ *rep) {
	r.span("probe.dxbar.Figure5(Quick)", "", func() {
		fig, err := dxbar.Figure5(dxbar.Quick, r.seed)
		if !r.check("Figure5 at Quick", err) {
			return
		}
		if pp, err := paperGainErr(fig); r.check("paper gain", err) {
			r.val("dxbar.paper_gain_err_pp", pp)
		}
	})
	r.span("probe.dxbar.Run", "dxbar", func() {
		res, err := dxbar.Run(dxbar.Config{Design: dxbar.DesignDXbar, Pattern: "UR", Load: 0.3,
			WarmupCycles: figQuality.Warmup, MeasureCycles: figQuality.Measure, Seed: r.seed})
		if r.check("dxbar.Run", err) {
			r.dxbarStats(res.Results, res.EventCounts.LinkTraversals, res.AvgEnergyNJ)
		}
	})
}

// --- splash ---------------------------------------------------------------

// splashDesigns are the figure designs of Figure 9, which the facade does
// not export; the set-up probe constructs one network per design and
// benchmark, as Figure9 does internally.
var splashDesigns = []struct {
	Design  dxbar.Design
	Routing string
}{
	{dxbar.DesignFlitBless, "DOR"}, {dxbar.DesignSCARAB, "DOR"}, {dxbar.DesignBuffered4, "DOR"},
	{dxbar.DesignBuffered8, "DOR"}, {dxbar.DesignDXbar, "DOR"}, {dxbar.DesignDXbar, "WF"},
}

func prepareSplash(seed int64) (*precomputed, error) {
	pre := &precomputed{}
	for _, b := range dxbar.SplashBenchmarks() {
		res, err := dxbar.RunSplash(dxbar.SplashConfig{Design: dxbar.DesignBuffered4, Benchmark: b, Seed: seed})
		if err != nil {
			return nil, err
		}
		pre.splashBase = append(pre.splashBase, float64(res.ExecutionCycles))
	}
	return pre, nil
}

// coherenceNet builds one closed-loop network the way the facade's SPLASH
// runner does. With timeHooks the system's engine hooks go through clocks.
func (r *rep) coherenceNet(mesh *topology.Mesh, design dxbar.Design, routing, bench string, timeHooks bool) (*dxbar.Network, *coherence.System, *hookTimes) {
	prof, ok := coherence.ProfileByName(bench)
	if !ok {
		r.fail("unknown SPLASH benchmark %q", bench)
		return nil, nil, nil
	}
	sys, err := coherence.NewSystem(mesh, prof, r.seed)
	if !r.check("coherence.NewSystem", err) {
		return nil, nil, nil
	}
	opts := dxbar.NetworkOptions{
		Design: design, Routing: routing, Mesh: mesh, Source: sys, Sink: sys,
		Stats: stats.NewCollector(mesh.Nodes(), 0, math.MaxUint64), PreCycle: sys.PreCycle,
	}
	var ht *hookTimes
	if timeHooks {
		ht = &hookTimes{sys: sys}
		opts.Sink, opts.PreCycle = ht, ht.preCycle
	}
	var net *dxbar.Network
	r.span("dxbar.NewNetwork", string(design), func() { net, err = dxbar.NewNetwork(opts) })
	if !r.check("dxbar.NewNetwork", err) {
		return nil, nil, nil
	}
	return net, sys, ht
}

func runSplash(r *rep) {
	r.setup(func() {
		var mesh *topology.Mesh
		var err error
		r.span("topology.NewMesh", "", func() { mesh, err = topology.NewMesh(8, 8) })
		if !r.check("topology.NewMesh", err) {
			return
		}
		for _, d := range splashDesigns {
			for _, b := range dxbar.SplashBenchmarks() {
				r.coherenceNet(mesh, d.Design, d.Routing, b, false)
			}
		}
	})
	r.timed(func() {
		r.span("dxbar.Figure9", "", func() {
			fig, err := dxbar.Figure9(dxbar.Quick, r.seed)
			r.ops += dxbar.PointCount("9", dxbar.Quick)
			if !r.check("dxbar.Figure9", err) {
				return
			}
			r.dig.addFigure(fig)
			for _, s := range fig.Series {
				for i, y := range s.Y {
					r.simulated(64, uint64(math.Round(y*r.pre.splashBase[i])))
				}
			}
		})
	})
}

// hookTimes wraps a coherence system's engine hooks with clocks. Two clock
// reads per call are a large share of a cheap call, so the sums are upper
// bounds; they are only taken in the probe.
type hookTimes struct {
	sys               *coherence.System
	preCycleD, delivD time.Duration
}

func (h *hookTimes) preCycle(cycle uint64) {
	t0 := time.Now()
	h.sys.PreCycle(cycle)
	h.preCycleD += time.Since(t0)
}

func (h *hookTimes) Deliver(p flit.Packet, cycle uint64) {
	t0 := time.Now()
	h.sys.Deliver(p, cycle)
	h.delivD += time.Since(t0)
}

func probeSplash(r, _ *rep) {
	mesh, err := topology.NewMesh(8, 8)
	if !r.check("topology.NewMesh", err) {
		return
	}
	net, sys, ht := r.coherenceNet(mesh, dxbar.DesignDXbar, "DOR", dxbar.SplashBenchmarks()[0], true)
	if net == nil {
		return
	}
	r.span("probe.sim.Engine.RunUntil", "dxbar", func() {
		if !net.Engine.RunUntil(sys.Quiesced, 3_000_000) {
			r.fail("coherence probe did not finish")
		}
	})
	res := net.Stats.Results()
	r.val("coherence.precycle_s", ht.preCycleD.Seconds())
	r.val("coherence.deliver_s", ht.delivD.Seconds())
	r.val("coherence.messages", float64(res.Packets))
	r.val("stats.splash_exec_cycles", float64(sys.FinishCycle()))
	r.bareStats(&built{net: net, coll: net.Stats}, net.Meter.Snapshot())
}

// --- steady8 / sat8 / mesh64 / mesh32_sharded -----------------------------

func runSteady8(r *rep) {
	specs := make([]netSpec, len(steadyDesigns))
	for i, sd := range steadyDesigns {
		specs[i] = steady8
		specs[i].Design = dxbar.Design(sd.Design)
	}
	_, runs := r.openLoop(specs...)
	for i, sd := range steadyDesigns {
		r.val(sd.Layer+"."+sd.Design+".ns_per_router_cycle", nsPer(runs[i], steady8.nodes()*steady8.Cycles))
	}
}

func runSat8(r *rep) {
	specs := make([]netSpec, len(satDesigns))
	for i, name := range satDesigns {
		specs[i] = sat8
		specs[i].Design = dxbar.Design(name)
	}
	nets, runs := r.openLoop(specs...)
	for i, name := range satDesigns {
		if nets[i] == nil {
			continue
		}
		r.val(layerOfDesign(name)+"."+name+".sat_ns_per_router_cycle", nsPer(runs[i], sat8.nodes()*sat8.Cycles))
		// One flit per packet, so per-packet ratios are per-flit ratios.
		res := nets[i].coll.Results()
		switch specs[i].Design {
		case dxbar.DesignFlitBless:
			r.val("router.flitbless.deflections_per_flit", res.DeflectionsPerPacket)
		case dxbar.DesignSCARAB:
			r.val("router.scarab.retransmits_per_flit", res.RetransmitsPerPacket)
		case dxbar.DesignDXbar:
			r.val("core.dxbar.buffering_prob", res.BufferingProbability)
		}
	}
}

func runMesh64(r *rep) { r.openLoop(mesh64) }

func runMesh32(r *rep) {
	nets, _ := r.openLoop(mesh32)
	if nets[0] == nil {
		return
	}
	profs := nets[0].net.Engine.ShardProfiles()
	if len(profs) == 0 {
		return // one CPU: the engine fell back to sequential
	}
	var busyMax, busySum, waitSum time.Duration
	for _, p := range profs {
		busySum += p.RouterPhase
		waitSum += p.BarrierWait
		if p.RouterPhase > busyMax {
			busyMax = p.RouterPhase
		}
	}
	n := time.Duration(len(profs))
	r.val("sim.shard_busy_s", busyMax.Seconds())
	r.val("sim.shard_barrier_wait_s", (waitSum / n).Seconds())
	if busySum > 0 {
		r.val("sim.shard_imbalance", float64(busyMax*n)/float64(busySum))
	}
}

// probeShardSpeedup runs mesh32's configuration on the sequential engine
// and checks that sharding did not change the results.
func probeShardSpeedup(r, best *rep) {
	s := mesh32
	s.Shards = 0
	b := r.build(s)
	if b == nil {
		return
	}
	r.span("probe.sim.warmup", "sequential", func() { b.net.Engine.Run(s.Warm) })
	b.base = b.net.Meter.Snapshot()
	seq := r.span("probe.sim.Engine.Run", "sequential", func() { b.net.Engine.Run(s.Cycles) })
	if sharded := best.spanSum["sim.Engine.Run"]; sharded > 0 {
		r.val("sim.shard_speedup", float64(seq)/float64(sharded))
	}
	if statsRecord(b.coll.Results(), b.window()) != best.dig[string(s.Design)] {
		r.fail("sequential and sharded runs of the same configuration differ")
	}
}

// --- observer price list (steady8 probe) ----------------------------------

func probeObservers(r, _ *rep) {
	s := steady8
	s.Design = dxbar.DesignDXbar
	nodes := int(s.nodes())
	variants := []struct {
		Metric string
		With   func(*netSpec) func()
	}{
		{"", func(*netSpec) func() { return func() {} }},
		{"diag.ns_per_router_cycle", func(s *netSpec) func() {
			s.Diag = diag.NewMonitor(diag.Config{}, nodes)
			return s.Diag.Detach
		}},
		{"metrics.ns_per_router_cycle", func(s *netSpec) func() {
			s.Telemetry = metrics.NewSimTelemetry(metrics.NewRegistry(), metrics.SimTelemetryOptions{LatencyBounds: stats.LatencyBucketUppers()})
			return s.Telemetry.Detach
		}},
		{"events.ns_per_router_cycle", func(s *netSpec) func() {
			s.Events = events.NewRecorder(nodes, 4096)
			return func() {}
		}},
		{"stats.sampler_ns_per_router_cycle", func(s *netSpec) func() {
			s.Sampler = true
			return func() {}
		}},
	}
	const rounds = 5
	times := make([][]float64, len(variants))
	for round := 0; round < rounds; round++ {
		for i, v := range variants {
			vs := s
			done := v.With(&vs)
			b := r.build(vs)
			if b == nil {
				return
			}
			b.net.Engine.Run(vs.Warm)
			d := r.span("probe.sim.Engine.Run", "observer:"+v.Metric, func() { b.net.Engine.Run(vs.Cycles) })
			done()
			times[i] = append(times[i], nsPer(d, vs.nodes()*vs.Cycles))
		}
	}
	bare := summarize(times[0])
	spread := bare.Q3 - bare.Min
	fmt.Printf("  observer price list (dxbar 8x8, %d rounds): bare %.1f ns/router-cycle, spread %.1f\n", rounds, bare.Min, spread)
	for i, v := range variants[1:] {
		delta := summarize(times[i+1]).Min - bare.Min
		note := ""
		if math.Abs(delta) <= spread {
			note = "  (unresolved: inside the bare run's spread)"
		}
		fmt.Printf("    %-36s %+7.1f ns%s\n", v.Metric, delta, note)
		r.val(v.Metric, delta)
	}
}

// --- persist --------------------------------------------------------------

func persistConfig(r *rep) dxbar.Config {
	return dxbar.Config{
		Design: dxbar.DesignDXbar, Width: 16, Height: 16, Pattern: "UR", Load: 0.1,
		WarmupCycles: 500, MeasureCycles: 1500, Seed: r.seed,
	}
}

func preparePersist(seed int64) (*precomputed, error) {
	r := newRep(seed, nil, "", nil)
	b := r.build(persistNet)
	if b == nil {
		return nil, errors.New("persist reference network failed to build")
	}
	r.simulate(b, persistNet)
	return &precomputed{persistRef: statsRecord(b.coll.Results(), b.window())}, nil
}

func sweepDigest(pts []dxbar.SweepPoint) string {
	d := digest{}
	for _, p := range pts {
		d[fmt.Sprintf("%s@%g", p.Label, p.Load)] = resultRecord(p.Result)
	}
	return d.sum()
}

func runPersist(r *rep) {
	defer os.RemoveAll(r.dir)
	ledgerDir := filepath.Join(r.dir, "ledger")
	sweepOpts := dxbar.SweepOptions{LedgerDir: ledgerDir, LedgerReuse: true}
	var (
		b    *built
		cold []dxbar.SweepPoint
	)
	r.setup(func() {
		b = r.build(persistNet)
		r.span("dxbar.LoadSweepOpts(cold)", "", func() {
			var err error
			cold, err = dxbar.LoadSweepOpts("UR", persistQuality, r.seed, sweepOpts)
			r.check("cold ledger sweep", err)
		})
	})
	if b == nil || cold == nil {
		return
	}
	r.dig.add("sweep", sweepDigest(cold))
	r.timed(func() {
		r.persistRoundTrips(b)
		r.persistCheckpoints(filepath.Join(r.dir, "ckpt"))
		r.persistLedger(ledgerDir, sweepOpts, cold)
	})
	r.val("snapshot.write_ms", r.spanSum["sim.Engine.Snapshot"].Seconds()*1e3/persistSnapshots)
	r.val("snapshot.restore_ms", r.spanSum["sim.Engine.Restore"].Seconds()*1e3/persistSnapshots)
}

// persistRoundTrips is part (a): snapshot -> restore round trips. Restore
// wants a freshly built engine, so every round trip builds one, as a
// resuming user does. The run they interrupt must end as the uninterrupted
// reference did.
func (r *rep) persistRoundTrips(b *built) {
	s := persistNet
	r.span("sim.warmup", "dxbar", func() { b.net.Engine.Run(s.Warm) })
	base := b.net.Meter.Snapshot()
	var buf bytes.Buffer
	for i := 0; i < persistSnapshots; i++ {
		buf.Reset()
		r.ops += 2
		var err error
		r.span("sim.Engine.Snapshot", "", func() { err = b.net.Engine.Snapshot(&buf) })
		if !r.check("Engine.Snapshot", err) {
			return
		}
		if b = r.build(s); b == nil {
			return
		}
		r.span("sim.Engine.Restore", "", func() { err = b.net.Engine.Restore(buf.Bytes()) })
		if !r.check("Engine.Restore", err) {
			return
		}
		r.span("sim.Engine.Run", "dxbar", func() { b.net.Engine.Run(persistStep) })
	}
	b.base = base
	r.simulated(s.nodes(), s.Warm+s.Cycles)
	r.hops += b.window().LinkTraversals
	r.val("snapshot.bytes", float64(buf.Len()))
	got := statsRecord(b.coll.Results(), b.window())
	if got != r.pre.persistRef {
		r.fail("run interleaved with %d restores differs from the uninterrupted run", persistSnapshots)
	}
	r.dig.add("restored", got)
}

// persistCheckpoints is part (b): a checkpointed run, then a resume from
// every kept checkpoint, each of which must reproduce the run's result.
func (r *rep) persistCheckpoints(dir string) {
	cfg := persistConfig(r)
	cfg.CheckpointInterval, cfg.CheckpointDir, cfg.CheckpointKeep = persistCkptEvery, dir, persistCkptKeep
	nodes := uint64(cfg.Width * cfg.Height)
	total := cfg.WarmupCycles + cfg.MeasureCycles
	var res dxbar.Result
	var err error
	r.ops++
	r.span("dxbar.Run(checkpointed)", "", func() { res, err = dxbar.Run(cfg) })
	if !r.check("checkpointed Run", err) {
		return
	}
	if res.Anomalies != nil {
		r.fail("checkpointed run below saturation reported %d anomalies", len(res.Anomalies))
	}
	r.simulated(nodes, total)
	want := resultRecord(res)
	r.dig.add("checkpointed", want)
	r.dxbarStats(res.Results, res.EventCounts.LinkTraversals, res.AvgEnergyNJ)

	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.dxsn"))
	r.check("listing checkpoints", err)
	sort.Strings(paths)
	if len(paths) != persistCkptKeep {
		r.fail("%d checkpoint files kept, want %d", len(paths), persistCkptKeep)
		return
	}
	if latest, err := dxbar.LatestCheckpoint(dir); err != nil || latest != paths[len(paths)-1] {
		r.fail("LatestCheckpoint = %q, %v; want %q", latest, err, paths[len(paths)-1])
	}
	for _, p := range paths {
		r.ops += 2
		var ck *dxbar.Checkpoint
		r.span("dxbar.LoadCheckpoint", "", func() { ck, err = dxbar.LoadCheckpoint(p) })
		if !r.check("LoadCheckpoint", err) {
			continue
		}
		var resumed dxbar.Result
		d := r.span("dxbar.Resume", "", func() { resumed, err = dxbar.Resume(p) })
		if !r.check("Resume", err) {
			continue
		}
		if resultRecord(resumed) != want {
			r.fail("resume from cycle %d differs from the uninterrupted run", ck.Cycle)
		}
		r.simulated(nodes, total-ck.Cycle)
		if ck.Cycle == total {
			r.val("dxbar.resume_ms", d.Seconds()*1e3)
		}
	}
}

// persistLedger is part (c): ledger-served replays of the cold sweep, then
// the ledger API on each of its points.
func (r *rep) persistLedger(dir string, opts dxbar.SweepOptions, cold []dxbar.SweepPoint) {
	coldDigest := sweepDigest(cold)
	var warm time.Duration
	for i := 0; i < persistWarmSweeps; i++ {
		r.ops += len(cold)
		var pts []dxbar.SweepPoint
		var err error
		warm += r.span("dxbar.LoadSweepOpts(warm)", "", func() {
			pts, err = dxbar.LoadSweepOpts("UR", persistQuality, r.seed, opts)
		})
		if r.check("warm ledger sweep", err) && sweepDigest(pts) != coldDigest {
			r.fail("ledger-served sweep differs from the simulated one")
		}
	}
	r.val("dxbar.ledger_warm_sweep_s", warm.Seconds()/persistWarmSweeps)

	led, err := dxbar.OpenLedger(dir)
	if !r.check("OpenLedger", err) {
		return
	}
	var keyD, lookD time.Duration
	for _, p := range cold {
		r.ops++
		pc := dxbar.Config{Design: p.Result.Design, Routing: p.Result.Routing, Pattern: "UR", Load: p.Load,
			WarmupCycles: persistQuality.Warmup, MeasureCycles: persistQuality.Measure, Seed: r.seed}
		var key string
		keyD += r.span("dxbar.LedgerKey", "", func() { key, err = dxbar.LedgerKey(pc) })
		if !r.check("LedgerKey", err) {
			continue
		}
		var got dxbar.Result
		found := false
		lookD += r.span("dxbar.Ledger.Lookup", "", func() {
			var rec *dxbar.LedgerRecord
			if rec, found = led.Lookup(key); found {
				got, err = dxbar.LedgerResult(rec)
			}
		})
		if !found || err != nil {
			r.fail("ledger lookup of %s@%g: found=%v err=%v", p.Label, p.Load, found, err)
			continue
		}
		if resultRecord(got) != resultRecord(p.Result) {
			r.fail("ledger record of %s@%g differs from the simulated result", p.Label, p.Load)
		}
		if fi, err := os.Stat(led.Path(key)); err == nil {
			r.val("runstore.record_bytes", float64(fi.Size()))
		}
	}
	n := float64(len(cold))
	r.val("dxbar.ledger_key_us", keyD.Seconds()*1e6/n)
	r.val("runstore.lookup_ms", lookD.Seconds()*1e3/n)
}

// probePersist times the checkpointed run's configuration without
// checkpoints; the difference is what checkpointing costs a run.
func probePersist(r, best *rep) {
	plain := r.span("probe.dxbar.Run(plain)", "", func() {
		_, err := dxbar.Run(persistConfig(r))
		r.check("plain Run", err)
	})
	r.val("dxbar.checkpoint_run_overhead_s", (best.spanSum["dxbar.Run(checkpointed)"] - plain).Seconds())
}

// --- probes common to every workload --------------------------------------

// probeCommon measures, on the workload's mesh and at its load, what an
// idle engine costs per router-cycle and what traffic generation alone
// costs per node-cycle.
func probeCommon(r *rep, w *workload) {
	idle := netSpec{W: w.Mesh[0], H: w.Mesh[1], Design: dxbar.DesignDXbar, Idle: true}
	idle.Cycles = 2_000_000 / idle.nodes()
	if b := r.build(idle); b != nil {
		d := r.span("probe.sim.Engine.Run", "idle", func() { b.net.Engine.Run(idle.Cycles) })
		r.val("sim.idle_ns_per_router_cycle", nsPer(d, idle.nodes()*idle.Cycles))
	}
	if w.Load == 0 {
		return // closed loop: the coherence system generates the traffic
	}
	mesh, err := topology.NewMesh(w.Mesh[0], w.Mesh[1])
	if !r.check("topology.NewMesh", err) {
		return
	}
	pat, err := traffic.New("UR", mesh)
	if !r.check("traffic.New", err) {
		return
	}
	bern, err := traffic.NewBernoulli(mesh, pat, w.Load, 1, r.seed)
	if !r.check("traffic.NewBernoulli", err) {
		return
	}
	var src sim.Source = &sim.SourceAdapter{B: bern}
	nodes := mesh.Nodes()
	cycles := uint64(2_000_000 / nodes)
	packets := 0
	d := r.span("probe.traffic.Generate", "", func() {
		for c := uint64(0); c < cycles; c++ {
			for n := 0; n < nodes; n++ {
				packets += len(src.Generate(n, c))
			}
		}
	})
	r.val("traffic.generate_ns_per_node_cycle", nsPer(d, uint64(nodes)*cycles))
	r.val("traffic.packets", float64(packets))
}
