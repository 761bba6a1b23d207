package dxbar

import (
	"fmt"

	"dxbar/internal/diag"
	"dxbar/internal/energy"
	"dxbar/internal/metrics"
	"dxbar/internal/report"
	"dxbar/internal/stats"
	"dxbar/internal/viz"
)

// Quality trades simulation length for fidelity when regenerating the
// paper's figures.
type Quality struct {
	// Warmup and Measure are the open-loop window sizes in cycles.
	Warmup, Measure uint64
	// Loads is the offered-load sweep for Figs. 5/6.
	Loads []float64
	// FaultFractions is the sweep for Figs. 11/12.
	FaultFractions []float64
	// SplashSeeds averages closed-loop runs over this many seeds.
	SplashSeeds int
}

// Quick is a CI-friendly quality (seconds per figure).
var Quick = Quality{
	Warmup: 1000, Measure: 4000,
	Loads:          []float64{0.1, 0.2, 0.3, 0.4, 0.5},
	FaultFractions: []float64{0, 0.5, 1.0},
	SplashSeeds:    1,
}

// Full matches the paper's axes (minutes per figure).
var Full = Quality{
	Warmup: 2000, Measure: 10000,
	Loads:          []float64{0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.5, 0.6, 0.7, 0.8, 0.9},
	FaultFractions: []float64{0, 0.25, 0.5, 0.75, 1.0},
	SplashSeeds:    3,
}

// Series is one labelled curve or bar group and Figure the regenerated data
// for one paper figure. They are internal/report's types, so a figure goes to
// the text/CSV/Markdown writers and the SVG renderer as it is.
type (
	Series = report.Series
	Figure = report.Figure
)

// figureDesigns are the six designs in the paper's legend order, with the
// routing algorithm each uses in Figs. 5-10.
var figureDesigns = []struct {
	Label   string
	Design  Design
	Routing string
}{
	{"Flit-Bless", DesignFlitBless, "DOR"},
	{"SCARAB", DesignSCARAB, "DOR"},
	{"Buffered 4", DesignBuffered4, "DOR"},
	{"Buffered 8", DesignBuffered8, "DOR"},
	{"DXbar DOR", DesignDXbar, "DOR"},
	{"DXbar WF", DesignDXbar, "WF"},
}

// SweepPoint is one (design, load) cell of a load sweep, carrying the full
// Result so figures, latency tables and histogram exports can all be derived
// from a single sweep instead of re-running it per consumer.
type SweepPoint struct {
	Label  string
	Load   float64
	Result Result
}

// SweepOptions is everything a batch of runs inherits from its caller that is
// not the experiment itself: how each run executes, what watches it and where
// it is archived. The zero value runs bare. It is the only way such settings
// reach the runs behind a figure — nothing is read from package state, so two
// sweeps in one process never share a logger, ledger or progress count by
// accident.
type SweepOptions struct {
	// EventTrace enables the flight recorder with that ring capacity at
	// every sweep point (Config.EventTrace). 0 leaves tracing off.
	EventTrace int
	// EventKinds restricts the recorder's kinds (Config.EventKinds).
	EventKinds []string
	// Shards parallelizes every per-node step of the cycle at every sweep
	// point (Config.Shards). Results are bit-identical either way.
	Shards int
	// Metrics attaches a shared live-telemetry registry to every sweep
	// point (Config.Metrics): counters aggregate across the whole sweep,
	// gauges reflect the currently running points. Serve it with
	// metrics.StartServer to watch the sweep live.
	Metrics *metrics.Registry
	// ShardProfile populates each point's Result.ShardProfile
	// (Config.ShardProfile).
	ShardProfile bool
	// LedgerDir archives each completed point's Result in a run ledger
	// (Config.LedgerDir); LedgerReuse serves points from identical archived
	// records instead of re-simulating (Config.LedgerReuse).
	LedgerDir   string
	LedgerReuse bool
	// Diag is the run-health monitor configuration of every sweep point
	// (Config.Diag): one logger, one set of detector thresholds. DiagDir is
	// where their post-mortem bundles go (Config.DiagDir).
	Diag    *diag.Config
	DiagDir string
	// OnRunDone, when non-nil, is called once after every completed run of
	// the batch, successful or failed — the sweep-progress source (typically
	// a closure that Add(1)s a metrics.Progress). It is called from worker
	// goroutines and must be safe for concurrent use.
	OnRunDone func()
}

// runMany is RunMany for a sweep: every config inherits the options, and
// OnRunDone fires after each run.
func (o SweepOptions) runMany(configs []Config) ([]Result, error) {
	for i := range configs {
		c := &configs[i]
		c.EventTrace, c.EventKinds = o.EventTrace, o.EventKinds
		c.Shards, c.ShardProfile = o.Shards, o.ShardProfile
		c.Metrics = o.Metrics
		c.LedgerDir, c.LedgerReuse = o.LedgerDir, o.LedgerReuse
		c.Diag, c.DiagDir = o.Diag, o.DiagDir
	}
	return runPool(configs, 0, (*runner).run, o.OnRunDone)
}

// loadSweepConfigs builds the LoadSweepOpts sweep: design-major in the
// paper's legend order, loads ascending within each design.
func loadSweepConfigs(pattern string, q Quality, seed int64) (configs []Config) {
	for _, fd := range figureDesigns {
		for _, l := range q.Loads {
			configs = append(configs, Config{
				Design: fd.Design, Routing: fd.Routing, Pattern: pattern, Load: l,
				WarmupCycles: q.Warmup, MeasureCycles: q.Measure, Seed: seed,
			})
		}
	}
	return configs
}

// LoadSweepOpts runs every figure design over the quality's load axis in
// parallel under the given synthetic pattern. Points come back design-major
// in the paper's legend order, loads ascending within each design.
func LoadSweepOpts(pattern string, q Quality, seed int64, opts SweepOptions) ([]SweepPoint, error) {
	configs := loadSweepConfigs(pattern, q, seed)
	results, err := opts.runMany(configs)
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, len(results))
	for i, res := range results {
		pts[i] = SweepPoint{Label: figureDesigns[i/len(q.Loads)].Label, Load: configs[i].Load, Result: res}
	}
	return pts, nil
}

// sweepSeries groups sweep points into per-design series of y(point).
func sweepSeries(pts []SweepPoint, y func(SweepPoint) float64) []Series {
	var order []string
	byLabel := map[string]*Series{}
	for _, p := range pts {
		s, ok := byLabel[p.Label]
		if !ok {
			order = append(order, p.Label)
			s = &Series{Label: p.Label}
			byLabel[p.Label] = s
		}
		s.X = append(s.X, p.Load)
		s.Y = append(s.Y, y(p))
	}
	series := make([]Series, len(order))
	for i, l := range order {
		series[i] = *byLabel[l]
	}
	return series
}

// Figure5From builds Fig. 5 (accepted vs offered load) from LoadSweepOpts points.
func Figure5From(pts []SweepPoint) Figure {
	return Figure{ID: "fig5", Title: "Throughput, Uniform Random",
		XLabel: "offered load (fraction of capacity)", YLabel: "accepted load",
		Series: sweepSeries(pts, func(p SweepPoint) float64 { return p.Result.AcceptedLoad })}
}

// Figure6From builds Fig. 6 (energy vs offered load) from LoadSweepOpts points.
func Figure6From(pts []SweepPoint) Figure {
	return Figure{ID: "fig6", Title: "Energy, Uniform Random",
		XLabel: "offered load (fraction of capacity)", YLabel: "average energy (nJ/packet)",
		Series: sweepSeries(pts, func(p SweepPoint) float64 { return p.Result.AvgEnergyNJ })}
}

// Figure5 regenerates "Throughput of Uniform Random traffic pattern":
// accepted vs offered load for the six designs.
func Figure5(q Quality, seed int64) (Figure, error) {
	pts, err := LoadSweepOpts("UR", q, seed, SweepOptions{})
	if err != nil {
		return Figure{}, err
	}
	return Figure5From(pts), nil
}

// patternAxis is the paper's synthetic-pattern axis for Figs. 7/8.
var patternAxis = []string{"UR", "NUR", "BR", "BF", "CP", "MT", "PS", "NB", "TOR"}

// PointCount reports how many simulation runs regenerating a figure costs at
// the given quality — the progress total for sweep drivers (each completed
// run fires SweepOptions.OnRunDone once). It is the length of the config list
// the figure's sweep builds, so it cannot drift from the sweep. Figs. 5/6,
// 7/8, 9/10 and 11/12 each share one sweep, so a pair regenerated together
// (LoadSweepOpts with Figure5From and Figure6From; Figure7And8, Figure9And10,
// Figure11And12) costs what either figure costs alone. Table 3 and unknown
// IDs cost no runs.
func PointCount(id string, q Quality) int {
	switch id {
	case "5", "6":
		return len(loadSweepConfigs("UR", q, 0))
	case "7", "8":
		return len(patternConfigs(q, 0))
	case "9", "10":
		return len(splashConfigs(q, 0))
	case "11", "12":
		return len(faultSweepConfigs(q, 0, q.Loads))
	}
	return 0
}

// patternConfigs builds the Fig. 7/8 sweep: every figure design under every
// synthetic pattern at offered load 0.5, design-major.
func patternConfigs(q Quality, seed int64) (configs []Config) {
	for _, fd := range figureDesigns {
		for _, p := range patternAxis {
			configs = append(configs, Config{
				Design: fd.Design, Routing: fd.Routing, Pattern: p, Load: 0.5,
				WarmupCycles: q.Warmup, MeasureCycles: q.Measure, Seed: seed,
			})
		}
	}
	return configs
}

// Figure7And8 regenerates Figs. 7 and 8 from one sweep: throughput and energy
// at offered load 0.5 across all nine synthetic patterns. Every run inherits
// opts.
func Figure7And8(q Quality, seed int64, opts SweepOptions) (thr, en Figure, err error) {
	thr = Figure{ID: "fig7", Title: "Throughput at offered load 0.5, all synthetic patterns",
		XLabel: "pattern", YLabel: "accepted load"}
	en = Figure{ID: "fig8", Title: "Energy at offered load 0.5, all synthetic patterns",
		XLabel: "pattern", YLabel: "average energy (nJ/packet)"}
	xs := make([]float64, len(patternAxis))
	for i := range xs {
		xs[i] = float64(i)
	}
	results, e := opts.runMany(patternConfigs(q, seed))
	if e != nil {
		return Figure{}, Figure{}, e
	}
	i := 0
	for _, fd := range figureDesigns {
		var accs, ens []float64
		for range patternAxis {
			accs = append(accs, results[i].AcceptedLoad)
			ens = append(ens, results[i].AvgEnergyNJ)
			i++
		}
		thr.Series = append(thr.Series, Series{Label: fd.Label, X: xs, Y: accs, XNames: patternAxis})
		en.Series = append(en.Series, Series{Label: fd.Label, X: xs, Y: ens, XNames: patternAxis})
	}
	return thr, en, nil
}

// Figure7 regenerates "Throughput at an offered load = 0.5 of all synthetic
// traces".
func Figure7(q Quality, seed int64) (Figure, error) {
	thr, _, err := Figure7And8(q, seed, SweepOptions{})
	return thr, err
}

// splashConfigs builds the Fig. 9/10 closed-loop matrix: design-major, then
// benchmark, then seed.
func splashConfigs(q Quality, seed int64) (configs []SplashConfig) {
	for _, fd := range figureDesigns {
		for _, b := range SplashBenchmarks() {
			for s := 0; s < q.SplashSeeds; s++ {
				configs = append(configs, SplashConfig{
					Design: fd.Design, Routing: fd.Routing, Benchmark: b, Seed: seed + int64(s),
				})
			}
		}
	}
	return configs
}

// Figure9And10 regenerates Figs. 9 and 10 from one closed-loop matrix: the
// SPLASH-2 substitute for every benchmark × design. Fig. 9 normalizes
// execution time to the Buffered 4 baseline, as the paper's "Normalized
// Execution Time" axis does. Closed-loop runs carry no observation settings
// of their own, so of opts only OnRunDone applies.
func Figure9And10(q Quality, seed int64, opts SweepOptions) (timeFig, enFig Figure, err error) {
	benches := SplashBenchmarks()
	xs := make([]float64, len(benches))
	for i := range xs {
		xs[i] = float64(i)
	}
	timeFig = Figure{ID: "fig9", Title: "Normalized execution time, SPLASH-2 traces",
		XLabel: "benchmark", YLabel: "execution time (normalized to Buffered 4)"}
	enFig = Figure{ID: "fig10", Title: "Energy, SPLASH-2 traces",
		XLabel: "benchmark", YLabel: "average energy (nJ/packet)"}

	runs, e := runPool(splashConfigs(q, seed), 0, (*runner).runSplash, opts.OnRunDone)
	if e != nil {
		return Figure{}, Figure{}, e
	}
	type cell struct{ time, energy float64 }
	results := map[string][]cell{}
	i := 0
	for _, fd := range figureDesigns {
		cells := make([]cell, len(benches))
		for bi := range benches {
			var sumT, sumE float64
			for s := 0; s < q.SplashSeeds; s++ {
				sumT += float64(runs[i].ExecutionCycles)
				sumE += runs[i].AvgEnergyNJ
				i++
			}
			cells[bi] = cell{time: sumT / float64(q.SplashSeeds), energy: sumE / float64(q.SplashSeeds)}
		}
		results[fd.Label] = cells
	}
	base, ok := results["Buffered 4"]
	if !ok {
		return Figure{}, Figure{}, fmt.Errorf("dxbar: missing Buffered 4 baseline")
	}
	for _, fd := range figureDesigns {
		cells := results[fd.Label]
		ts := make([]float64, len(benches))
		es := make([]float64, len(benches))
		for i := range cells {
			ts[i] = cells[i].time / base[i].time
			es[i] = cells[i].energy
		}
		timeFig.Series = append(timeFig.Series, Series{Label: fd.Label, X: xs, Y: ts, XNames: benches})
		enFig.Series = append(enFig.Series, Series{Label: fd.Label, X: xs, Y: es, XNames: benches})
	}
	return timeFig, enFig, nil
}

// Figure9 regenerates "Normalized time of simulation of all SPLASH-2
// traces".
func Figure9(q Quality, seed int64) (Figure, error) {
	tf, _, err := Figure9And10(q, seed, SweepOptions{})
	return tf, err
}

// FaultPoint is one cell of the Fig. 11/12 fault sweeps.
type FaultPoint struct {
	Fraction  float64
	Routing   string
	Load      float64
	Accepted  float64
	Latency   float64
	EnergyNJ  float64
	Delivered uint64
}

// faultSweepConfigs builds the FaultSweep sweep: routing algorithm, then
// fault fraction, then load.
func faultSweepConfigs(q Quality, seed int64, loads []float64) (configs []Config) {
	for _, algo := range []string{"DOR", "WF"} {
		for _, f := range q.FaultFractions {
			for _, l := range loads {
				configs = append(configs, Config{
					Design: DesignDXbar, Routing: algo, Pattern: "UR", Load: l,
					WarmupCycles: q.Warmup, MeasureCycles: q.Measure, Seed: seed,
					FaultFraction: f, FaultCycle: 10,
				})
			}
		}
	}
	return configs
}

// FaultSweep runs DXbar under uniform-random traffic with crossbar faults
// for both routing algorithms over the given fault fractions and loads
// (Figs. 11 and 12 plot slices of this data). Every run inherits opts.
func FaultSweep(q Quality, seed int64, loads []float64, opts SweepOptions) ([]FaultPoint, error) {
	if loads == nil {
		loads = q.Loads
	}
	configs := faultSweepConfigs(q, seed, loads)
	results, err := opts.runMany(configs)
	if err != nil {
		return nil, err
	}
	pts := make([]FaultPoint, len(results))
	for i, res := range results {
		c := configs[i]
		pts[i] = FaultPoint{
			Fraction: c.FaultFraction, Routing: c.Routing, Load: c.Load,
			Accepted: res.AcceptedLoad, Latency: res.AvgLatency, EnergyNJ: res.AvgEnergyNJ, Delivered: res.Packets,
		}
	}
	return pts, nil
}

// faultSeries slices fault-sweep points into one y-vs-offered-load series per
// routing algorithm × fault fraction.
func faultSeries(q Quality, pts []FaultPoint, y func(FaultPoint) float64) []Series {
	var series []Series
	for _, algo := range []string{"DOR", "WF"} {
		for _, f := range q.FaultFractions {
			var xs, ys []float64
			for _, p := range pts {
				if p.Routing == algo && p.Fraction == f {
					xs = append(xs, p.Load)
					ys = append(ys, y(p))
				}
			}
			series = append(series, Series{
				Label: fmt.Sprintf("%s faults=%.0f%%", algo, f*100), X: xs, Y: ys})
		}
	}
	return series
}

// Figure11And12 regenerates Figs. 11 and 12 from one fault sweep under opts.
func Figure11And12(q Quality, seed int64, opts SweepOptions) (thr, en Figure, err error) {
	pts, err := FaultSweep(q, seed, nil, opts)
	if err != nil {
		return Figure{}, Figure{}, err
	}
	thr = Figure{ID: "fig11", Title: "Throughput and latency under crossbar faults (DXbar, UR)",
		XLabel: "offered load (fraction of capacity)", YLabel: "accepted load",
		Series: faultSeries(q, pts, func(p FaultPoint) float64 { return p.Accepted })}
	en = Figure{ID: "fig12", Title: "Latency and power under crossbar faults (DXbar, UR)",
		XLabel: "offered load (fraction of capacity)", YLabel: "average energy (nJ/packet)",
		Series: faultSeries(q, pts, func(p FaultPoint) float64 { return p.EnergyNJ })}
	return thr, en, nil
}

// Figure11 regenerates the fault-tolerance throughput/latency plots:
// accepted load vs offered load per fault fraction, for DOR (a) and WF (b),
// plus latency (c).
func Figure11(q Quality, seed int64) (Figure, error) {
	thr, _, err := Figure11And12(q, seed, SweepOptions{})
	return thr, err
}

// Table3Row re-exports the energy model's Table III reproduction.
type Table3Row = energy.Table3Row

// Table3 returns the reproduced Table III (area and buffer energy per
// design at 65 nm / 1.0 V / 1 GHz).
func Table3() []Table3Row { return energy.Table3() }

// Heatmap renders a Result's per-node utilization as an ASCII grid
// (requires Config.TrackUtilization).
func Heatmap(r Result) string {
	if r.NodeUtilization == nil {
		return "(utilization tracking was not enabled)"
	}
	return stats.Heatmap(r.NodeUtilization, r.Width, r.Height)
}

// FigureSVG renders a regenerated figure as a standalone SVG document —
// line charts for numeric axes (Figs. 5/6/11/12), grouped bars for
// categorical axes (Figs. 7-10). The matching CSV from cmd/dxbar-sweep is
// the figure's table view.
func FigureSVG(fig Figure) string {
	chart := viz.Chart{Title: fig.Title, XLabel: fig.XLabel, YLabel: fig.YLabel, Series: fig.Series}
	for _, s := range fig.Series {
		if s.XNames != nil {
			return viz.BarSVG(chart)
		}
	}
	return viz.LineSVG(chart)
}
