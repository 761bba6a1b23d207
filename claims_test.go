package dxbar

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The paper's claims as one checked table. Every row names a section of
// EXPERIMENTS.md (Table III, Figs. 5-12, §III.C and the extensions beyond the
// paper), states the claim with its quoted value or ordering and the
// tolerance it is held to, and extracts the measured text and a verdict from
// one of two sources, each built once per test process:
//
//   - the quick figures: exactly what `dxbar-sweep -fig all -quality quick
//     -seed 42` prints;
//   - the row's own runs: the Config and SplashConfig values it declares. One
//     scenario pass simulates the distinct union of every row's runs, and a
//     row reads its results in the order it declared them.
//
// TestPaperClaims renders each section's rows between its
// <!-- claims:<section> --> markers in EXPERIMENTS.md and fails on any byte of
// difference; DXBAR_UPDATE_GOLDEN=1 rewrites the blocks instead. A row with a
// guard is also required to hold (✓) by the one-line test of that name.
// BenchmarkPaperClaimsSeeds evaluates every row at five seeds.

type verdict string

const (
	pass    verdict = "✓"
	partial verdict = "partial"
	fail    verdict = "✗"
)

// holds is the verdict of a claim that either holds or does not.
func holds(ok bool) verdict {
	if ok {
		return pass
	}
	return fail
}

// graded is the verdict of a claim that holds in full, holds only in its
// ordering (or on part of its axis), or not at all.
func graded(full, weaker bool) verdict {
	switch {
	case full:
		return pass
	case weaker:
		return partial
	}
	return fail
}

// outOf is the verdict of a claim made for every one of n cases: ✓ on all n,
// partial on a majority.
func outOf(k, n int) verdict { return graded(k == n, 2*k > n) }

type paperClaim struct {
	id      string // the subtest: TestPaperClaims/<id>
	section string // the EXPERIMENTS.md block the row renders into
	guard   string // the test that requires this row to be ✓, if any
	claim   string // the paper's claim and its quoted value or ordering
	tol     string // the tolerance the verdict applies
	// Exactly one extractor is set: fig reads the quick figures, run the
	// results of the runs it declares.
	fig func(*quickFigures) (string, verdict)
	run *claimRuns
}

// claimRuns is a row's runs and the extractor reading their results, in the
// order the runs are listed.
type claimRuns struct {
	runs   []Config
	splash []SplashConfig
	read   func([]Result, []SplashResult) (string, verdict)
}

func on(runs []Config, read func([]Result) (string, verdict)) *claimRuns {
	return &claimRuns{runs: runs, read: func(r []Result, _ []SplashResult) (string, verdict) { return read(r) }}
}

func onSplash(splash []SplashConfig, read func([]SplashResult) (string, verdict)) *claimRuns {
	return &claimRuns{splash: splash, read: func(_ []Result, s []SplashResult) (string, verdict) { return read(s) }}
}

// evalAt evaluates the row at seed offset k: on the quick figures at seed
// 42+k, or on the results of its runs with k added to their seeds.
func (c paperClaim) evalAt(k int64, f *quickFigures, s *scenarioResults) (string, verdict) {
	if c.fig != nil {
		return c.fig(f)
	}
	r := make([]Result, len(c.run.runs))
	for i, cfg := range c.run.runs {
		cfg.Seed += k
		r[i] = s.runs[runKey(cfg)]
	}
	sr := make([]SplashResult, len(c.run.splash))
	for i, cfg := range c.run.splash {
		cfg.Seed += k
		sr[i] = s.splash[cfg]
	}
	return c.run.read(r, sr)
}

// eval evaluates the row at seed 42, building only the source it reads.
func (c paperClaim) eval(t *testing.T) (string, verdict) {
	t.Helper()
	if c.fig != nil {
		f, err := claimFigures()
		if err != nil {
			t.Fatal(err)
		}
		return c.fig(f)
	}
	s, err := claimScenarios()
	if err != nil {
		t.Fatal(err)
	}
	return c.evalAt(0, nil, s)
}

// quickFigures is the output of `dxbar-sweep -fig all -quality quick -seed N`.
type quickFigures struct {
	table3                                            []Table3Row
	fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12 Figure
}

func quickFiguresAt(seed int64) (*quickFigures, error) {
	f := &quickFigures{table3: Table3()}
	pts, err := LoadSweepOpts("UR", Quick, seed, SweepOptions{})
	if err != nil {
		return nil, err
	}
	f.fig5, f.fig6 = Figure5From(pts), Figure6From(pts)
	if f.fig7, f.fig8, err = Figure7And8(Quick, seed, SweepOptions{}); err != nil {
		return nil, err
	}
	if f.fig9, f.fig10, err = Figure9And10(Quick, seed, SweepOptions{}); err != nil {
		return nil, err
	}
	if f.fig11, f.fig12, err = Figure11And12(Quick, seed, SweepOptions{}); err != nil {
		return nil, err
	}
	return f, nil
}

var claimFigures = sync.OnceValues(func() (*quickFigures, error) { return quickFiguresAt(42) })

// scenarioResults holds the result of every distinct run the rows declare;
// ran is each one's key (runKey or splashKey), once, in declaration order.
type scenarioResults struct {
	runs   map[string]Result
	splash map[SplashConfig]SplashResult
	ran    []string
}

// runKey identifies a run: configs equal once defaulted are one run.
func runKey(c Config) string          { return fmt.Sprintf("%+v", c.withDefaults()) }
func splashKey(c SplashConfig) string { return fmt.Sprintf("splash %+v", c) }

// scenariosAt simulates, once each, the distinct runs of every row with k
// added to their seeds.
func scenariosAt(k int64) (*scenarioResults, error) {
	s := &scenarioResults{runs: map[string]Result{}, splash: map[SplashConfig]SplashResult{}}
	var cfgs []Config
	var splash []SplashConfig
	seen := map[string]bool{}
	for _, c := range paperClaims {
		if c.run == nil {
			continue
		}
		for _, cfg := range c.run.runs {
			cfg.Seed += k
			if key := runKey(cfg); !seen[key] {
				seen[key], s.ran, cfgs = true, append(s.ran, key), append(cfgs, cfg)
			}
		}
		for _, cfg := range c.run.splash {
			cfg.Seed += k
			if key := splashKey(cfg); !seen[key] {
				seen[key], s.ran, splash = true, append(s.ran, key), append(splash, cfg)
			}
		}
	}
	results, err := RunMany(cfgs, 0)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		s.runs[runKey(cfgs[i])] = r
	}
	splashResults, err := RunManySplash(splash, 0)
	for i, r := range splashResults {
		s.splash[splash[i]] = r
	}
	return s, err
}

var claimScenarios = sync.OnceValues(func() (*scenarioResults, error) { return scenariosAt(0) })

// claimRun is the rows' operating point: 8×8 uniform random at load, 1,000 +
// 4,000 cycles, seed 42.
func claimRun(d Design, load float64) Config {
	return Config{Design: d, Routing: "DOR", Pattern: "UR", Load: load, WarmupCycles: 1000, MeasureCycles: 4000, Seed: 42}
}

// urRuns is claimRun for each design.
func urRuns(load float64, designs ...Design) (cfgs []Config) {
	for _, d := range designs {
		cfgs = append(cfgs, claimRun(d, load))
	}
	return cfgs
}

// variants is base once per value, with set applying the value.
func variants[V any](base Config, vals []V, set func(*Config, V)) (cfgs []Config) {
	for _, v := range vals {
		c := base
		set(&c, v)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// zeroLoad is the zero-load energy pair's run: UR 0.05, 500 + 2,000 cycles.
func zeroLoad(d Design) Config {
	return Config{Design: d, Pattern: "UR", Load: 0.05, WarmupCycles: 500, MeasureCycles: 2000, Seed: 42}
}

// faulted is the headline fault run: DXbar at UR 0.35, 1,000 + 4,000 cycles,
// faults manifesting at cycle 10.
func faulted(routing string, fraction float64, granularity string) Config {
	return Config{Design: DesignDXbar, Routing: routing, Pattern: "UR", Load: 0.35,
		WarmupCycles: 1000, MeasureCycles: 4000, Seed: 42,
		FaultFraction: fraction, FaultCycle: 10, FaultGranularity: granularity}
}

// ocean is Ocean at seed 11 on each design.
func ocean(detailed bool, designs ...Design) (cfgs []SplashConfig) {
	for _, d := range designs {
		cfgs = append(cfgs, SplashConfig{Design: d, Benchmark: "Ocean", Seed: 11, DetailedCaches: detailed})
	}
	return cfgs
}

// The §III.C sweeps, each around the paper's choice.
var (
	fairnessThresholds = []int{1, 2, 4, 8, 16, 1 << 20}
	fairnessLabels     = []string{"1", "2", "4", "8", "16", "2²⁰"}
	bufferDepths       = []int{1, 2, 4, 8, 16}
	creditDelays       = []int{1, 2, 3, 4}
)

// meshRuns is each design at UR 0.3 on each mesh side, side-major.
func meshRuns(designs ...Design) (cfgs []Config) {
	for _, n := range []int{4, 8, 12} {
		for _, c := range urRuns(0.3, designs...) {
			c.Width, c.Height = n, n
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// seedNoiseRuns is design at UR 0.45 over seeds 7–10, 800 + 3,000 cycles.
func seedNoiseRuns(d Design) []Config {
	base := Config{Design: d, Pattern: "UR", Load: 0.45, WarmupCycles: 800, MeasureCycles: 3000}
	return variants(base, []int64{7, 8, 9, 10}, func(c *Config, s int64) { c.Seed = s })
}

// sweepText renders one value per swept setting: "label → value, …".
func sweepText[L any](labels []L, r []Result, value func(Result) string) string {
	parts := make([]string, len(r))
	for i, x := range r {
		parts[i] = fmt.Sprint(labels[i]) + " → " + value(x)
	}
	return strings.Join(parts, ", ")
}

func accepted(x Result) string { return fmt.Sprintf("%.3f", x.AcceptedLoad) }

// bestAccepted is the highest accepted load among r.
func bestAccepted(r []Result) float64 {
	best := 0.0
	for _, x := range r {
		best = math.Max(best, x.AcceptedLoad)
	}
	return best
}

// meanStd is the mean and sample standard deviation of xs.
func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)-1))
}

// ys is a figure series' values (nil for a missing label, which renders as
// zeros and fails its rows).
func ys(f Figure, label string) []float64 {
	for _, s := range f.Series {
		if s.Label == label {
			return s.Y
		}
	}
	return nil
}

// peak is a series' maximum over the figure's axis: saturation throughput on
// a load sweep.
func peak(f Figure, label string) float64 {
	m := 0.0
	for _, y := range ys(f, label) {
		m = math.Max(m, y)
	}
	return m
}

// at is a series' value at x (a load or fault-sweep figure) or at the
// categorical position named x (a pattern or benchmark figure).
func at(f Figure, label string, x any) float64 {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for i := range s.Y {
			if (s.XNames != nil && s.XNames[i] == x) || (s.XNames == nil && s.X[i] == x) {
				return s.Y[i]
			}
		}
	}
	return 0
}

func names(f Figure) []string { return f.Series[0].XNames }

// gain is a's advantage over b in percent.
func gain(a, b float64) float64 { return (a/b - 1) * 100 }

// table3 looks a Table III row up by design name.
func table3(f *quickFigures, d Design) Table3Row {
	for _, r := range f.table3 {
		if r.Design == string(d) {
			return r
		}
	}
	return Table3Row{}
}

// paperGains are the saturation-throughput gains of DXbar DOR the paper
// quotes over each baseline (§III.C), in percent — the reference of the
// benchmark's dxbar.paper_gain_err_pp.
var paperGains = []struct {
	id, label string
	quoted    float64
}{{"buffered8", "Buffered 8", 20}, {"buffered4", "Buffered 4", 40}, {"flitbless", "Flit-Bless", 40}, {"scarab", "SCARAB", 40}}

const gainTolPP = 5

func gainClaims() (rows []paperClaim) {
	for _, g := range paperGains {
		rows = append(rows, paperClaim{
			id: "fig5-gain-" + g.id, section: "fig5",
			claim: fmt.Sprintf("DXbar-DOR saturates ≥ +%.0f %% above %s", g.quoted, g.label),
			tol:   fmt.Sprintf("≥ quote − %d pp; partial if only > 0", gainTolPP),
			fig: func(f *quickFigures) (string, verdict) {
				dx, base := peak(f.fig5, "DXbar DOR"), peak(f.fig5, g.label)
				pct := gain(dx, base)
				return fmt.Sprintf("%+.1f %% (%.3f vs %.3f)", pct, dx, base), graded(pct >= g.quoted-gainTolPP, pct > 0)
			},
		})
	}
	return rows
}

var paperClaims = concatClaims(
	[]paperClaim{
		{id: "table3-dxbar-area", section: "table3",
			claim: "DXbar router area +33 % over Flit-Bless", tol: "±2 pp",
			fig: func(f *quickFigures) (string, verdict) {
				dx, fb := table3(f, DesignDXbar).AreaMM2, table3(f, DesignFlitBless).AreaMM2
				return fmt.Sprintf("%.4f vs %.4f mm² = %+.1f %%", dx, fb, gain(dx, fb)), holds(math.Abs(gain(dx, fb)-33) <= 2)
			}},
		{id: "table3-unified-area", section: "table3",
			claim: "unified router area +25 % over Flit-Bless", tol: "±2 pp",
			fig: func(f *quickFigures) (string, verdict) {
				un, fb := table3(f, DesignUnified).AreaMM2, table3(f, DesignFlitBless).AreaMM2
				return fmt.Sprintf("%.4f vs %.4f mm² = %+.1f %%", un, fb, gain(un, fb)), holds(math.Abs(gain(un, fb)-25) <= 2)
			}},
		{id: "table3-dxbar-between", section: "table3",
			claim: "DXbar area between Buffered 4 and Buffered 8", tol: "strict",
			fig: func(f *quickFigures) (string, verdict) {
				b4, dx, b8 := table3(f, DesignBuffered4).AreaMM2, table3(f, DesignDXbar).AreaMM2, table3(f, DesignBuffered8).AreaMM2
				return fmt.Sprintf("%.4f < %.4f < %.4f mm²", b4, dx, b8), holds(b4 < dx && dx < b8)
			}},
		{id: "table3-unified-smaller", section: "table3",
			claim: "unified (one crossbar) smaller than DXbar (two)", tol: "strict",
			fig: func(f *quickFigures) (string, verdict) {
				un, dx := table3(f, DesignUnified).AreaMM2, table3(f, DesignDXbar).AreaMM2
				return fmt.Sprintf("%.4f < %.4f mm²", un, dx), holds(un < dx)
			}},
		{id: "table3-scarab-area", section: "table3",
			claim: "SCARAB at least Flit-Bless's area (its NACK network)", tol: "≥",
			fig: func(f *quickFigures) (string, verdict) {
				sc, fb := table3(f, DesignSCARAB).AreaMM2, table3(f, DesignFlitBless).AreaMM2
				return fmt.Sprintf("%.4f ≥ %.4f mm²", sc, fb), holds(sc >= fb)
			}},
		{id: "table3-bufferless-energy", section: "table3",
			claim: "bufferless designs spend no buffer energy", tol: "exactly 0",
			fig: func(f *quickFigures) (string, verdict) {
				fb, sc := table3(f, DesignFlitBless).BufferEnergyPJ, table3(f, DesignSCARAB).BufferEnergyPJ
				return fmt.Sprintf("Flit-Bless %.0f, SCARAB %.0f pJ/flit", fb, sc), holds(fb == 0 && sc == 0)
			}},
		{id: "table3-buffered8-access", section: "table3",
			claim: "Buffered 8's organization costs more per access than the 4-flit FIFOs", tol: "strict",
			fig: func(f *quickFigures) (string, verdict) {
				b8 := table3(f, DesignBuffered8).BufferEnergyPJ
				b4, dx, un := table3(f, DesignBuffered4).BufferEnergyPJ, table3(f, DesignDXbar).BufferEnergyPJ, table3(f, DesignUnified).BufferEnergyPJ
				return fmt.Sprintf("%.0f vs Buffered 4 %.0f, DXbar %.0f, unified %.0f pJ/flit", b8, b4, dx, un), holds(b8 > b4 && b8 > dx && b8 > un)
			}},

		{id: "fig5-dxbar-saturation", section: "fig5",
			claim: "DXbar-DOR saturates above 0.4 of capacity", tol: "max over the load axis ≥ 0.38",
			fig: func(f *quickFigures) (string, verdict) {
				dx := peak(f.fig5, "DXbar DOR")
				return fmt.Sprintf("%.3f", dx), holds(dx >= 0.38)
			}},
		{id: "fig5-bufferless-saturation", section: "fig5",
			claim: "Flit-Bless and SCARAB saturate below 0.3", tol: "max over the load axis ≤ 0.31 each",
			fig: func(f *quickFigures) (string, verdict) {
				fb, sc := peak(f.fig5, "Flit-Bless"), peak(f.fig5, "SCARAB")
				return fmt.Sprintf("%.3f / %.3f", fb, sc), holds(fb <= 0.31 && sc <= 0.31)
			}},
	},
	gainClaims(),
	[]paperClaim{
		{id: "fig5-gain-mean-gap", section: "fig5",
			claim: "mean absolute gap between the four gains above and their quotes (`dxbar.paper_gain_err_pp`)",
			tol:   fmt.Sprintf("≤ %d pp; partial if every gain is positive", gainTolPP),
			fig: func(f *quickFigures) (string, verdict) {
				dx := peak(f.fig5, "DXbar DOR")
				sum, positive := 0.0, true
				for _, g := range paperGains {
					pct := gain(dx, peak(f.fig5, g.label))
					sum += math.Abs(pct - g.quoted)
					positive = positive && pct > 0
				}
				mean := sum / float64(len(paperGains))
				return fmt.Sprintf("%.1f pp", mean), graded(mean <= gainTolPP, positive)
			}},
		{id: "fig5-wf", section: "fig5",
			claim: "DXbar-WF slightly below DXbar-DOR, above the baselines",
			tol:   "saturation under DOR's and over every baseline's; partial if over the bufferless designs only",
			fig: func(f *quickFigures) (string, verdict) {
				wf, dor := peak(f.fig5, "DXbar WF"), peak(f.fig5, "DXbar DOR")
				b8, b4 := peak(f.fig5, "Buffered 8"), peak(f.fig5, "Buffered 4")
				fb, sc := peak(f.fig5, "Flit-Bless"), peak(f.fig5, "SCARAB")
				overBufferless := wf < dor && wf > fb && wf > sc
				return fmt.Sprintf("%.3f vs DOR %.3f, Buffered 8 %.3f, Buffered 4 %.3f, Flit-Bless %.3f, SCARAB %.3f", wf, dor, b8, b4, fb, sc),
					graded(overBufferless && wf > b8 && wf > b4, overBufferless)
			}},
		{id: "fig5-045-dxbar-over-buffered8", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "past saturation DXbar-DOR accepts more than Buffered 8", tol: "strict",
			run: on(urRuns(0.45, DesignDXbar, DesignBuffered8), func(r []Result) (string, verdict) {
				dx, b8 := r[0].AcceptedLoad, r[1].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f", dx, b8), holds(dx > b8)
			})},
		{id: "fig5-045-buffered8-over-buffered4", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "past saturation Buffered 8 accepts more than Buffered 4", tol: "strict",
			run: on(urRuns(0.45, DesignBuffered8, DesignBuffered4), func(r []Result) (string, verdict) {
				b8, b4 := r[0].AcceptedLoad, r[1].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f", b8, b4), holds(b8 > b4)
			})},
		{id: "fig5-045-buffered4-over-bufferless", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "past saturation Buffered 4 accepts more than Flit-Bless and SCARAB", tol: "strict",
			run: on(urRuns(0.45, DesignBuffered4, DesignFlitBless, DesignSCARAB), func(r []Result) (string, verdict) {
				b4, fb, sc := r[0].AcceptedLoad, r[1].AcceptedLoad, r[2].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f / %.3f", b4, fb, sc), holds(b4 > fb && b4 > sc)
			})},
		{id: "fig5-045-dxbar-saturation", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "DXbar-DOR saturates above 0.4 of capacity", tol: "≥ 0.38",
			run: on(urRuns(0.45, DesignDXbar), func(r []Result) (string, verdict) {
				dx := r[0].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f", dx), holds(dx >= 0.38)
			})},
		{id: "fig5-045-bufferless-saturation", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "Flit-Bless and SCARAB saturate below 0.3", tol: "≤ 0.31 each",
			run: on(urRuns(0.45, DesignFlitBless, DesignSCARAB), func(r []Result) (string, verdict) {
				fb, sc := r[0].AcceptedLoad, r[1].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f / %.3f", fb, sc), holds(fb <= 0.31 && sc <= 0.31)
			})},
		{id: "fig5-045-dxbar-gain-buffered4", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "DXbar-DOR ≥ +40 % over Buffered 4", tol: "≥ +20 %",
			run: on(urRuns(0.45, DesignDXbar, DesignBuffered4), func(r []Result) (string, verdict) {
				dx, b4 := r[0].AcceptedLoad, r[1].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %+.1f %% (%.3f vs %.3f)", gain(dx, b4), dx, b4), holds(dx >= 1.2*b4)
			})},
		{id: "fig5-045-dxbar-gain-flitbless", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "DXbar-DOR ≥ +40 % over Flit-Bless", tol: "≥ +40 %",
			run: on(urRuns(0.45, DesignDXbar, DesignFlitBless), func(r []Result) (string, verdict) {
				dx, fb := r[0].AcceptedLoad, r[1].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %+.1f %% (%.3f vs %.3f)", gain(dx, fb), dx, fb), holds(dx >= 1.4*fb)
			})},
		{id: "fig5-045-unified-tracks-dual", section: "fig5", guard: "TestUnifiedMatchesDual",
			claim: "the unified crossbar performs like the dual crossbar (§II.B)", tol: "≥ 95 % of dual's accepted load",
			run: on(urRuns(0.45, DesignUnified, DesignDXbar), func(r []Result) (string, verdict) {
				un, dx := r[0].AcceptedLoad, r[1].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f", un, dx), holds(un >= 0.95*dx)
			})},
		{id: "fig5-045-gap-over-seed-noise", section: "fig5", guard: "TestHeadlineGapExceedsSeedNoise",
			claim: "past saturation DXbar-DOR's lead over Buffered 8 is not seed noise",
			tol:   "mean gap over seeds 7–10 (800 + 3,000 cycles) ≥ 3× the larger seed stddev",
			run: on(append(seedNoiseRuns(DesignDXbar), seedNoiseRuns(DesignBuffered8)...), func(r []Result) (string, verdict) {
				acc := make([]float64, len(r))
				for i, x := range r {
					acc[i] = x.AcceptedLoad
				}
				dx, dxStd := meanStd(acc[:4])
				b8, b8Std := meanStd(acc[4:])
				gap, noise := dx-b8, math.Max(dxStd, b8Std)
				return fmt.Sprintf("UR 0.45: gap %.4f (%.4f vs %.4f), stddev %.4f / %.4f", gap, dx, b8, dxStd, b8Std), holds(gap >= 3*noise)
			})},

		{id: "fig6-zero-load-parity", section: "fig6",
			claim: "Flit-Bless and SCARAB use as little energy as DXbar at zero load", tol: "0.95–1.10× DXbar-DOR at offered 0.1",
			fig: func(f *quickFigures) (string, verdict) {
				dx, fb, sc := at(f.fig6, "DXbar DOR", 0.1), at(f.fig6, "Flit-Bless", 0.1), at(f.fig6, "SCARAB", 0.1)
				in := func(x float64) bool { return x >= 0.95*dx && x <= 1.1*dx }
				return fmt.Sprintf("%.3f / %.3f vs %.3f nJ/packet", fb, sc, dx), holds(in(fb) && in(sc))
			}},
		{id: "fig6-flitbless-factor", section: "fig6",
			claim: "Flit-Bless ≈ 3× DXbar's energy past saturation", tol: "±25 % at offered 0.5; partial if only above DXbar",
			fig: func(f *quickFigures) (string, verdict) {
				fb, dx := at(f.fig6, "Flit-Bless", 0.5), at(f.fig6, "DXbar DOR", 0.5)
				return fmt.Sprintf("%.3f vs %.3f = %.2f×", fb, dx, fb/dx), graded(math.Abs(fb/dx/3-1) <= 0.25, fb > dx)
			}},
		{id: "fig6-scarab-factor", section: "fig6",
			claim: "SCARAB ≈ 2× DXbar's energy past saturation", tol: "±25 % at offered 0.5; partial if only above DXbar",
			fig: func(f *quickFigures) (string, verdict) {
				sc, dx := at(f.fig6, "SCARAB", 0.5), at(f.fig6, "DXbar DOR", 0.5)
				return fmt.Sprintf("%.3f vs %.3f = %.2f×", sc, dx, sc/dx), graded(math.Abs(sc/dx/2-1) <= 0.25, sc > dx)
			}},
		{id: "fig6-buffered-order", section: "fig6",
			claim: "Buffered 8 > Buffered 4 > DXbar", tol: "strict, at offered 0.5",
			fig: func(f *quickFigures) (string, verdict) {
				b8, b4, dx := at(f.fig6, "Buffered 8", 0.5), at(f.fig6, "Buffered 4", 0.5), at(f.fig6, "DXbar DOR", 0.5)
				return fmt.Sprintf("%.3f > %.3f > %.3f", b8, b4, dx), holds(b8 > b4 && b4 > dx)
			}},
		{id: "fig6-dxbar-saving", section: "fig6",
			claim: "DXbar saves ≥ 15 % energy over the baseline (Buffered 4)", tol: "at offered 0.5",
			fig: func(f *quickFigures) (string, verdict) {
				dx, b4 := at(f.fig6, "DXbar DOR", 0.5), at(f.fig6, "Buffered 4", 0.5)
				return fmt.Sprintf("%+.0f %% (%.3f vs %.3f)", gain(dx, b4), dx, b4), holds(dx <= 0.85*b4)
			}},
		{id: "fig6-dxbar-flat", section: "fig6",
			claim: "DXbar's energy nearly flat with load", tol: "rises ≤ 20 % over the load axis",
			fig: func(f *quickFigures) (string, verdict) {
				y := ys(f.fig6, "DXbar DOR")
				lo, hi := y[0], y[len(y)-1]
				return fmt.Sprintf("%.3f → %.3f (%+.0f %%)", lo, hi, gain(hi, lo)), holds(hi <= 1.2*lo)
			}},
		{id: "fig6-045-dxbar-under-buffered", section: "fig6", guard: "TestHeadlineEnergyOrdering",
			claim: "DXbar spends less energy than both buffered baselines", tol: "strict",
			run: on(urRuns(0.45, DesignDXbar, DesignBuffered4, DesignBuffered8), func(r []Result) (string, verdict) {
				dx, b4, b8 := r[0].AvgEnergyNJ, r[1].AvgEnergyNJ, r[2].AvgEnergyNJ
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f / %.3f", dx, b4, b8), holds(dx < b4 && dx < b8)
			})},
		{id: "fig6-045-flitbless-factor", section: "fig6", guard: "TestHeadlineEnergyOrdering",
			claim: "Flit-Bless's energy blows past DXbar's beyond saturation", tol: "> 1.5×",
			run: on(urRuns(0.45, DesignFlitBless, DesignDXbar), func(r []Result) (string, verdict) {
				fb, dx := r[0].AvgEnergyNJ, r[1].AvgEnergyNJ
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f = %.2f×", fb, dx, fb/dx), holds(fb > 1.5*dx)
			})},
		{id: "fig6-045-scarab-above", section: "fig6", guard: "TestHeadlineEnergyOrdering",
			claim: "SCARAB spends more energy than DXbar", tol: "strict",
			run: on(urRuns(0.45, DesignSCARAB, DesignDXbar), func(r []Result) (string, verdict) {
				sc, dx := r[0].AvgEnergyNJ, r[1].AvgEnergyNJ
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f", sc, dx), holds(sc > dx)
			})},
		{id: "fig6-045-dxbar-saving", section: "fig6", guard: "TestHeadlineEnergyOrdering",
			claim: "DXbar saves ≥ 15 % energy over Buffered 4", tol: "≤ 0.85× Buffered 4",
			run: on(urRuns(0.45, DesignDXbar, DesignBuffered4), func(r []Result) (string, verdict) {
				dx, b4 := r[0].AvgEnergyNJ, r[1].AvgEnergyNJ
				return fmt.Sprintf("UR 0.45: %+.0f %% (%.3f vs %.3f)", gain(dx, b4), dx, b4), holds(dx <= 0.85*b4)
			})},
		{id: "fig6-005-zero-load-parity", section: "fig6", guard: "TestZeroLoadEnergyParity",
			claim: "Flit-Bless uses as little energy as DXbar at zero load", tol: "0.95–1.10× DXbar",
			run: on([]Config{zeroLoad(DesignDXbar), zeroLoad(DesignFlitBless)}, func(r []Result) (string, verdict) {
				dx, fb := r[0].AvgEnergyNJ, r[1].AvgEnergyNJ
				return fmt.Sprintf("UR 0.05: %.4f vs %.4f", fb, dx), holds(fb >= 0.95*dx && fb <= 1.1*dx)
			})},
		{id: "fig6-045-unified-energy", section: "fig6", guard: "TestUnifiedMatchesDual",
			claim: "the unified crossbar pays +2 pJ/flit switching energy (15 vs 13)", tol: "unified > dual",
			run: on(urRuns(0.45, DesignUnified, DesignDXbar), func(r []Result) (string, verdict) {
				un, dx := r[0].AvgEnergyNJ, r[1].AvgEnergyNJ
				return fmt.Sprintf("UR 0.45: %.4f vs %.4f", un, dx), holds(un > dx)
			})},

		{id: "fig7-dxbar-best", section: "fig7",
			claim: "DXbar-DOR best for UR, NUR, CP, TOR", tol: "ties within 0.005; partial on a majority",
			fig: func(f *quickFigures) (string, verdict) {
				var parts []string
				k := 0
				for _, p := range []string{"UR", "NUR", "CP", "TOR"} {
					dx := at(f.fig7, "DXbar DOR", p)
					label, best := bestOther(f.fig7, "DXbar DOR", p, math.Max)
					switch {
					case dx > best+0.005:
						k++
						parts = append(parts, fmt.Sprintf("%s %.3f", p, dx))
					case dx >= best-0.005:
						k++
						parts = append(parts, fmt.Sprintf("%s %.3f tied", p, dx))
					default:
						parts = append(parts, fmt.Sprintf("%s %.3f behind %s %.3f", p, dx, label, best))
					}
				}
				return strings.Join(parts, ", "), outOf(k, 4)
			}},
		{id: "fig7-wf-permutations", section: "fig7",
			claim: "DXbar-WF competitive for BR, BF, MT, PS", tol: "above DXbar-DOR; partial on a majority",
			fig: func(f *quickFigures) (string, verdict) {
				var parts []string
				k := 0
				for _, p := range []string{"BR", "BF", "MT", "PS"} {
					wf, dor := at(f.fig7, "DXbar WF", p), at(f.fig7, "DXbar DOR", p)
					if wf > dor {
						k++
					}
					parts = append(parts, fmt.Sprintf("%s %.3f vs %.3f", p, wf, dor))
				}
				return strings.Join(parts, ", "), outOf(k, 4)
			}},
		{id: "fig7-neighbor", section: "fig7",
			claim: "NB (neighbor) trivial for everyone", tol: "every design ≥ 0.49 at offered 0.5",
			fig: func(f *quickFigures) (string, verdict) {
				lo, hi := math.Inf(1), 0.0
				for _, s := range f.fig7.Series {
					y := at(f.fig7, s.Label, "NB")
					lo, hi = math.Min(lo, y), math.Max(hi, y)
				}
				return fmt.Sprintf("%.3f–%.3f", lo, hi), holds(lo >= 0.49)
			}},

		{id: "fig8-dxbar-least", section: "fig8",
			claim: "DXbar uses the least power", tol: "DXbar (DOR or WF) within 5 % of the lowest baseline on each pattern; partial on a majority",
			fig: func(f *quickFigures) (string, verdict) {
				var behind []string
				for _, p := range names(f.fig8) {
					dx := math.Min(at(f.fig8, "DXbar DOR", p), at(f.fig8, "DXbar WF", p))
					label, best := bestOf(f.fig8, baselineLabels, p, math.Min)
					if dx > 1.05*best {
						behind = append(behind, fmt.Sprintf("%s %.3f vs %s %.3f", p, dx, label, best))
					}
				}
				n := len(names(f.fig8))
				return countText(n-len(behind), n, "above on", behind), outOf(n-len(behind), n)
			}},
		{id: "fig8-flitbless-most", section: "fig8",
			claim: "Flit-Bless uses the most power", tol: "highest of the six on each pattern; partial on a majority",
			fig: func(f *quickFigures) (string, verdict) {
				var not []string
				for _, p := range names(f.fig8) {
					fb := at(f.fig8, "Flit-Bless", p)
					if label, top := bestOther(f.fig8, "Flit-Bless", p, math.Max); fb <= top {
						not = append(not, fmt.Sprintf("%s %.3f vs %s %.3f", p, fb, label, top))
					}
				}
				n := len(names(f.fig8))
				return countText(n-len(not), n, "not on", not), outOf(n-len(not), n)
			}},
		{id: "fig8-scarab-second", section: "fig8",
			claim: "SCARAB uses the second most, the generic routers in between", tol: "second highest of the six on each pattern; partial on a majority",
			fig: func(f *quickFigures) (string, verdict) {
				var not []string
				for _, p := range names(f.fig8) {
					sc := at(f.fig8, "SCARAB", p)
					above := 0
					for _, s := range f.fig8.Series {
						if at(f.fig8, s.Label, p) > sc {
							above++
						}
					}
					if above != 1 {
						not = append(not, p)
					}
				}
				n := len(names(f.fig8))
				return countText(n-len(not), n, "not on", not), outOf(n-len(not), n)
			}},

		{id: "fig9-dxbar-best", section: "fig9",
			claim: "DXbar achieves the best performance for most traces", tol: "DXbar-DOR fastest or within 0.001 of the fastest on a majority of the 9",
			fig: func(f *quickFigures) (string, verdict) {
				var behind []string
				for _, b := range names(f.fig9) {
					dx := at(f.fig9, "DXbar DOR", b)
					if label, best := bestOther(f.fig9, "DXbar DOR", b, math.Min); dx > best+0.001 {
						behind = append(behind, fmt.Sprintf("%s %.3f vs %s %.3f", b, dx, label, best))
					}
				}
				n := len(names(f.fig9))
				k := n - len(behind)
				return countText(k, n, "behind on", behind), graded(2*k > n, k > 0)
			}},
		{id: "fig9-bufferless-keep-up", section: "fig9",
			claim: "Flit-Bless and SCARAB keep up on some traces (low network load)", tol: "both within 1 % of Buffered 4 on at least one",
			fig: func(f *quickFigures) (string, verdict) {
				var not []string
				for _, b := range names(f.fig9) {
					if math.Abs(at(f.fig9, "Flit-Bless", b)-1) > 0.01 || math.Abs(at(f.fig9, "SCARAB", b)-1) > 0.01 {
						not = append(not, b)
					}
				}
				n := len(names(f.fig9))
				return countText(n-len(not), n, "not on", not), holds(len(not) < n)
			}},
		{id: "fig9-flitbless-fft", section: "fig9",
			claim: "bufferless can even be slightly better for FFT", tol: "Flit-Bless faster than DXbar-DOR; partial if within 0.001",
			fig: func(f *quickFigures) (string, verdict) {
				fb, dx := at(f.fig9, "Flit-Bless", "FFT"), at(f.fig9, "DXbar DOR", "FFT")
				return fmt.Sprintf("%.4f vs %.4f", fb, dx), graded(fb < dx, fb <= dx+0.001)
			}},
		{id: "fig9-bufferless-heavy", section: "fig9",
			claim: "bufferless hurts under heavy traffic", tol: "Flit-Bless slower than Buffered 4 on Ocean and Radix",
			fig: func(f *quickFigures) (string, verdict) {
				oc, rx := at(f.fig9, "Flit-Bless", "Ocean"), at(f.fig9, "Flit-Bless", "Radix")
				return fmt.Sprintf("%.3f / %.3f", oc, rx), holds(oc > 1 && rx > 1)
			}},
		{id: "fig9-ocean11-dxbar-beats-flitbless", section: "fig9", guard: "TestHeadlineSplashOcean",
			claim: "DXbar finishes Ocean before Flit-Bless", tol: "strict",
			run: onSplash(ocean(false, DesignDXbar, DesignFlitBless), func(s []SplashResult) (string, verdict) {
				dx, fb := s[0].ExecutionCycles, s[1].ExecutionCycles
				return fmt.Sprintf("Ocean, seed 11: %d vs %d cycles", dx, fb), holds(dx < fb)
			})},
		{id: "fig9-ocean11-dxbar-beats-buffered4", section: "fig9", guard: "TestHeadlineSplashOcean",
			claim: "DXbar finishes Ocean before Buffered 4", tol: "strict",
			run: onSplash(ocean(false, DesignDXbar, DesignBuffered4), func(s []SplashResult) (string, verdict) {
				dx, b4 := s[0].ExecutionCycles, s[1].ExecutionCycles
				return fmt.Sprintf("Ocean, seed 11: %d vs %d cycles", dx, b4), holds(dx < b4)
			})},

		{id: "fig10-dxbar-lowest", section: "fig10",
			claim: "DXbar has the lowest energy on the traces", tol: "DXbar-DOR lowest of the six on each trace; partial on a majority",
			fig: func(f *quickFigures) (string, verdict) {
				var not []string
				lo, hi := math.Inf(1), 0.0
				for _, b := range names(f.fig10) {
					dx := at(f.fig10, "DXbar DOR", b)
					lo, hi = math.Min(lo, dx), math.Max(hi, dx)
					if label, best := bestOther(f.fig10, "DXbar DOR", b, math.Min); dx >= best {
						not = append(not, fmt.Sprintf("%s %.3f vs %s %.3f", b, dx, label, best))
					}
				}
				n := len(names(f.fig10))
				return fmt.Sprintf("%s (%.3f–%.3f nJ/packet)", countText(n-len(not), n, "not on", not), lo, hi), outOf(n-len(not), n)
			}},
		{id: "fig10-flitbless-factor", section: "fig10",
			claim: "Flit-Bless ≥ 16× DXbar's energy", tol: "≥ 12× on some trace; partial if above DXbar on every trace",
			fig: func(f *quickFigures) (string, verdict) { return energyFactor(f.fig10, "Flit-Bless", 16) }},
		{id: "fig10-scarab-factor", section: "fig10",
			claim: "SCARAB ≥ 2× DXbar's energy", tol: "≥ 1.5× on some trace; partial if above DXbar on every trace",
			fig: func(f *quickFigures) (string, verdict) { return energyFactor(f.fig10, "SCARAB", 2) }},
		{id: "fig10-ocean11-dxbar-energy", section: "fig10", guard: "TestHeadlineSplashOcean",
			claim: "DXbar runs Ocean on less energy than Flit-Bless and Buffered 4", tol: "strict",
			run: onSplash(ocean(false, DesignDXbar, DesignFlitBless, DesignBuffered4), func(s []SplashResult) (string, verdict) {
				dx, fb, b4 := s[0].AvgEnergyNJ, s[1].AvgEnergyNJ, s[2].AvgEnergyNJ
				return fmt.Sprintf("Ocean, seed 11: %.3f vs %.3f / %.3f nJ/packet", dx, fb, b4), holds(dx < fb && dx < b4)
			})},

		{id: "fig11-survives", section: "fig11-12",
			claim: "the network survives 100 % faults (a dead crossbar in every router)", tol: "accepted within 1 % of offered up to 0.3, DOR and WF",
			fig: func(f *quickFigures) (string, verdict) {
				ok := true
				for _, label := range []string{"DOR faults=100%", "WF faults=100%"} {
					for _, x := range []float64{0.1, 0.2, 0.3} {
						ok = ok && at(f.fig11, label, x) >= 0.99*x
					}
				}
				return fmt.Sprintf("DOR %.3f / WF %.3f at offered 0.3; DOR %.3f vs %.3f healthy at 0.5",
					at(f.fig11, "DOR faults=100%", 0.3), at(f.fig11, "WF faults=100%", 0.3),
					at(f.fig11, "DOR faults=100%", 0.5), at(f.fig11, "DOR faults=0%", 0.5)), holds(ok)
			}},
		{id: "fig11-monotone", section: "fig11-12",
			claim: "throughput degrades monotonically with the fault fraction", tol: "non-increasing over 0/50/100 % at offered 0.5; partial if DOR only",
			fig: func(f *quickFigures) (string, verdict) {
				dor, dorOK := faultTrend(f.fig11, "DOR")
				wf, wfOK := faultTrend(f.fig11, "WF")
				return fmt.Sprintf("DOR %s; WF %s", dor, wf), graded(dorOK && wfOK, dorOK)
			}},
		{id: "fig11-dor-under-10", section: "fig11-12",
			claim: "DOR throughput degrades < 10 % at 100 % faults", tol: "at offered 0.5; partial if only below saturation (offered ≤ 0.3)",
			fig: func(f *quickFigures) (string, verdict) {
				sat, below := faultLoss(f.fig11, "DOR", 0.5), faultLoss(f.fig11, "DOR", 0.3)
				return fmt.Sprintf("%.1f %% at 0.5 (%.3f → %.3f); %.3f → %.3f at 0.3", sat,
						at(f.fig11, "DOR faults=0%", 0.5), at(f.fig11, "DOR faults=100%", 0.5),
						at(f.fig11, "DOR faults=0%", 0.3), at(f.fig11, "DOR faults=100%", 0.3)),
					graded(sat < 10, below < 10)
			}},
		{id: "fig11-wf-worse", section: "fig11-12",
			claim: "WF degrades more than DOR (≈ 33 % at 100 % faults)", tol: "WF loss 33 % ±10 pp at offered 0.5; partial if only above DOR's",
			fig: func(f *quickFigures) (string, verdict) {
				wf, dor := faultLoss(f.fig11, "WF", 0.5), faultLoss(f.fig11, "DOR", 0.5)
				return fmt.Sprintf("WF %.1f %% vs DOR %.1f %%", wf, dor), graded(math.Abs(wf-33) <= 10, wf > dor)
			}},
		{id: "fig12-power-rises", section: "fig11-12",
			claim: "power rises with faults (more flits buffered)", tol: "increasing in the fault fraction at every load, DOR and WF",
			fig: func(f *quickFigures) (string, verdict) {
				ok := true
				for _, algo := range []string{"DOR", "WF"} {
					y0, y50, y100 := ys(f.fig12, algo+" faults=0%"), ys(f.fig12, algo+" faults=50%"), ys(f.fig12, algo+" faults=100%")
					for i := range y0 {
						ok = ok && y0[i] < y50[i] && y50[i] < y100[i]
					}
				}
				g := func(algo string) float64 {
					return gain(at(f.fig12, algo+" faults=100%", 0.5), at(f.fig12, algo+" faults=0%", 0.5))
				}
				return fmt.Sprintf("%+.0f %% (DOR), %+.0f %% (WF) at 100 %% faults, offered 0.5", g("DOR"), g("WF")), holds(ok)
			}},
		{id: "fig11-035-dor-loss", section: "fig11-12", guard: "TestHeadlineFaultDegradation",
			claim: "DOR throughput degrades < 10 % at 100 % faults", tol: "≤ 10 %",
			run: on([]Config{faulted("DOR", 0, ""), faulted("DOR", 1.0, "")}, func(r []Result) (string, verdict) {
				dor0, dor100 := r[0].AcceptedLoad, r[1].AcceptedLoad
				loss := 1 - dor100/dor0
				return fmt.Sprintf("UR 0.35: %.1f %% (%.3f vs %.3f)", loss*100, dor100, dor0), holds(loss <= 0.10)
			})},
		{id: "fig11-035-wf-loss", section: "fig11-12", guard: "TestHeadlineFaultDegradation",
			claim: "WF degrades at least as much as DOR", tol: "WF loss ≥ DOR loss",
			run: on([]Config{faulted("DOR", 0, ""), faulted("DOR", 1.0, ""), faulted("WF", 0, ""), faulted("WF", 1.0, "")}, func(r []Result) (string, verdict) {
				dor := 1 - r[1].AcceptedLoad/r[0].AcceptedLoad
				wf := 1 - r[3].AcceptedLoad/r[2].AcceptedLoad
				return fmt.Sprintf("UR 0.35: WF %.1f %% vs DOR %.1f %%", wf*100, dor*100), holds(wf >= dor)
			})},
		{id: "fig12-035-energy-rises", section: "fig11-12", guard: "TestHeadlineFaultDegradation",
			claim: "energy rises with faults (buffered power)", tol: "DOR, strict",
			run: on([]Config{faulted("DOR", 0, ""), faulted("DOR", 1.0, "")}, func(r []Result) (string, verdict) {
				e0, e100 := r[0].AvgEnergyNJ, r[1].AvgEnergyNJ
				return fmt.Sprintf("UR 0.35: %.3f → %.3f nJ/packet", e0, e100), holds(e100 > e0)
			})},
		{id: "xpoint-035-throughput", section: "fig11-12", guard: "TestCrosspointFaultsGentlerThanCrossbarFaults",
			claim: "(extension) single-crosspoint faults hurt less than whole-crossbar faults", tol: "crosspoint accepted ≥ crossbar accepted",
			run: on([]Config{faulted("", 1.0, "crosspoint"), faulted("", 1.0, "crossbar")}, func(r []Result) (string, verdict) {
				xp, xb := r[0].AcceptedLoad, r[1].AcceptedLoad
				return fmt.Sprintf("UR 0.35, 100 %% faults: %.3f vs %.3f", xp, xb), holds(xp >= xb)
			})},
		{id: "xpoint-035-latency", section: "fig11-12", guard: "TestCrosspointFaultsGentlerThanCrossbarFaults",
			claim: "(extension) single-crosspoint faults barely dent latency", tol: "≤ 3× healthy DXbar-DOR at UR 0.45",
			run: on([]Config{faulted("", 1.0, "crosspoint"), claimRun(DesignDXbar, 0.45)}, func(r []Result) (string, verdict) {
				xp, healthy := r[0].AvgLatency, r[1].AvgLatency
				return fmt.Sprintf("UR 0.35, 100 %% faults: %.1f vs %.1f cycles", xp, healthy), holds(xp <= 3*healthy)
			})},

		{id: "iii-c-080-buffering", section: "iii-c",
			claim: "past saturation a DXbar flit is buffered in only ~1/6 of its router traversals", tol: "1/6 ± 25 % (0.125–0.208); partial if below",
			run: on(urRuns(0.8, DesignDXbar), func(r []Result) (string, verdict) {
				p := r[0].BufferingProbability
				return fmt.Sprintf("UR 0.8: %.3f", p), graded(math.Abs(6*p-1) <= 0.25, p < 1.0/6)
			})},
		{id: "iii-c-045-fairness", section: "iii-c",
			claim: "fairness threshold 4, chosen after testing, costs no throughput and bounds how long a buffered flit waits",
			tol:   "accepted at 4 within 2 % of the best threshold's, max latency below the never-firing counter's (2²⁰); partial if one holds",
			run: on(variants(claimRun(DesignDXbar, 0.45), fairnessThresholds, func(c *Config, v int) { c.FairnessThreshold = v }), func(r []Result) (string, verdict) {
				at4 := r[slices.Index(fairnessThresholds, 4)]
				fast, bounded := at4.AcceptedLoad >= 0.98*bestAccepted(r), at4.MaxLatency < r[len(r)-1].MaxLatency
				return "UR 0.45, accepted " + sweepText(fairnessLabels, r, accepted) + "; max latency " +
					sweepText(fairnessLabels, r, func(x Result) string { return fmt.Sprint(x.MaxLatency) }), graded(fast && bounded, fast || bounded)
			})},
		{id: "iii-c-045-buffer-depth", section: "iii-c",
			claim: "4-flit buffers suffice", tol: "accepted at depth 4 ≥ 95 % of the best depth's; partial if ≥ 90 %",
			run: on(variants(claimRun(DesignDXbar, 0.45), bufferDepths, func(c *Config, v int) { c.BufferDepth = v }), func(r []Result) (string, verdict) {
				ratio := r[slices.Index(bufferDepths, 4)].AcceptedLoad / bestAccepted(r)
				return "UR 0.45, accepted " + sweepText(bufferDepths, r, accepted), graded(ratio >= 0.95, ratio >= 0.9)
			})},
		{id: "iii-c-045-credit-delay", section: "iii-c",
			claim: "the fairness threshold must cover the credit round trip (§II.A.2): a longer return shrinks the usable buffer window",
			tol:   "accepted strictly falls with each extra cycle of credit delay, 1 to 4",
			run: on(variants(claimRun(DesignDXbar, 0.45), creditDelays, func(c *Config, v int) { c.CreditDelay = v }), func(r []Result) (string, verdict) {
				falls := true
				for i := 1; i < len(r); i++ {
					falls = falls && r[i].AcceptedLoad < r[i-1].AcceptedLoad
				}
				return "UR 0.45, accepted " + sweepText(creditDelays, r, accepted), holds(falls)
			})},
		{id: "iii-c-042-age-arbitration", section: "iii-c",
			claim: "age-based arbitration (vs static port order) bounds the worst-case latency",
			tol:   "max latency below port order's, accepted at least port order's; partial if the latency half only",
			run: on(variants(claimRun(DesignDXbar, 0.42), []bool{false, true}, func(c *Config, v bool) { c.PortOrderArbitration = v }), func(r []Result) (string, verdict) {
				age, port := r[0], r[1]
				tail := age.MaxLatency < port.MaxLatency
				return fmt.Sprintf("UR 0.42: max %d vs %d cycles, accepted %.3f vs %.3f", age.MaxLatency, port.MaxLatency, age.AcceptedLoad, port.AcceptedLoad),
					graded(tail && age.AcceptedLoad >= port.AcceptedLoad, tail)
			})},

		{id: "ext-afc-010-energy", section: "extensions",
			claim: "AFC (ref. [9]) matches Flit-Bless's energy at low load", tol: "within 5 %",
			run: on(urRuns(0.1, DesignAFC, DesignFlitBless), func(r []Result) (string, verdict) {
				afc, fb := r[0].AvgEnergyNJ, r[1].AvgEnergyNJ
				return fmt.Sprintf("UR 0.1: %.3f vs %.3f nJ/packet", afc, fb), holds(math.Abs(afc/fb-1) <= 0.05)
			})},
		{id: "ext-afc-045-throughput", section: "extensions",
			claim: "AFC matches Buffered 4's throughput past saturation", tol: "within 5 %",
			run: on(urRuns(0.45, DesignAFC, DesignBuffered4), func(r []Result) (string, verdict) {
				afc, b4 := r[0].AcceptedLoad, r[1].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f", afc, b4), holds(math.Abs(afc/b4-1) <= 0.05)
			})},
		{id: "ext-afc-dxbar-both-ends", section: "extensions",
			claim: "DXbar beats AFC at both ends with no mode state (the paper's §I argument)",
			tol:   "less energy at UR 0.1 and more accepted at UR 0.45; partial at one end",
			run: on(append(urRuns(0.1, DesignDXbar, DesignAFC), urRuns(0.45, DesignDXbar, DesignAFC)...), func(r []Result) (string, verdict) {
				low, high := r[0].AvgEnergyNJ < r[1].AvgEnergyNJ, r[2].AcceptedLoad > r[3].AcceptedLoad
				return fmt.Sprintf("UR 0.1: %.3f vs %.3f nJ/packet; UR 0.45: %.3f vs %.3f accepted",
					r[0].AvgEnergyNJ, r[1].AvgEnergyNJ, r[2].AcceptedLoad, r[3].AcceptedLoad), graded(low && high, low || high)
			})},
		{id: "ext-power-030-buffered4-share", section: "extensions",
			claim: "with leakage included, the generic buffered router spends ~40 % of its total power in its buffers (§I premise)",
			tol:   "33–47 %, the band `TestBufferPowerShareMatchesMotivation` holds the model to",
			run: on(urRuns(0.3, DesignBuffered4), func(r []Result) (string, verdict) {
				p := r[0].Power
				return fmt.Sprintf("UR 0.3: %.1f %% (%.1f of %.1f mW)", 100*p.BufferShareOfTot, p.BufferDynamicMW+p.BufferStaticMW, p.TotalMW),
					holds(p.BufferShareOfTot >= 0.33 && p.BufferShareOfTot <= 0.47)
			})},
		{id: "ext-power-030-share-order", section: "extensions",
			claim: "Buffered 8 spends the most on buffers, bufferless designs nothing, DXbar little (buffers present, rarely exercised)",
			tol:   "buffer share Buffered 8 > Buffered 4 > DXbar > Flit-Bless = 0",
			run: on(urRuns(0.3, DesignBuffered8, DesignBuffered4, DesignDXbar, DesignFlitBless), func(r []Result) (string, verdict) {
				b8, b4, dx, fb := r[0].Power.BufferShareOfTot, r[1].Power.BufferShareOfTot, r[2].Power.BufferShareOfTot, r[3].Power.BufferShareOfTot
				return fmt.Sprintf("UR 0.3: %.1f > %.1f > %.1f > %.1f %%", 100*b8, 100*b4, 100*dx, 100*fb), holds(b8 > b4 && b4 > dx && dx > fb && fb == 0)
			})},
		{id: "ext-mesh-030-dxbar-advantage", section: "extensions",
			claim: "DXbar's latency and energy advantage over Buffered 4 grows with the mesh diameter",
			tol:   "Buffered 4 − DXbar latency and Buffered 4 ÷ DXbar energy each rise 4×4 → 8×8 → 12×12; partial if one does",
			run: on(meshRuns(DesignBuffered4, DesignDXbar), func(r []Result) (string, verdict) {
				var lat, en []string
				latUp, enUp := true, true
				prevLat, prevEn := math.Inf(-1), math.Inf(-1)
				for i := 0; i < len(r); i += 2 {
					l, e := r[i].AvgLatency-r[i+1].AvgLatency, r[i].AvgEnergyNJ/r[i+1].AvgEnergyNJ
					latUp, enUp, prevLat, prevEn = latUp && l > prevLat, enUp && e > prevEn, l, e
					lat, en = append(lat, fmt.Sprintf("%.1f", l)), append(en, fmt.Sprintf("%.2f", e))
				}
				return fmt.Sprintf("UR 0.3, 4×4 / 8×8 / 12×12: latency gap %s cycles, energy ratio %s", strings.Join(lat, " / "), strings.Join(en, " / ")),
					graded(latUp && enUp, latUp || enUp)
			})},
		{id: "ext-mesh-030-flitbless-saturates", section: "extensions",
			claim: "Flit-Bless saturates earlier on larger meshes", tol: "accepted strictly falls 4×4 → 8×8 → 12×12",
			run: on(meshRuns(DesignFlitBless), func(r []Result) (string, verdict) {
				return fmt.Sprintf("UR 0.3: %.3f / %.3f / %.3f", r[0].AcceptedLoad, r[1].AcceptedLoad, r[2].AcceptedLoad),
					holds(r[0].AcceptedLoad > r[1].AcceptedLoad && r[1].AcceptedLoad > r[2].AcceptedLoad)
			})},
		{id: "ext-detailed-ocean11-energy", section: "extensions", guard: "TestDetailedCachesThroughFacade",
			claim: "with real (scaled) set-associative L1/L2 caches, the DXbar < Flit-Bless energy ordering is preserved", tol: "both deliver packets; strict",
			run: onSplash(ocean(true, DesignDXbar, DesignFlitBless), func(s []SplashResult) (string, verdict) {
				dx, fb := s[0], s[1]
				return fmt.Sprintf("Ocean, seed 11: %.3f vs %.3f nJ/packet", dx.AvgEnergyNJ, fb.AvgEnergyNJ),
					holds(dx.Packets > 0 && fb.Packets > 0 && dx.AvgEnergyNJ < fb.AvgEnergyNJ)
			})},
		{id: "ext-detailed-ocean11-messages", section: "extensions",
			claim: "detailed caches make Ocean generate far more protocol messages (~300k vs ~24k calibrated)", tol: "≥ 10× the calibrated profile's, on DXbar",
			run: onSplash(append(ocean(true, DesignDXbar), ocean(false, DesignDXbar)...), func(s []SplashResult) (string, verdict) {
				detailed, calibrated := s[0].Packets, s[1].Packets
				return fmt.Sprintf("Ocean, seed 11: %d vs %d messages", detailed, calibrated), holds(detailed >= 10*calibrated)
			})},
		{id: "ext-nur-035-utilization", section: "extensions",
			claim: "under NUR DXbar keeps the load at the hot centre; Flit-Bless smears it across the mesh by deflecting",
			tol:   "Flit-Bless above DXbar in peak and in mean node link utilization",
			run: on(variants(Config{Pattern: "NUR", Load: 0.35, WarmupCycles: 1000, MeasureCycles: 4000, Seed: 9, TrackUtilization: true},
				[]Design{DesignDXbar, DesignFlitBless}, func(c *Config, d Design) { c.Design = d }), func(r []Result) (string, verdict) {
				dx, fb := r[0].NodeUtilization, r[1].NodeUtilization
				dxMean, _ := meanStd(dx)
				fbMean, _ := meanStd(fb)
				dxPeak, fbPeak := slices.Max(dx), slices.Max(fb)
				return fmt.Sprintf("NUR 0.35, seed 9: peak %.2f vs %.2f, mean %.2f vs %.2f flits/cycle; Flit-Bless %.1f deflections/packet",
					dxPeak, fbPeak, dxMean, fbMean, r[1].DeflectionsPerPacket), holds(fbPeak > dxPeak && fbMean > dxMean)
			})},
	},
)

func concatClaims(parts ...[]paperClaim) (all []paperClaim) {
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// baselineLabels are the four designs DXbar is compared against.
var baselineLabels = []string{"Flit-Bless", "SCARAB", "Buffered 4", "Buffered 8"}

// bestOf is the label and value of the best series among labels at position
// x, best by pick (math.Max or math.Min).
func bestOf(f Figure, labels []string, x any, pick func(a, b float64) float64) (string, float64) {
	bestLabel, best := "", math.NaN()
	for _, l := range labels {
		if y := at(f, l, x); math.IsNaN(best) || pick(y, best) != best {
			bestLabel, best = l, y
		}
	}
	return bestLabel, best
}

// bestOther is bestOf over every series of f except the one labelled self.
func bestOther(f Figure, self string, x any, pick func(a, b float64) float64) (string, float64) {
	var others []string
	for _, s := range f.Series {
		if s.Label != self {
			others = append(others, s.Label)
		}
	}
	return bestOf(f, others, x, pick)
}

// countText renders "k/n" with the exceptions, if any.
func countText(k, n int, lead string, exceptions []string) string {
	if len(exceptions) == 0 {
		return fmt.Sprintf("%d/%d", k, n)
	}
	return fmt.Sprintf("%d/%d; %s %s", k, n, lead, strings.Join(exceptions, ", "))
}

// energyFactor grades a "label ≥ quoted× DXbar's energy" claim on Fig. 10:
// ✓ if some trace reaches 75 % of the quote, partial if label spends more
// than DXbar-DOR on every trace.
func energyFactor(f Figure, label string, quoted float64) (string, verdict) {
	lo, hi, hiAt := math.Inf(1), 0.0, ""
	for _, b := range names(f) {
		r := at(f, label, b) / at(f, "DXbar DOR", b)
		lo = math.Min(lo, r)
		if r > hi {
			hi, hiAt = r, b
		}
	}
	return fmt.Sprintf("%.2f–%.2f× (max on %s)", lo, hi, hiAt), graded(hi >= 0.75*quoted, lo > 1)
}

// faultTrend renders the routing algorithm's offered-0.5 throughput over the
// fault fractions and reports whether it never rises.
func faultTrend(f Figure, algo string) (string, bool) {
	var vals []string
	ok, prev := true, math.Inf(1)
	for _, frac := range []string{"0", "50", "100"} {
		y := at(f, algo+" faults="+frac+"%", 0.5)
		ok = ok && y <= prev
		prev = y
		vals = append(vals, fmt.Sprintf("%.3f", y))
	}
	return strings.Join(vals, " / "), ok
}

// faultLoss is the routing algorithm's throughput loss at 100 % faults, in
// percent, at offered load x.
func faultLoss(f Figure, algo string, x float64) float64 {
	return (1 - at(f, algo+" faults=100%", x)/at(f, algo+" faults=0%", x)) * 100
}

// requireClaims fails t unless every paperClaims row guarded by t's name is ✓.
func requireClaims(t *testing.T) {
	t.Helper()
	n := 0
	for _, c := range paperClaims {
		if c.guard != t.Name() {
			continue
		}
		n++
		if measured, v := c.eval(t); v != pass {
			t.Errorf("%s: %s (%s): measured %s — %s", c.id, c.claim, c.tol, measured, v)
		}
	}
	if n == 0 {
		t.Fatalf("no paperClaims row is guarded by %s", t.Name())
	}
}

func TestHeadlineThroughputOrdering(t *testing.T) { requireClaims(t) }
func TestHeadlineEnergyOrdering(t *testing.T)     { requireClaims(t) }
func TestHeadlineFaultDegradation(t *testing.T)   { requireClaims(t) }
func TestHeadlineSplashOcean(t *testing.T)        { requireClaims(t) }
func TestZeroLoadEnergyParity(t *testing.T)       { requireClaims(t) }
func TestUnifiedMatchesDual(t *testing.T)         { requireClaims(t) }
func TestCrosspointFaultsGentlerThanCrossbarFaults(t *testing.T) {
	requireClaims(t)
}
func TestHeadlineGapExceedsSeedNoise(t *testing.T) { requireClaims(t) }
func TestDetailedCachesThroughFacade(t *testing.T) { requireClaims(t) }

const experimentsDoc = "EXPERIMENTS.md"

var claimMarker = regexp.MustCompile(`(?s)<!-- claims:([a-z0-9-]+) -->\n.*?<!-- /claims:([a-z0-9-]+) -->`)

// TestPaperClaims evaluates every row and holds EXPERIMENTS.md's claim tables
// to the rendering, byte for byte.
func TestPaperClaims(t *testing.T) {
	tables := map[string]*strings.Builder{}
	for _, c := range paperClaims {
		b := tables[c.section]
		if b == nil {
			b = &strings.Builder{}
			b.WriteString("| row | claim (paper) | tolerance | measured | verdict |\n|---|---|---|---|---|\n")
			tables[c.section] = b
		}
		var measured string
		var v verdict
		if !t.Run(c.id, func(t *testing.T) {
			measured, v = c.eval(t)
			t.Logf("%s: %s", v, measured)
		}) {
			return
		}
		fmt.Fprintf(b, "| `%s` | %s | %s | %s | %s |\n", c.id, c.claim, c.tol, measured, v)
	}

	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	want := claimMarker.ReplaceAllStringFunc(string(doc), func(block string) string {
		m := claimMarker.FindStringSubmatch(block)
		b, ok := tables[m[1]]
		if !ok || m[1] != m[2] {
			t.Errorf("%s: unknown or unbalanced claims block %q … %q", experimentsDoc, m[1], m[2])
			return block
		}
		seen[m[1]] = true
		return fmt.Sprintf("<!-- claims:%s -->\n%s<!-- /claims:%s -->", m[1], b.String(), m[1])
	})
	for section := range tables {
		if !seen[section] {
			t.Errorf("%s has no <!-- claims:%s --> block", experimentsDoc, section)
		}
	}
	if t.Failed() {
		return
	}
	if os.Getenv("DXBAR_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(experimentsDoc, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if string(doc) != want {
		got, exp := strings.Split(string(doc), "\n"), strings.Split(want, "\n")
		for i := 0; i < len(got) && i < len(exp); i++ {
			if got[i] != exp[i] {
				t.Fatalf("%s:%d is stale (regenerate with DXBAR_UPDATE_GOLDEN=1 if intended):\n have %s\n want %s", experimentsDoc, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("%s: claim tables are stale (regenerate with DXBAR_UPDATE_GOLDEN=1 if intended)", experimentsDoc)
	}
}

// TestClaimScenariosRunEachConfigOnce holds the scenario pass to the rows: it
// simulates every run a row declares, and each distinct one exactly once.
func TestClaimScenariosRunEachConfigOnce(t *testing.T) {
	s, err := claimScenarios()
	if err != nil {
		t.Fatal(err)
	}
	declared, ran := map[string]bool{}, map[string]bool{}
	for _, c := range paperClaims {
		if c.run == nil {
			continue
		}
		for _, cfg := range c.run.runs {
			declared[runKey(cfg)] = true
		}
		for _, cfg := range c.run.splash {
			declared[splashKey(cfg)] = true
		}
	}
	for _, key := range s.ran {
		if ran[key] || !declared[key] {
			t.Errorf("simulated twice, or read by no row: %s", key)
		}
		ran[key] = true
	}
	if len(ran) != len(declared) {
		t.Errorf("simulated %d distinct runs, the rows declare %d", len(ran), len(declared))
	}
}

const claimsSeedsDoc = "results/claims_seeds.md"

// claimSeeds is how many seed offsets BenchmarkPaperClaimsSeeds evaluates.
const claimSeeds = 5

var claimsSeedsRow = regexp.MustCompile("(?m)^\\| `([^`]+)` \\|(.*)$")

// TestClaimsSeedsCoversEveryRow holds results/claims_seeds.md to the table:
// one line per paperClaims row and none other, each with the verdicts and one
// cell per seed.
func TestClaimsSeedsCoversEveryRow(t *testing.T) {
	doc, err := os.ReadFile(claimsSeedsDoc)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range claimsSeedsRow.FindAllStringSubmatch(string(doc), -1) {
		if rows[m[1]] || strings.Count(m[2], "|") != 1+claimSeeds {
			t.Errorf("%s: row %q is listed twice or has not %d cells after its id", claimsSeedsDoc, m[1], 1+claimSeeds)
		}
		rows[m[1]] = true
	}
	for _, c := range paperClaims {
		if !rows[c.id] {
			t.Errorf("%s is missing row %q (regenerate with `make claims-seeds`)", claimsSeedsDoc, c.id)
		}
		delete(rows, c.id)
	}
	for id := range rows {
		t.Errorf("%s lists %q, which is not a paperClaims row", claimsSeedsDoc, id)
	}
}

// BenchmarkPaperClaimsSeeds evaluates every paperClaims row at seed offsets
// k = 0–4: the quick figures at seeds 42+k, and k added to the seed of every
// run a row declares. It writes each row's verdicts and measured texts to
// results/claims_seeds.md (`make claims-seeds`), marking a row whose verdict
// differs across the seeds. k = 0 is what TestPaperClaims renders.
func BenchmarkPaperClaimsSeeds(b *testing.B) {
	var verdicts, cells [][]string // per row, one entry per seed
	for range b.N {
		verdicts, cells = make([][]string, len(paperClaims)), make([][]string, len(paperClaims))
		for k := int64(0); k < claimSeeds; k++ {
			f, err := quickFiguresAt(42 + k)
			if err != nil {
				b.Fatal(err)
			}
			s, err := scenariosAt(k)
			if err != nil {
				b.Fatal(err)
			}
			for j, c := range paperClaims {
				measured, v := c.evalAt(k, f, s)
				verdicts[j] = append(verdicts[j], string(v))
				cells[j] = append(cells[j], string(v)+" "+measured)
			}
		}
	}
	b.StopTimer()

	var rows strings.Builder
	varies := 0
	for j, c := range paperClaims {
		stable := strings.Join(verdicts[j], " ")
		if slices.ContainsFunc(verdicts[j], func(v string) bool { return v != verdicts[j][0] }) {
			varies++
			stable += " **varies**"
		}
		fmt.Fprintf(&rows, "| `%s` | %s | %s |\n", c.id, stable, strings.Join(cells[j], " | "))
	}
	doc := fmt.Sprintf(`# Paper claims across seeds

Every row of EXPERIMENTS.md's claim tables (`+"`paperClaims`"+`, claims_test.go)
evaluated at seed offsets k = 0–4: the quick figures at seeds 42+k, and k
added to the seed of every run a row declares (42+k; Ocean 11+k; the
seed-noise row's seeds 7+k–10+k). k = 0 is what EXPERIMENTS.md renders.
Regenerate with `+"`make claims-seeds`"+`.

**%d of %d rows change verdict across the %d seeds** (marked **varies**).

| row | verdicts, k = 0–4 | k = 0 | k = 1 | k = 2 | k = 3 | k = 4 |
|---|---|---|---|---|---|---|
%s`, varies, len(paperClaims), claimSeeds, rows.String())
	if err := os.WriteFile(claimsSeedsDoc, []byte(doc), 0o644); err != nil {
		b.Fatal(err)
	}
}
