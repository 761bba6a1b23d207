package dxbar

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The paper's claims as one checked table. Every row names a section of
// EXPERIMENTS.md (Table III, Figs. 5-12), states the paper's claim with its
// quoted value or ordering and the tolerance it is held to, and extracts the
// measured text and a verdict from one of two sources, each built once per
// test process:
//
//   - the quick figures: exactly what `dxbar-sweep -fig all -quality quick
//     -seed 42` prints;
//   - the named scenarios: the operating points the headline tests have
//     always used (UR 0.45 past saturation, the zero-load pair, the load-0.35
//     fault quartet, the crosspoint pair, Ocean at seed 11).
//
// TestPaperClaims renders each section's rows between its
// <!-- claims:<section> --> markers in EXPERIMENTS.md and fails on any byte of
// difference; DXBAR_UPDATE_GOLDEN=1 rewrites the blocks instead. A row with a
// guard is also required to hold (✓) by the one-line test of that name.

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
	// named scenarios.
	fig func(*quickFigures) (string, verdict)
	run func(*scenarioSet) (string, verdict)
}

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
	return c.run(s)
}

// quickFigures is the output of `dxbar-sweep -fig all -quality quick -seed 42`.
type quickFigures struct {
	table3                                            []Table3Row
	fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12 Figure
}

var claimFigures = sync.OnceValues(func() (*quickFigures, error) {
	const seed = 42
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
})

// scenarioSet holds the headline tests' operating points.
type scenarioSet struct {
	at45                     map[Design]Result // UR 0.45, 1000+4000 cycles, seed 42
	zeroDX, zeroFB           Result            // UR 0.05, 500+2000 cycles, seed 42
	dor0, dor100, wf0, wf100 Result            // DXbar UR 0.35, 0 and 100 % crossbar faults
	crosspoint, crossbar     Result            // DXbar UR 0.35, 100 % faults of each granularity
	ocean                    map[Design]SplashResult
}

var claimScenarios = sync.OnceValues(func() (*scenarioSet, error) {
	s := &scenarioSet{at45: map[Design]Result{}, ocean: map[Design]SplashResult{}}
	var cfgs []Config
	var into []func(Result)
	add := func(c Config, set func(Result)) {
		cfgs = append(cfgs, c)
		into = append(into, set)
	}
	for _, d := range []Design{DesignDXbar, DesignBuffered8, DesignBuffered4, DesignFlitBless, DesignSCARAB, DesignUnified} {
		add(Config{Design: d, Routing: "DOR", Pattern: "UR", Load: 0.45,
			WarmupCycles: 1000, MeasureCycles: 4000, Seed: 42}, func(r Result) { s.at45[d] = r })
	}
	zero := func(d Design) Config {
		return Config{Design: d, Pattern: "UR", Load: 0.05, WarmupCycles: 500, MeasureCycles: 2000, Seed: 42}
	}
	add(zero(DesignDXbar), func(r Result) { s.zeroDX = r })
	add(zero(DesignFlitBless), func(r Result) { s.zeroFB = r })
	faulted := func(routing string, fraction float64, granularity string) Config {
		return Config{Design: DesignDXbar, Routing: routing, Pattern: "UR", Load: 0.35,
			WarmupCycles: 1000, MeasureCycles: 4000, Seed: 42,
			FaultFraction: fraction, FaultCycle: 10, FaultGranularity: granularity}
	}
	add(faulted("DOR", 0, ""), func(r Result) { s.dor0 = r })
	add(faulted("DOR", 1.0, ""), func(r Result) { s.dor100 = r })
	add(faulted("WF", 0, ""), func(r Result) { s.wf0 = r })
	add(faulted("WF", 1.0, ""), func(r Result) { s.wf100 = r })
	add(faulted("", 1.0, "crosspoint"), func(r Result) { s.crosspoint = r })
	add(faulted("", 1.0, "crossbar"), func(r Result) { s.crossbar = r })
	results, err := RunMany(cfgs, 0)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		into[i](r)
	}
	oceanDesigns := []Design{DesignDXbar, DesignFlitBless, DesignBuffered4}
	var splash []SplashConfig
	for _, d := range oceanDesigns {
		splash = append(splash, SplashConfig{Design: d, Benchmark: "Ocean", Seed: 11})
	}
	runs, err := RunManySplash(splash, 0)
	if err != nil {
		return nil, err
	}
	for i, d := range oceanDesigns {
		s.ocean[d] = runs[i]
	}
	return s, nil
})

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
			run: func(s *scenarioSet) (string, verdict) {
				dx, b8 := s.at45[DesignDXbar].AcceptedLoad, s.at45[DesignBuffered8].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f", dx, b8), holds(dx > b8)
			}},
		{id: "fig5-045-buffered8-over-buffered4", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "past saturation Buffered 8 accepts more than Buffered 4", tol: "strict",
			run: func(s *scenarioSet) (string, verdict) {
				b8, b4 := s.at45[DesignBuffered8].AcceptedLoad, s.at45[DesignBuffered4].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f", b8, b4), holds(b8 > b4)
			}},
		{id: "fig5-045-buffered4-over-bufferless", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "past saturation Buffered 4 accepts more than Flit-Bless and SCARAB", tol: "strict",
			run: func(s *scenarioSet) (string, verdict) {
				b4, fb, sc := s.at45[DesignBuffered4].AcceptedLoad, s.at45[DesignFlitBless].AcceptedLoad, s.at45[DesignSCARAB].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f / %.3f", b4, fb, sc), holds(b4 > fb && b4 > sc)
			}},
		{id: "fig5-045-dxbar-saturation", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "DXbar-DOR saturates above 0.4 of capacity", tol: "≥ 0.38",
			run: func(s *scenarioSet) (string, verdict) {
				dx := s.at45[DesignDXbar].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f", dx), holds(dx >= 0.38)
			}},
		{id: "fig5-045-bufferless-saturation", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "Flit-Bless and SCARAB saturate below 0.3", tol: "≤ 0.31 each",
			run: func(s *scenarioSet) (string, verdict) {
				fb, sc := s.at45[DesignFlitBless].AcceptedLoad, s.at45[DesignSCARAB].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f / %.3f", fb, sc), holds(fb <= 0.31 && sc <= 0.31)
			}},
		{id: "fig5-045-dxbar-gain-buffered4", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "DXbar-DOR ≥ +40 % over Buffered 4", tol: "≥ +20 %",
			run: func(s *scenarioSet) (string, verdict) {
				dx, b4 := s.at45[DesignDXbar].AcceptedLoad, s.at45[DesignBuffered4].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %+.1f %% (%.3f vs %.3f)", gain(dx, b4), dx, b4), holds(dx >= 1.2*b4)
			}},
		{id: "fig5-045-dxbar-gain-flitbless", section: "fig5", guard: "TestHeadlineThroughputOrdering",
			claim: "DXbar-DOR ≥ +40 % over Flit-Bless", tol: "≥ +40 %",
			run: func(s *scenarioSet) (string, verdict) {
				dx, fb := s.at45[DesignDXbar].AcceptedLoad, s.at45[DesignFlitBless].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %+.1f %% (%.3f vs %.3f)", gain(dx, fb), dx, fb), holds(dx >= 1.4*fb)
			}},
		{id: "fig5-045-unified-tracks-dual", section: "fig5", guard: "TestUnifiedMatchesDual",
			claim: "the unified crossbar performs like the dual crossbar (§II.B)", tol: "≥ 95 % of dual's accepted load",
			run: func(s *scenarioSet) (string, verdict) {
				un, dx := s.at45[DesignUnified].AcceptedLoad, s.at45[DesignDXbar].AcceptedLoad
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f", un, dx), holds(un >= 0.95*dx)
			}},

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
			run: func(s *scenarioSet) (string, verdict) {
				dx, b4, b8 := s.at45[DesignDXbar].AvgEnergyNJ, s.at45[DesignBuffered4].AvgEnergyNJ, s.at45[DesignBuffered8].AvgEnergyNJ
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f / %.3f", dx, b4, b8), holds(dx < b4 && dx < b8)
			}},
		{id: "fig6-045-flitbless-factor", section: "fig6", guard: "TestHeadlineEnergyOrdering",
			claim: "Flit-Bless's energy blows past DXbar's beyond saturation", tol: "> 1.5×",
			run: func(s *scenarioSet) (string, verdict) {
				fb, dx := s.at45[DesignFlitBless].AvgEnergyNJ, s.at45[DesignDXbar].AvgEnergyNJ
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f = %.2f×", fb, dx, fb/dx), holds(fb > 1.5*dx)
			}},
		{id: "fig6-045-scarab-above", section: "fig6", guard: "TestHeadlineEnergyOrdering",
			claim: "SCARAB spends more energy than DXbar", tol: "strict",
			run: func(s *scenarioSet) (string, verdict) {
				sc, dx := s.at45[DesignSCARAB].AvgEnergyNJ, s.at45[DesignDXbar].AvgEnergyNJ
				return fmt.Sprintf("UR 0.45: %.3f vs %.3f", sc, dx), holds(sc > dx)
			}},
		{id: "fig6-045-dxbar-saving", section: "fig6", guard: "TestHeadlineEnergyOrdering",
			claim: "DXbar saves ≥ 15 % energy over Buffered 4", tol: "≤ 0.85× Buffered 4",
			run: func(s *scenarioSet) (string, verdict) {
				dx, b4 := s.at45[DesignDXbar].AvgEnergyNJ, s.at45[DesignBuffered4].AvgEnergyNJ
				return fmt.Sprintf("UR 0.45: %+.0f %% (%.3f vs %.3f)", gain(dx, b4), dx, b4), holds(dx <= 0.85*b4)
			}},
		{id: "fig6-005-zero-load-parity", section: "fig6", guard: "TestZeroLoadEnergyParity",
			claim: "Flit-Bless uses as little energy as DXbar at zero load", tol: "0.95–1.10× DXbar",
			run: func(s *scenarioSet) (string, verdict) {
				dx, fb := s.zeroDX.AvgEnergyNJ, s.zeroFB.AvgEnergyNJ
				return fmt.Sprintf("UR 0.05: %.4f vs %.4f", fb, dx), holds(fb >= 0.95*dx && fb <= 1.1*dx)
			}},
		{id: "fig6-045-unified-energy", section: "fig6", guard: "TestUnifiedMatchesDual",
			claim: "the unified crossbar pays +2 pJ/flit switching energy (15 vs 13)", tol: "unified > dual",
			run: func(s *scenarioSet) (string, verdict) {
				un, dx := s.at45[DesignUnified].AvgEnergyNJ, s.at45[DesignDXbar].AvgEnergyNJ
				return fmt.Sprintf("UR 0.45: %.4f vs %.4f", un, dx), holds(un > dx)
			}},

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
			run: func(s *scenarioSet) (string, verdict) {
				dx, fb := s.ocean[DesignDXbar].ExecutionCycles, s.ocean[DesignFlitBless].ExecutionCycles
				return fmt.Sprintf("Ocean, seed 11: %d vs %d cycles", dx, fb), holds(dx < fb)
			}},
		{id: "fig9-ocean11-dxbar-beats-buffered4", section: "fig9", guard: "TestHeadlineSplashOcean",
			claim: "DXbar finishes Ocean before Buffered 4", tol: "strict",
			run: func(s *scenarioSet) (string, verdict) {
				dx, b4 := s.ocean[DesignDXbar].ExecutionCycles, s.ocean[DesignBuffered4].ExecutionCycles
				return fmt.Sprintf("Ocean, seed 11: %d vs %d cycles", dx, b4), holds(dx < b4)
			}},

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
			run: func(s *scenarioSet) (string, verdict) {
				dx, fb, b4 := s.ocean[DesignDXbar].AvgEnergyNJ, s.ocean[DesignFlitBless].AvgEnergyNJ, s.ocean[DesignBuffered4].AvgEnergyNJ
				return fmt.Sprintf("Ocean, seed 11: %.3f vs %.3f / %.3f nJ/packet", dx, fb, b4), holds(dx < fb && dx < b4)
			}},

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
			run: func(s *scenarioSet) (string, verdict) {
				loss := 1 - s.dor100.AcceptedLoad/s.dor0.AcceptedLoad
				return fmt.Sprintf("UR 0.35: %.1f %% (%.3f vs %.3f)", loss*100, s.dor100.AcceptedLoad, s.dor0.AcceptedLoad), holds(loss <= 0.10)
			}},
		{id: "fig11-035-wf-loss", section: "fig11-12", guard: "TestHeadlineFaultDegradation",
			claim: "WF degrades at least as much as DOR", tol: "WF loss ≥ DOR loss",
			run: func(s *scenarioSet) (string, verdict) {
				dor := 1 - s.dor100.AcceptedLoad/s.dor0.AcceptedLoad
				wf := 1 - s.wf100.AcceptedLoad/s.wf0.AcceptedLoad
				return fmt.Sprintf("UR 0.35: WF %.1f %% vs DOR %.1f %%", wf*100, dor*100), holds(wf >= dor)
			}},
		{id: "fig12-035-energy-rises", section: "fig11-12", guard: "TestHeadlineFaultDegradation",
			claim: "energy rises with faults (buffered power)", tol: "DOR, strict",
			run: func(s *scenarioSet) (string, verdict) {
				e0, e100 := s.dor0.AvgEnergyNJ, s.dor100.AvgEnergyNJ
				return fmt.Sprintf("UR 0.35: %.3f → %.3f nJ/packet", e0, e100), holds(e100 > e0)
			}},
		{id: "xpoint-035-throughput", section: "fig11-12", guard: "TestCrosspointFaultsGentlerThanCrossbarFaults",
			claim: "(extension) single-crosspoint faults hurt less than whole-crossbar faults", tol: "crosspoint accepted ≥ crossbar accepted",
			run: func(s *scenarioSet) (string, verdict) {
				xp, xb := s.crosspoint.AcceptedLoad, s.crossbar.AcceptedLoad
				return fmt.Sprintf("UR 0.35, 100 %% faults: %.3f vs %.3f", xp, xb), holds(xp >= xb)
			}},
		{id: "xpoint-035-latency", section: "fig11-12", guard: "TestCrosspointFaultsGentlerThanCrossbarFaults",
			claim: "(extension) single-crosspoint faults barely dent latency", tol: "≤ 3× healthy DXbar-DOR at UR 0.45",
			run: func(s *scenarioSet) (string, verdict) {
				xp, healthy := s.crosspoint.AvgLatency, s.at45[DesignDXbar].AvgLatency
				return fmt.Sprintf("UR 0.35, 100 %% faults: %.1f vs %.1f cycles", xp, healthy), holds(xp <= 3*healthy)
			}},
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
