package dxbar

import (
	"encoding/xml"
	"errors"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"dxbar/internal/metrics"
)

func sampleLineFigure() Figure {
	return Figure{
		ID: "fig5", Title: "Throughput, Uniform Random",
		XLabel: "offered load", YLabel: "accepted load",
		Series: []Series{
			{Label: "Flit-Bless", X: []float64{0.1, 0.3, 0.5}, Y: []float64{0.1, 0.27, 0.27}},
			{Label: "SCARAB", X: []float64{0.1, 0.3, 0.5}, Y: []float64{0.1, 0.26, 0.25}},
			{Label: "Buffered 4", X: []float64{0.1, 0.3, 0.5}, Y: []float64{0.1, 0.3, 0.32}},
			{Label: "Buffered 8", X: []float64{0.1, 0.3, 0.5}, Y: []float64{0.1, 0.3, 0.38}},
			{Label: "DXbar DOR", X: []float64{0.1, 0.3, 0.5}, Y: []float64{0.1, 0.3, 0.4}},
			{Label: "DXbar WF", X: []float64{0.1, 0.3, 0.5}, Y: []float64{0.1, 0.3, 0.31}},
		},
	}
}

func sampleBarFigure() Figure {
	names := []string{"UR", "NUR", "BR"}
	return Figure{
		ID: "fig7", Title: "Throughput by pattern",
		XLabel: "pattern", YLabel: "accepted load",
		Series: []Series{
			{Label: "DXbar DOR", X: []float64{0, 1, 2}, Y: []float64{0.4, 0.23, 0.16}, XNames: names},
			{Label: "Buffered 4", X: []float64{0, 1, 2}, Y: []float64{0.32, 0.19, 0.16}, XNames: names},
		},
	}
}

func assertWellFormedSVG(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("not well-formed XML: %v", err)
		}
	}
}

// All rendered coordinates must stay inside the canvas (the no-browser
// substitute for the "render it and look at it" check).
func assertCoordinatesInBounds(t *testing.T, svg string) {
	t.Helper()
	re := regexp.MustCompile(`(?:cx|cy|x1|x2|y1|y2|x|y)="(-?[0-9.]+)"`)
	for _, m := range re.FindAllStringSubmatch(svg, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("bad coordinate %q", m[1])
		}
		if v < -20 || v > 800 {
			t.Errorf("coordinate %v escapes the 760x440 canvas", v)
		}
	}
}

func TestFigureSVGLine(t *testing.T) {
	svg := FigureSVG(sampleLineFigure())
	assertWellFormedSVG(t, svg)
	assertCoordinatesInBounds(t, svg)
	for _, s := range sampleLineFigure().Series {
		if !strings.Contains(svg, s.Label) {
			t.Errorf("legend missing %q", s.Label)
		}
	}
}

func TestFigureSVGBar(t *testing.T) {
	svg := FigureSVG(sampleBarFigure())
	assertWellFormedSVG(t, svg)
	assertCoordinatesInBounds(t, svg)
	if !strings.Contains(svg, ">NUR</text>") {
		t.Error("categorical axis labels missing")
	}
}

func TestQualityPresets(t *testing.T) {
	if len(Quick.Loads) == 0 || len(Full.Loads) <= len(Quick.Loads) {
		t.Error("Full must sweep a longer load axis than Quick")
	}
	if Full.Warmup <= Quick.Warmup || Full.SplashSeeds <= Quick.SplashSeeds {
		t.Error("Full must run longer than Quick")
	}
}

func TestTable3Facade(t *testing.T) {
	rows := Table3()
	if len(rows) != 6 {
		t.Fatalf("Table3 rows = %d", len(rows))
	}
}

// End-to-end figure generation at a tiny quality (catches wiring breaks
// between the facade, the parallel runner and the figure assembly).
func TestFigure5And11EndToEnd(t *testing.T) {
	q := Quality{Warmup: 100, Measure: 400, Loads: []float64{0.1, 0.2},
		FaultFractions: []float64{0, 1.0}, SplashSeeds: 1}
	fig5, err := Figure5(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5.Series) != 6 {
		t.Fatalf("fig5 series = %d, want 6", len(fig5.Series))
	}
	for _, s := range fig5.Series {
		if len(s.Y) != len(q.Loads) {
			t.Fatalf("series %s has %d points", s.Label, len(s.Y))
		}
	}
	fig11, err := Figure11(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 2 algorithms × 2 fault fractions.
	if len(fig11.Series) != 4 {
		t.Fatalf("fig11 series = %d, want 4", len(fig11.Series))
	}
	assertWellFormedSVG(t, FigureSVG(fig5))
	assertWellFormedSVG(t, FigureSVG(fig11))
}

func TestFaultSweepShape(t *testing.T) {
	q := Quality{Warmup: 100, Measure: 300, Loads: []float64{0.1},
		FaultFractions: []float64{0, 0.5}, SplashSeeds: 1}
	pts, err := FaultSweep(q, 3, nil, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 { // 2 algos × 2 fractions × 1 load
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Routing != "DOR" && p.Routing != "WF" {
			t.Errorf("bad routing %q", p.Routing)
		}
		if p.Delivered == 0 {
			t.Errorf("point %+v delivered nothing", p)
		}
	}
}

// Exercise every figure generator end to end at a minimal quality — the
// wiring between facade, parallel runner and assembly must hold for each.
func TestAllFigureGeneratorsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs the full figure matrix")
	}
	q := Quality{Warmup: 100, Measure: 300, Loads: []float64{0.1},
		FaultFractions: []float64{0}, SplashSeeds: 1}
	pts, err6 := LoadSweepOpts("UR", q, 5, SweepOptions{})
	fig7, fig8, err78 := Figure7And8(q, 5, SweepOptions{})
	_, fig12, err12 := Figure11And12(q, 5, SweepOptions{})
	if err := errors.Join(err6, err78, err12); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		fig    Figure
		series int
	}{{Figure6From(pts), 6}, {fig7, 6}, {fig8, 6}, {fig12, 2}} { // fig12: 2 algos × 1 fraction
		fig := g.fig
		if len(fig.Series) != g.series {
			t.Errorf("%s: series = %d, want %d", fig.ID, len(fig.Series), g.series)
		}
		for _, s := range fig.Series {
			for _, y := range s.Y {
				if y < 0 {
					t.Errorf("%s/%s: negative value %v", fig.ID, s.Label, y)
				}
			}
		}
		assertWellFormedSVG(t, FigureSVG(fig))
	}
}

// A figure pair regenerated together runs its sweep once — PointCount runs,
// not twice that — and yields exactly the figure the single-figure entry
// point returns, and the pair's second figure with no options (what
// dxbar-sweep -fig all relies on). The options reach every
// run of the sweep: a shared registry sees their cycles and flits, and each
// completed point is archived once (the `dxbar-sweep -fig 7 -http -ledger`
// path, which used to serve only the diag families).
func TestFigurePairsShareOneSweep(t *testing.T) {
	q := Quality{Warmup: 100, Measure: 300, Loads: []float64{0.1},
		FaultFractions: []float64{0, 1.0}, SplashSeeds: 1}
	for _, pair := range []struct {
		id   string
		both func(Quality, int64, SweepOptions) (Figure, Figure, error)
		a    func(Quality, int64) (Figure, error)
	}{
		{"7", Figure7And8, Figure7},
		{"11", Figure11And12, Figure11},
	} {
		var runs atomic.Int64
		reg := metrics.NewRegistry()
		opts := SweepOptions{
			Metrics: reg, LedgerDir: t.TempDir(),
			OnRunDone: func() { runs.Add(1) },
		}
		figA, figB, err := pair.both(q, 5, opts)
		if err != nil {
			t.Fatalf("fig %s pair: %v", pair.id, err)
		}
		want := PointCount(pair.id, q)
		if got := runs.Load(); got != int64(want) {
			t.Errorf("fig %s pair: %d runs, want PointCount = %d", pair.id, got, want)
		}
		for _, name := range []string{metrics.MetricCycles, metrics.MetricEjectedFlits} {
			if v, _ := reg.Sum(name); v <= 0 {
				t.Errorf("fig %s pair: %s = %v on the sweep's registry, want > 0", pair.id, name, v)
			}
		}
		if v, _ := reg.Sum(metrics.MetricLedgerRecords); v != float64(want) {
			t.Errorf("fig %s pair: %s = %v, want PointCount = %d", pair.id, metrics.MetricLedgerRecords, v, want)
		}
		wantA, errA := pair.a(q, 5)
		_, wantB, errB := pair.both(q, 5, SweepOptions{})
		if errA != nil || errB != nil {
			t.Fatalf("fig %s singles: %v, %v", pair.id, errA, errB)
		}
		if !reflect.DeepEqual(figA, wantA) || !reflect.DeepEqual(figB, wantB) {
			t.Errorf("fig %s pair differs from the single-figure entry point or the bare pair", pair.id)
		}
	}
}

// Figures 9/10 come from one closed-loop matrix (Figure9And10); the pair
// paperClaims reads at quick quality is checked for its shape here.
func TestSplashFiguresEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: 6 designs x 9 benchmarks")
	}
	f, err := claimFigures()
	if err != nil {
		t.Fatal(err)
	}
	fig9, fig10 := f.fig9, f.fig10
	if len(fig9.Series) != 6 {
		t.Fatalf("fig9 series = %d", len(fig9.Series))
	}
	// Normalization: the Buffered 4 series must be exactly 1.0 everywhere.
	for _, s := range fig9.Series {
		if s.Label != "Buffered 4" {
			continue
		}
		for i, y := range s.Y {
			if y != 1.0 {
				t.Errorf("baseline normalization broken at %s: %v", s.XNames[i], y)
			}
		}
	}
	for _, s := range fig10.Series {
		for _, y := range s.Y {
			if y <= 0 {
				t.Errorf("fig10 %s: non-positive energy %v", s.Label, y)
			}
		}
	}
}

// Heatmap rendering through the facade.
func TestHeatmapFacade(t *testing.T) {
	res := run(t, Config{Design: DesignDXbar, Pattern: "NUR", Load: 0.2,
		WarmupCycles: 200, MeasureCycles: 800, Seed: 3, TrackUtilization: true})
	hm := Heatmap(res)
	if len(hm) == 0 || hm == "(utilization tracking was not enabled)" {
		t.Errorf("heatmap missing: %q", hm)
	}
	res2, _ := Run(Config{Design: DesignDXbar, Pattern: "UR", Load: 0.1,
		WarmupCycles: 100, MeasureCycles: 200, Seed: 3})
	if Heatmap(res2) != "(utilization tracking was not enabled)" {
		t.Error("untracked run must say tracking was off")
	}
}
