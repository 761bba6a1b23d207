// Command dxbar-sweep regenerates the paper's evaluation figures and
// tables. Each figure is printed as an aligned text table and, with -out,
// written as CSV (and optionally SVG and Markdown) ready for plotting and
// reports.
//
// Example:
//
//	dxbar-sweep -fig 5 -quality full -out results/ -svg -md
//	dxbar-sweep -fig 5 -hist -out results/   # + per-point latency histograms
//	dxbar-sweep -fig all -quality quick
//	dxbar-sweep -fig table3
//	dxbar-sweep -fig all -quality full -http :8080   # live /metrics + /progress
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dxbar"
	"dxbar/internal/diag"
	"dxbar/internal/metrics"
	"dxbar/internal/report"
)

// logger is the tool-wide structured logger, configured from -v and
// -log-format before anything can fail.
var logger *slog.Logger

func main() {
	var (
		figFlag     = flag.String("fig", "all", "figure to regenerate: 5 6 7 8 9 10 11 12 | table3 | all")
		quality     = flag.String("quality", "quick", "quick | full")
		seed        = flag.Int64("seed", 42, "random seed")
		outDir      = flag.String("out", "", "directory for file output (optional)")
		svg         = flag.Bool("svg", false, "also write an SVG rendering of each figure to -out")
		md          = flag.Bool("md", false, "also write a Markdown table of each figure to -out")
		hist        = flag.Bool("hist", false, "for figs 5/6: print the per-point latency table and write per-point latency histograms (NDJSON + CSV) to -out")
		trace       = flag.Int("trace", 0, "for figs 5/6 with -hist: flight-recorder ring capacity per sweep point; writes one Chrome trace JSON per point to -out (0 disables)")
		shards      = flag.Int("shards", 0, "parallel tile workers per run of the -hist load sweep, each owning its nodes' whole cycle (0/1 sequential, -1 = one per CPU); results are bit-identical either way")
		profile     = flag.Bool("shard-profile", false, "with -hist and -shards > 1: print the final sweep point's per-shard execution profile")
		httpAddr    = flag.String("http", "", "serve live telemetry on this address (dashboard at /, /live JSON, /metrics, /healthz, /progress, /debug/pprof), e.g. :8080")
		quiet       = flag.Bool("quiet", false, "suppress the periodic progress line on stderr")
		ledgerDir   = flag.String("ledger", "", "run-ledger directory: archive each completed sweep point's Result under its content key (see dxbar-report)")
		ledgerReuse = flag.Bool("ledger-reuse", false, "serve sweep points from identical archived records in -ledger instead of re-simulating")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")

		verbose   = flag.Bool("v", false, "verbose (debug-level) logging")
		logFormat = flag.String("log-format", diag.LogText, "structured log format on stderr: text | json")
		diagDir   = flag.String("diag-dir", "", "directory for post-mortem diagnostic bundles (anomaly, SIGQUIT, panic); empty disables bundles (detectors still run)")
	)
	flag.Parse()
	if err := validate(*figFlag, *quality); err != nil {
		fmt.Fprintln(os.Stderr, "dxbar-sweep:", err)
		os.Exit(2)
	}

	var err error
	logger, err = diag.NewLogger(os.Stderr, *logFormat, *verbose)
	if err != nil {
		fatal(err)
	}
	defer diag.InstallSignalHandlers(logger)()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	q := qualities[*quality]
	want := func(id string) bool { return *figFlag == "all" || *figFlag == id }

	// Each pair of figures derives from one sweep, so a pair costs that
	// sweep's runs once however many of its two figures are wanted. The load
	// sweep behind figs 5/6 keeps its points: with -hist they also feed the
	// latency table, the histogram export, the shard profile and the traces.
	var pts []dxbar.SweepPoint
	loadSweep := func(q dxbar.Quality, seed int64, o dxbar.SweepOptions) (dxbar.Figure, dxbar.Figure, error) {
		if *hist {
			o.EventTrace, o.Shards, o.ShardProfile = *trace, *shards, *profile
		}
		var err error
		pts, err = dxbar.LoadSweepOpts("UR", q, seed, o)
		return dxbar.Figure5From(pts), dxbar.Figure6From(pts), err
	}
	pairs := []struct {
		a, b string
		run  func(dxbar.Quality, int64, dxbar.SweepOptions) (dxbar.Figure, dxbar.Figure, error)
	}{
		{"5", "6", loadSweep},
		{"7", "8", dxbar.Figure7And8},
		{"9", "10", dxbar.Figure9And10},
		{"11", "12", dxbar.Figure11And12},
	}
	total := 0
	for _, p := range pairs {
		if want(p.a) || want(p.b) {
			total += dxbar.PointCount(p.a, q)
		}
	}

	// Live telemetry and progress: every completed run fires opts.OnRunDone,
	// feeding one Progress that serves both the stderr line and the /progress
	// endpoint. Publication never touches simulation state, so results are
	// bit-identical with telemetry on or off.
	prog := metrics.NewProgress("points", uint64(total))
	var reg *metrics.Registry
	if *httpAddr != "" {
		reg = metrics.NewRegistry()
		srv, err := metrics.StartServer(*httpAddr, reg, prog)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		logger.Info("telemetry server up", "url", fmt.Sprintf("http://%s/metrics", srv.Addr()))
	}
	if *diagDir != "" && reg == nil {
		// Bundles include a metrics snapshot; give the runs a registry even
		// when no live telemetry server was requested.
		reg = metrics.NewRegistry()
	}
	// What every run behind every figure inherits: the shared registry (the
	// monitor's metrics default into it), logger and bundle directory, and
	// the ledger to archive into (and with -ledger-reuse be served from).
	opts := dxbar.SweepOptions{
		Metrics: reg, LedgerDir: *ledgerDir, LedgerReuse: *ledgerReuse,
		Diag: &diag.Config{Logger: logger}, DiagDir: *diagDir,
		OnRunDone: func() { prog.Add(1) },
	}
	if *diagDir != "" {
		// A crash mid-sweep still leaves a post-mortem behind.
		defer func() {
			if r := recover(); r != nil {
				if path, err := diag.WritePanicBundle(*diagDir, reg, r); err == nil {
					logger.Error("panic bundle written", "dir", path)
				}
				panic(r)
			}
		}()
	}
	if !*quiet {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					logger.Info("progress", "points", prog.Snapshot())
				}
			}
		}()
	}

	if want("table3") {
		emitTable3(*outDir, *md)
	}
	for _, p := range pairs {
		if !want(p.a) && !want(p.b) {
			continue
		}
		if diag.Interrupted() {
			logger.Warn("interrupted; stopping before figures", "figs", p.a+"/"+p.b)
			break
		}
		figA, figB, err := p.run(q, *seed, opts)
		if err != nil {
			fatal(err)
		}
		if want(p.a) {
			emitFigure(figA, *outDir, *svg, *md)
		}
		if want(p.b) {
			emitFigure(figB, *outDir, *svg, *md)
		}
		if p.a == "5" && *hist {
			emitLatency(pts, *outDir)
			if *profile && len(pts) > 0 {
				last := pts[len(pts)-1]
				fmt.Print(dxbar.ShardProfileText(
					fmt.Sprintf("Shard execution profile, %s @ %.2f", last.Label, last.Load), last.Result))
				fmt.Println()
			}
			if *trace > 0 && *outDir != "" {
				emitTraces(pts, *outDir)
			}
		}
	}
	if diag.Interrupted() {
		logger.Warn("sweep interrupted; figures emitted so far are complete, the rest were skipped")
	}
}

// qualities are the -quality values.
var qualities = map[string]dxbar.Quality{"quick": dxbar.Quick, "full": dxbar.Full}

// validate rejects a -fig or -quality no figure or quality answers to, before
// any cycle is simulated. PointCount knows the figure IDs: every figure costs
// runs, an unknown ID none.
func validate(fig, quality string) error {
	q, ok := qualities[quality]
	if !ok {
		return fmt.Errorf("unknown -quality %q (quick | full)", quality)
	}
	if fig != "all" && fig != "table3" && dxbar.PointCount(fig, q) == 0 {
		return fmt.Errorf("unknown -fig %q (5 6 7 8 9 10 11 12 | table3 | all)", fig)
	}
	return nil
}

// emitLatency prints the per-point latency comparison table (flagging
// truncated runs) and writes the per-point histograms to -out as
// fig5_latency.ndjson and fig5_latency.csv.
func emitLatency(pts []dxbar.SweepPoint, outDir string) {
	var rows []report.LatencyRow
	var hists []report.HistogramRecord
	for _, p := range pts {
		rows = append(rows, dxbar.LatencyRowFor(p.Label, p.Result))
		hists = append(hists, dxbar.HistogramRecordFor(p.Label, p.Result))
	}
	fmt.Print(dxbar.LatencyTableText("Per-point latency distribution, Uniform Random", rows))
	fmt.Println()
	if outDir == "" {
		return
	}
	writeFile(outDir, "fig5_latency.ndjson", func(f *os.File) error { return dxbar.WriteHistogramsNDJSON(f, hists) })
	writeFile(outDir, "fig5_latency.csv", func(f *os.File) error { return dxbar.WriteHistogramsCSV(f, hists) })
}

// emitTraces writes one Chrome trace-event JSON per traced sweep point
// (trace_<label>_<load>.json, spaces dashed), loadable at ui.perfetto.dev.
func emitTraces(pts []dxbar.SweepPoint, outDir string) {
	for _, p := range pts {
		label := fmt.Sprintf("%s %.2f", p.Label, p.Load)
		name := "trace_" + strings.ReplaceAll(label, " ", "_") + ".json"
		rec := dxbar.TraceRecordFor(label, p.Result)
		writeFile(outDir, name, func(f *os.File) error { return dxbar.WriteChromeTrace(f, rec) })
	}
	fmt.Printf("wrote %d per-point traces to %s (open at ui.perfetto.dev)\n\n", len(pts), outDir)
}

func fatal(err error) {
	if logger != nil {
		logger.Error("fatal", "err", err)
	} else {
		fmt.Fprintln(os.Stderr, "dxbar-sweep:", err)
	}
	os.Exit(1)
}

func table3Report() report.Table {
	t := report.Table{
		Title:   "Table III: area and energy estimation (65 nm, 1.0 V, 1 GHz)",
		Columns: []string{"design", "area (mm^2)", "buffer energy (pJ/flit)"},
	}
	for _, r := range dxbar.Table3() {
		t.Rows = append(t.Rows, []string{
			r.Design,
			strconv.FormatFloat(r.AreaMM2, 'f', 4, 64),
			strconv.FormatFloat(r.BufferEnergyPJ, 'f', 1, 64),
		})
	}
	return t
}

func emitTable3(outDir string, md bool) {
	t := table3Report()
	if err := report.WriteTableText(os.Stdout, t); err != nil {
		fatal(err)
	}
	fmt.Println()
	if outDir == "" {
		return
	}
	writeFile(outDir, "table3.csv", func(f *os.File) error { return report.WriteTableCSV(f, t) })
	if md {
		writeFile(outDir, "table3.md", func(f *os.File) error { return report.WriteTableMarkdown(f, t) })
	}
}

func emitFigure(fig dxbar.Figure, outDir string, svg, md bool) {
	if err := report.WriteText(os.Stdout, fig); err != nil {
		fatal(err)
	}
	if outDir == "" {
		return
	}
	writeFile(outDir, fig.ID+".csv", func(f *os.File) error { return report.WriteCSV(f, fig) })
	if svg {
		writeFile(outDir, fig.ID+".svg", func(f *os.File) error {
			_, err := f.WriteString(dxbar.FigureSVG(fig))
			return err
		})
	}
	if md {
		writeFile(outDir, fig.ID+".md", func(f *os.File) error { return report.WriteMarkdown(f, fig) })
	}
}

func writeFile(dir, name string, fill func(*os.File) error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fill(f); err != nil {
		fatal(err)
	}
}
