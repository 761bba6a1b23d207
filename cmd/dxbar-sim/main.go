// Command dxbar-sim runs one open-loop synthetic-traffic simulation and
// prints the measured metrics.
//
// Example:
//
//	dxbar-sim -design dxbar -routing WF -pattern NUR -load 0.4
//	dxbar-sim -design dxbar -load 0.3 -faults 0.5   # Fig. 11/12 style run
//	dxbar-sim -load 0.45 -sample-interval 200 -out results/ -svg
//	dxbar-sim -measure 2000000 -shards -1 -http :8080   # watch /metrics live
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

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
		design   = flag.String("design", "dxbar", "router design, one of "+fmt.Sprint(dxbar.AllDesigns))
		routing  = flag.String("routing", "DOR", "routing algorithm: DOR | WF")
		pattern  = flag.String("pattern", "UR", "traffic pattern: UR NUR BR BF CP MT PS NB TOR")
		load     = flag.Float64("load", 0.3, "offered load in flits/node/cycle (fraction of capacity)")
		width    = flag.Int("width", 8, "mesh width")
		height   = flag.Int("height", 8, "mesh height")
		warmup   = flag.Uint64("warmup", 2000, "warmup cycles")
		measure  = flag.Uint64("measure", 8000, "measurement cycles")
		seed     = flag.Int64("seed", 42, "random seed")
		flits    = flag.Int("flits", 1, "flits per packet")
		faults   = flag.Float64("faults", 0, "fraction of routers with one failed crossbar (dxbar/unified only)")
		gran     = flag.String("fault-granularity", "crossbar", "crossbar | crosspoint")
		heatmap  = flag.Bool("heatmap", false, "print an ASCII link-utilization heatmap")
		interval = flag.Uint64("sample-interval", 0, "time-series sampling interval in cycles (0 disables)")
		outDir   = flag.String("out", "", "directory for NDJSON/CSV export of the latency histogram and time series")
		svg      = flag.Bool("svg", false, "also write a latency-CDF and time-series SVG to -out")
		trace    = flag.Int("trace", 0, "flight-recorder ring capacity in events (0 disables runtime event tracing)")
		traceOut = flag.String("trace-out", "", "write the recorded events as Chrome trace-event JSON to this file (load at ui.perfetto.dev; requires -trace)")
		traceEv  = flag.String("trace-events", "", "comma-separated event kinds to record (default all; e.g. inject,buffered,eject)")
		shards   = flag.Int("shards", 0, "parallel tile workers, each owning its nodes' whole cycle (0/1 sequential, -1 auto-sizes to CPUs; bit-identical results)")
		httpAddr = flag.String("http", "", "serve live telemetry on this address (dashboard at /, /live JSON, /metrics, /healthz, /progress, /debug/pprof), e.g. :8080")
		profile  = flag.Bool("shard-profile", false, "print the per-shard execution profile after the run (requires -shards > 1)")

		ledgerDir   = flag.String("ledger", "", "run-ledger directory: archive the completed run's full Result under its content key (see dxbar-report)")
		ledgerReuse = flag.Bool("ledger-reuse", false, "serve the run from an identical archived record in -ledger instead of re-simulating, when one exists")

		ckptInterval = flag.Uint64("checkpoint-interval", 0, "write a checkpoint every N cycles into -checkpoint-dir (0 disables)")
		ckptDir      = flag.String("checkpoint-dir", "", "directory for checkpoint files (required with -checkpoint-interval)")
		ckptKeep     = flag.Int("checkpoint-keep", 0, "checkpoint files to retain (0 = default 3)")
		resume       = flag.String("resume", "", "resume a checkpointed run: a ckpt-*.dxsn file, or a directory (newest checkpoint wins); other config flags are ignored")
		rewind       = flag.String("rewind", "", "re-run a window from this checkpoint file with the flight recorder widened to every event kind; combine with -trace to size the ring")
		rewindWindow = flag.Uint64("rewind-window", 512, "cycles to re-run after -rewind")

		verbose    = flag.Bool("v", false, "verbose (debug-level) logging")
		logFormat  = flag.String("log-format", diag.LogText, "structured log format on stderr: text | json")
		diagDir    = flag.String("diag-dir", "", "directory for post-mortem diagnostic bundles (anomaly, SIGQUIT, panic); empty disables bundles (detectors still run)")
		diagStall  = flag.Uint64("diag-stall", 0, "stall-watchdog threshold in cycles without an ejection while flits are in flight (0 = default)")
		diagMaxAge = flag.Uint64("diag-max-age", 0, "starvation threshold: max in-flight flit age in cycles (0 = default)")
		diagWindow = flag.Uint64("diag-window", 0, "anomaly-detector window in cycles (0 = default)")
	)
	flag.Parse()
	if err := validate(*ckptInterval, *ckptDir, *ledgerReuse, *ledgerDir, *traceOut, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "dxbar-sim:", err)
		os.Exit(2)
	}

	var err error
	logger, err = diag.NewLogger(os.Stderr, *logFormat, *verbose)
	if err != nil {
		fatal(err)
	}
	defer diag.InstallSignalHandlers(logger)()

	var kinds []string
	if *traceEv != "" {
		kinds = []string{*traceEv}
	}

	// Live telemetry: the engine publishes into the registry while running;
	// the server reads it without ever touching simulation state, so results
	// are bit-identical with -http on or off.
	var (
		reg  *metrics.Registry
		prog *metrics.Progress
	)
	if *httpAddr != "" {
		reg = metrics.NewRegistry()
		prog = metrics.NewProgress("cycles", *warmup+*measure)
		srv, err := metrics.StartServer(*httpAddr, reg, prog)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		logger.Info("telemetry server up", "url", fmt.Sprintf("http://%s/metrics", srv.Addr()))
	}
	if *diagDir != "" && reg == nil {
		// Bundles include a metrics snapshot; give the run a registry even
		// when no live telemetry server was requested.
		reg = metrics.NewRegistry()
	}
	if *diagDir != "" {
		// A crash mid-run still leaves a post-mortem behind.
		defer func() {
			if r := recover(); r != nil {
				if path, err := diag.WritePanicBundle(*diagDir, reg, r); err == nil {
					logger.Error("panic bundle written", "dir", path)
				}
				panic(r)
			}
		}()
	}

	// The diag config a run gets regardless of how it starts (fresh, resumed
	// or rewound): saved checkpoints scrub live handles, so resume/rewind
	// reattach this process's logger, registry and thresholds.
	diagCfg := &diag.Config{
		StallCycles: *diagStall,
		MaxFlitAge:  *diagMaxAge,
		Window:      *diagWindow,
		Logger:      logger,
		Registry:    reg,
	}
	reattach := func(c *dxbar.Config) {
		c.Metrics, c.Progress = reg, prog
		c.DiagDir = *diagDir
		c.Diag = diagCfg
	}

	var res dxbar.Result
	switch {
	case *resume != "" && *rewind != "":
		fatal(fmt.Errorf("-resume and -rewind are mutually exclusive"))
	case *resume != "":
		path := *resume
		if fi, statErr := os.Stat(path); statErr == nil && fi.IsDir() {
			path, err = dxbar.LatestCheckpoint(path)
			if err != nil {
				fatal(err)
			}
		}
		logger.Info("resuming from checkpoint", "path", path)
		res, err = dxbar.ResumeWith(path, reattach)
	case *rewind != "":
		logger.Info("rewinding from checkpoint", "path", *rewind, "window", *rewindWindow)
		res, err = dxbar.Rewind(*rewind, *rewindWindow, *trace, reattach)
	default:
		res, err = dxbar.Run(dxbar.Config{
			Design:         dxbar.Design(*design),
			Routing:        *routing,
			Pattern:        *pattern,
			Load:           *load,
			Width:          *width,
			Height:         *height,
			WarmupCycles:   *warmup,
			MeasureCycles:  *measure,
			Seed:           *seed,
			FlitsPerPacket: *flits,
			FaultFraction:  *faults,
			FaultGranularity: func() string {
				if *faults > 0 {
					return *gran
				}
				return ""
			}(),
			TrackUtilization:   *heatmap,
			SampleInterval:     *interval,
			EventTrace:         *trace,
			EventKinds:         kinds,
			Shards:             *shards,
			Metrics:            reg,
			Progress:           prog,
			ShardProfile:       *profile,
			DiagDir:            *diagDir,
			Diag:               diagCfg,
			CheckpointInterval: *ckptInterval,
			CheckpointDir:      *ckptDir,
			CheckpointKeep:     *ckptKeep,
			LedgerDir:          *ledgerDir,
			LedgerReuse:        *ledgerReuse,
		})
	}
	if err != nil {
		fatal(err)
	}
	if res.Interrupted {
		logger.Warn("run interrupted; reporting partial results", "reason", "signal")
	}

	fmt.Printf("design          %s (%s)\n", res.Design, res.Routing)
	fmt.Printf("pattern         %s @ offered %.3f\n", res.Pattern, res.Load)
	fmt.Printf("offered load    %.4f flits/node/cycle\n", res.OfferedLoad)
	fmt.Printf("accepted load   %.4f flits/node/cycle\n", res.AcceptedLoad)
	fmt.Printf("packets         %d\n", res.Packets)
	fmt.Printf("avg latency     %.2f cycles (max %d)\n", res.AvgLatency, res.MaxLatency)
	fmt.Printf("latency tail    p50 %d / p90 %d / p99 %d cycles\n", res.P50Latency, res.P90Latency, res.P99Latency)
	label := fmt.Sprintf("%s %s", res.Design, res.Routing)
	row := dxbar.LatencyRowFor(label, res)
	if row.Truncated() {
		fmt.Printf("in flight       %d packets — latency tail truncated (saturated run)\n", res.InFlightPackets)
	} else {
		fmt.Printf("in flight       %d packets\n", res.InFlightPackets)
	}
	fmt.Printf("avg hops        %.2f\n", res.AvgHops)
	fmt.Printf("avg energy      %.4f nJ/packet (total %.2f nJ)\n", res.AvgEnergyNJ, res.TotalEnergyNJ)
	fmt.Printf("deflections     %.3f /packet\n", res.DeflectionsPerPacket)
	fmt.Printf("retransmits     %.3f /packet\n", res.RetransmitsPerPacket)
	fmt.Printf("buffering prob  %.4f\n", res.BufferingProbability)
	fmt.Printf("dropped flits   %d\n", res.DroppedFlits)
	fmt.Printf("total power     %.1f mW (buffers %.0f%%)\n", res.Power.TotalMW, res.Power.BufferShareOfTot*100)
	if len(res.Anomalies) > 0 {
		fmt.Println()
		fmt.Print(dxbar.AnomaliesText(res))
	}
	if *trace > 0 {
		fmt.Printf("trace events    %d recorded (%d overwritten, ring %d)\n",
			res.EventsRecorded, res.EventsOverwritten, *trace)
	}
	if *profile {
		fmt.Println()
		fmt.Print(dxbar.ShardProfileText(fmt.Sprintf("Shard execution profile, %s", label), res))
	}
	if *heatmap {
		fmt.Println()
		fmt.Print(dxbar.Heatmap(res))
	}
	if *outDir != "" {
		export(*outDir, label, res, *svg)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := dxbar.WriteChromeTrace(f, dxbar.TraceRecordFor(label, res)); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written   %s (open at ui.perfetto.dev)\n", *traceOut)
	}
}

// validate rejects flag combinations in which one flag would be silently
// ignored, before any cycle is simulated.
func validate(ckptInterval uint64, ckptDir string, ledgerReuse bool, ledgerDir, traceOut string, trace int) error {
	switch {
	case ckptInterval > 0 && ckptDir == "":
		return errors.New("-checkpoint-interval requires -checkpoint-dir")
	case ledgerReuse && ledgerDir == "":
		return errors.New("-ledger-reuse requires -ledger")
	case traceOut != "" && trace <= 0:
		return errors.New("-trace-out requires -trace > 0")
	}
	return nil
}

// export writes the structured observability files: the latency histogram
// and (when sampling was enabled) the time series, each as NDJSON and CSV,
// plus the SVG renderings with -svg.
func export(dir, label string, res dxbar.Result, svg bool) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	hists := []report.HistogramRecord{dxbar.HistogramRecordFor(label, res)}
	writeFile(dir, "latency.ndjson", func(f *os.File) error { return dxbar.WriteHistogramsNDJSON(f, hists) })
	writeFile(dir, "latency.csv", func(f *os.File) error { return dxbar.WriteHistogramsCSV(f, hists) })
	if res.SampleInterval > 0 {
		series := []report.TimeSeriesRecord{dxbar.TimeSeriesRecordFor(label, res)}
		writeFile(dir, "timeseries.ndjson", func(f *os.File) error { return dxbar.WriteTimeSeriesNDJSON(f, series) })
		writeFile(dir, "timeseries.csv", func(f *os.File) error { return dxbar.WriteTimeSeriesCSV(f, series) })
	}
	if svg {
		writeFile(dir, "latency_cdf.svg", func(f *os.File) error {
			_, err := f.WriteString(dxbar.LatencyCDFSVG("Latency CDF, "+label, []string{label}, []dxbar.Result{res}))
			return err
		})
		if res.SampleInterval > 0 {
			writeFile(dir, "timeseries.svg", func(f *os.File) error {
				_, err := f.WriteString(dxbar.TimeSeriesSVG("Run time series, "+label, res))
				return err
			})
		}
	}
}

func writeFile(dir, name string, fill func(*os.File) error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fill(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	if logger != nil {
		logger.Error("fatal", "err", err)
	} else {
		fmt.Fprintln(os.Stderr, "dxbar-sim:", err)
	}
	os.Exit(1)
}
