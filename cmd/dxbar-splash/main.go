// Command dxbar-splash runs the closed-loop SPLASH-2 substitute workloads
// (Figs. 9 and 10) and can record/replay traffic traces.
//
// Examples:
//
//	dxbar-splash -bench Ocean -design dxbar
//	dxbar-splash -bench all                         # full design matrix
//	dxbar-splash -bench FFT -record fft.trc         # capture a trace
//	dxbar-splash -replay fft.trc -design flitbless  # replay it open-loop
//
// The exit status is 2 for a flag combination the tool cannot honour (checked
// before anything is written) and 1 for a run that failed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"dxbar"
	"dxbar/internal/diag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed flags; set names the ones given on the command line.
type options struct {
	bench, design, routing string
	seed                   int64
	list, detailed         bool
	record, replay         string
	set                    map[string]bool
}

// run is main with its process edges injected: the exit status is the return
// value and both streams are parameters.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dxbar-splash", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{set: map[string]bool{}}
	fs.StringVar(&o.bench, "bench", "all", "benchmark name (see -list) or 'all'")
	fs.StringVar(&o.design, "design", "", "router design, one of "+fmt.Sprint(dxbar.AllDesigns)+"; empty = the paper's six-design matrix (-replay: dxbar)")
	fs.StringVar(&o.routing, "routing", "DOR", "routing algorithm: DOR | WF")
	fs.Int64Var(&o.seed, "seed", 42, "random seed")
	fs.BoolVar(&o.list, "list", false, "list benchmarks and exit")
	fs.StringVar(&o.record, "record", "", "record one benchmark's trace (-bench, -seed) to this file")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded trace (on -design, -routing) instead of a benchmark")
	fs.BoolVar(&o.detailed, "detailed", false, "use real set-associative L1/L2 caches instead of profile hit rates")
	verbose := fs.Bool("v", false, "verbose (debug-level) logging")
	logFormat := fs.String("log-format", diag.LogText, "structured log format on stderr: text | json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	logger, err := diag.NewLogger(stderr, *logFormat, *verbose)
	if err == nil {
		err = o.validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, "dxbar-splash:", err)
		return 2
	}

	switch {
	case o.list:
		for _, b := range dxbar.SplashBenchmarks() {
			fmt.Fprintln(stdout, b)
		}
	case o.replay != "":
		err = o.runReplay(stdout)
	case o.record != "":
		err = o.runRecord(stdout)
	default:
		err = o.runMatrix(stdout)
	}
	if err != nil {
		logger.Error("fatal", "err", err)
		return 1
	}
	return 0
}

// validate rejects what the chosen mode would otherwise ignore or fail on
// half-way: it runs before the first file is created.
func (o *options) validate() error {
	reject := func(mode string, flags ...string) error {
		for _, f := range flags {
			if o.set[f] {
				return fmt.Errorf("-%s does not apply to -%s", f, mode)
			}
		}
		return nil
	}
	if o.design != "" && !slices.Contains(dxbar.AllDesigns, dxbar.Design(o.design)) {
		return fmt.Errorf("unknown -design %q (want one of %v)", o.design, dxbar.AllDesigns)
	}
	if o.bench != "all" && !slices.Contains(dxbar.SplashBenchmarks(), o.bench) {
		return fmt.Errorf("unknown -bench %q (want 'all' or one of %v)", o.bench, dxbar.SplashBenchmarks())
	}
	switch {
	case o.record != "" && o.replay != "":
		return fmt.Errorf("-record and -replay are separate modes; give one")
	case o.record != "":
		if o.bench == "all" {
			return fmt.Errorf("-record captures one benchmark: name it with -bench (see -list)")
		}
		// The trace is what the workload generates, captured on the default
		// design with profile hit rates.
		return reject("record", "design", "routing", "detailed")
	case o.replay != "":
		return reject("replay", "bench", "seed", "detailed")
	}
	return nil
}

// runMatrix runs benchmarks × designs closed-loop and prints one row each.
func (o *options) runMatrix(stdout io.Writer) error {
	benches := dxbar.SplashBenchmarks()
	if o.bench != "all" {
		benches = []string{o.bench}
	}
	designs := dxbar.Designs
	if o.design != "" {
		designs = []dxbar.Design{dxbar.Design(o.design)}
	}

	fmt.Fprintf(stdout, "%-10s %-10s %-4s %10s %10s %10s %8s %8s %12s\n",
		"benchmark", "design", "alg", "exec (cyc)", "packets", "lat (cyc)", "p50", "p99", "nJ/packet")
	for _, b := range benches {
		for _, d := range designs {
			res, err := dxbar.RunSplash(dxbar.SplashConfig{
				Design: d, Routing: o.routing, Benchmark: b, Seed: o.seed,
				DetailedCaches: o.detailed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-10s %-10s %-4s %10d %10d %10.1f %8d %8d %12.4f\n",
				b, d, res.Routing, res.ExecutionCycles, res.Packets, res.AvgLatency,
				res.P50Latency, res.P99Latency, res.AvgEnergyNJ)
		}
	}
	return nil
}

// runRecord writes the trace to a temporary file beside the target and
// renames it into place, so a failed recording leaves nothing behind.
func (o *options) runRecord(stdout io.Writer) error {
	tmp, err := os.CreateTemp(filepath.Dir(o.record), filepath.Base(o.record)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = dxbar.RecordSplash(dxbar.SplashConfig{Benchmark: o.bench, Seed: o.seed}, tmp)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), o.record)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %s trace to %s\n", o.bench, o.record)
	return nil
}

func (o *options) runReplay(stdout io.Writer) error {
	design := dxbar.DesignDXbar
	if o.design != "" {
		design = dxbar.Design(o.design)
	}
	f, err := os.Open(o.replay)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := dxbar.RunTrace(design, o.routing, f, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replay on %s (%s): completed in %d cycles, %d packets, lat %.1f, %.4f nJ/packet\n",
		res.Design, res.Routing, res.CompletionCycles, res.Packets, res.AvgLatency, res.AvgEnergyNJ)
	return nil
}
