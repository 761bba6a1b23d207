// Command benchmark is the repository's host-time benchmark: seven
// workloads over the public dxbar facade, five end-to-end metrics per
// workload, and a traced pass that attributes time to layers. See README.md;
// BENCHMARK.json at the repository root is generated from table.go.
//
//	bash benchmark/run.sh -list                          # metrics and workloads
//	bash benchmark/run.sh -seed 42                       # every workload, untraced
//	bash benchmark/run.sh -seed 42 -trace 1              # every workload, per-layer
//	bash benchmark/run.sh -selfcheck                     # two untraced passes must agree
//	bash benchmark/run.sh -workload sat8 -seed 7 -seconds 12 -trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir receives every file the benchmark writes: per-run records, span
// traces and persist's scratch directories. It is relative to the checkout
// root, where run.sh starts the program.
const outDir = "benchmark/out"

// pinnedSeed is the seed expected.json holds digests for.
const pinnedSeed = 42

//go:embed expected.json
var expectedJSON []byte

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process (default: every workload, one child process each)")
		seed      = flag.Int64("seed", pinnedSeed, "workload seed; the only workload input")
		seconds   = flag.Float64("seconds", runSeconds, "how long one workload's run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
		list      = flag.Bool("list", false, "print every metric and workload and exit")
		asJSON    = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced pass twice and fail unless the second set is within every bound of the first")
	)
	flag.Parse()
	switch {
	case *list:
		printList(os.Stdout)
	case *asJSON:
		out, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (see -list)", *name))
		}
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1"))
		}
		runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	default:
		if !runAll(*seed, *seconds, *trace, *selfcheck) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// envStamp says where a record was measured.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu_model"`
	VCS        string `json:"vcs_revision"`
	// PersistFS is the kind of file system under benchmark/out, where the
	// persist workload writes. The benchmark may only write inside its
	// checkout, so it cannot move to a tmpfs elsewhere.
	PersistFS string `json:"persist_fs"`
}

func stamp() envStamp {
	e := envStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", VCS: "unknown", PersistFS: "disk"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.VCS = s.Value
			}
		}
	}
	var fs syscall.Statfs_t
	const tmpfsMagic = 0x01021994
	if err := syscall.Statfs(outDir, &fs); err == nil && fs.Type == tmpfsMagic {
		e.PersistFS = "tmpfs"
	}
	return e
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the full account of one run, written to benchmark/out.
type record struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Seconds  float64         `json:"seconds"`
	Traced   bool            `json:"traced"`
	Env      envStamp        `json:"env"`
	Digest   string          `json:"digest"`
	Repeats  map[string]dist `json:"repeats"`
	// Samples holds every repeat's value, in the order they ran.
	Samples map[string][]float64 `json:"samples"`
	Result  result               `json:"result"`
}

// runWorkload is one process's work: repeat the workload for the budget,
// check its outputs, print every metric, and end with the result line.
func runWorkload(w *workload, seed int64, budget time.Duration, traced bool) {
	procs := 2
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	runtime.GOMAXPROCS(procs)
	// A wedged simulation must not hang the caller: give up without a result.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: timeout after 170 s")
		os.Exit(3)
	})
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	// Scratch space for persist, which removes it at the end of every repeat.
	scratch := filepath.Join(outDir, fmt.Sprintf("tmp-%s-%d", w.Name, os.Getpid()))

	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", w.Name, seed, budget.Seconds(), traced)
	var pre *precomputed
	if w.Prepare != nil {
		var err error
		if pre, err = w.Prepare(seed); err != nil {
			fatal(fmt.Errorf("%s: preparing reference data: %w", w.Name, err))
		}
	}

	res := result{Metrics: map[string]value{}}
	rec := record{Workload: w.Name, Seed: seed, Seconds: budget.Seconds(), Traced: traced, Repeats: map[string]dist{}}
	var all []*rep
	one := func(tr *tracer) *rep {
		r := newRep(seed, tr, scratch, pre)
		runRepeat(w, r)
		all = append(all, r)
		return r
	}
	if !traced {
		repeatFor(budget, 3, func() { one(nil) })
		endToEndMetrics(all, &res, &rec)
	} else {
		// Untraced and traced repeats alternate, so that drift of the box
		// does not read as tracing overhead. The probes follow.
		tr := newTracer()
		var plain, tracedReps []*rep
		repeatFor(budget*85/100, 2, func() {
			plain = append(plain, one(nil))
			tracedReps = append(tracedReps, one(tr))
		})
		best := fastest(tracedReps)
		probe := newRep(seed, tr, scratch, pre)
		probeCommon(probe, w)
		if w.Probe != nil {
			w.Probe(probe, best)
		}
		res.Failed += probe.failed
		perLayerMetrics(plain, best, probe, tracedReps, &res)
		if err := writeJSON(filepath.Join(outDir, w.Name+".trace.json"), tr.spans); err != nil {
			fatal(err)
		}
	}

	// Output check: every repeat must produce the same digest, and at the
	// pinned seed it must be the recorded one.
	rec.Digest = all[0].dig.sum()
	for _, r := range all {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	for i, r := range all[1:] {
		if r.dig.sum() != rec.Digest {
			res.Failed++
			fmt.Printf("  FAIL: repeat %d produced digest %.12s, repeat 0 %.12s\n", i+1, r.dig.sum(), rec.Digest)
		}
	}
	if seed == pinnedSeed {
		var exp struct {
			Digests map[string]string `json:"digests"`
		}
		if err := json.Unmarshal(expectedJSON, &exp); err != nil {
			fatal(fmt.Errorf("expected.json: %w", err))
		}
		if want := exp.Digests[w.Name]; want != rec.Digest {
			res.Failed++
			fmt.Printf("  FAIL: digest %s, expected.json has %q\n", rec.Digest, want)
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0

	rec.Env = stamp()
	rec.Result = res
	printMetrics(res, traced)
	fmt.Printf("  digest %s  ops attempted %d  failed %d\n", rec.Digest, res.Attempted, res.Failed)
	fmt.Printf("  env: nproc=%d gomaxprocs=%d %s cpu=%q vcs=%s persist_fs=%s\n",
		rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.Go, rec.Env.CPU, rec.Env.VCS, rec.Env.PersistFS)
	suffix := ".json"
	if traced {
		suffix = ".layers.json"
	}
	if err := writeJSON(filepath.Join(outDir, w.Name+suffix), rec); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func medianWall(reps []*rep) float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, r.wall.Seconds())
	}
	return summarize(xs).Median
}

// fastest is the repeat with the smallest timed wall.
func fastest(reps []*rep) *rep {
	best := reps[0]
	for _, r := range reps[1:] {
		if r.wall < best.wall {
			best = r
		}
	}
	return best
}

// endToEndMetrics reduces the repeats to the five end-to-end metrics. Host
// times are medians over the run's repeats: README.md has the spreads
// measured for the minimum, the quartiles and the median on the box this was
// sized on, and the median was the steadiest on most workloads.
func endToEndMetrics(reps []*rep, res *result, rec *record) {
	var wall, cpu, setup []float64
	for _, r := range reps {
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		setup = append(setup, r.setupD.Seconds())
	}
	rec.Samples = map[string][]float64{"wall_s": wall, "cpu_s": cpu, "setup_s": setup}
	for _, name := range []string{"wall_s", "cpu_s", "setup_s"} {
		rec.Repeats[name] = summarize(rec.Samples[name])
		fmt.Printf("  %-8s %s\n", name, rec.Repeats[name])
	}
	w := rec.Repeats["wall_s"].Median
	for _, m := range endToEnd {
		var v float64
		switch m.Name {
		case "wall_s":
			v = w
		case "cpu_s":
			v = rec.Repeats["cpu_s"].Median
		case "ns_per_router_cycle":
			v = w * 1e9 / float64(reps[0].routerCycles)
		case "setup_s":
			v = rec.Repeats["setup_s"].Median
		case "peak_rss_mb":
			v = peakRSSMiB()
		}
		res.Metrics[m.Name] = value{v, m.Unit}
	}
}

// perLayerMetrics fills every per-layer metric: those the fastest traced
// repeat and the probes recorded, the span sums, the CPU profile by layer,
// and the tracing overhead. A metric that does not apply to the workload
// reads 0.
func perLayerMetrics(plain []*rep, best, probe *rep, traced []*rep, res *result) {
	vals := map[string]float64{}
	for k, v := range best.vals {
		vals[k] = v
	}
	for k, v := range probe.vals {
		vals[k] = v
	}
	sum := best.spanSum
	vals["sim.engine_run_s"] = sum["sim.Engine.Run"].Seconds()
	vals["sim.warmup_s"] = sum["sim.warmup"].Seconds()
	vals["sim.ns_per_flit_hop"] = nsPer(sum["sim.Engine.Run"], best.hops)
	vals["topology.new_mesh_s"] = sum["topology.NewMesh"].Seconds()
	vals["traffic.new_source_s"] = sum["traffic.NewSource"].Seconds()
	vals["dxbar.new_network_s"] = sum["dxbar.NewNetwork"].Seconds()
	for _, f := range []string{"5", "7", "9", "11"} {
		vals["dxbar.figure"+f+"_s"] = sum["dxbar.Figure"+f].Seconds()
	}
	vals["dxbar.worker_utilization"] = best.cpu.Seconds() / (float64(runtime.GOMAXPROCS(0)) * best.wall.Seconds())
	if best.cycles > 0 {
		vals["runtime.allocs_per_cycle"] = float64(best.mem.Mallocs) / float64(best.cycles)
		vals["runtime.alloc_bytes_per_cycle"] = float64(best.mem.TotalAlloc) / float64(best.cycles)
	}
	vals["runtime.gc_cycles"] = float64(best.mem.NumGC)
	vals["runtime.gc_pause_ms"] = float64(best.mem.PauseTotalNs) / 1e6
	vals["runtime.heap_mb"] = float64(best.mem.HeapSys) / (1 << 20)
	vals["trace.overhead_frac"] = (medianWall(traced) - medianWall(plain)) / medianWall(plain)

	var samples []leafSample
	var profiled, measured time.Duration
	for _, r := range traced {
		samples = append(samples, r.samples...)
		measured += r.cpu
	}
	byLayer := layerCPU(samples)
	for _, l := range layerNames {
		profiled += byLayer[l]
		vals[l+".cpu_s"] = byLayer[l].Seconds() / float64(len(traced))
	}
	fmt.Printf("  cpu profile of the timed sections: %.3f s attributed to layers, %.3f s by getrusage over the same %d traced repeats (ratio %.3f)\n",
		profiled.Seconds(), measured.Seconds(), len(traced), profiled.Seconds()/measured.Seconds())
	printLayerTable(byLayer, profiled)

	for _, m := range perLayer {
		res.Metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
}

// printLayerTable is the per-package CPU table: each layer's share of the
// profiled CPU time, largest first.
func printLayerTable(byLayer map[string]time.Duration, total time.Duration) {
	layers := append([]string(nil), layerNames...)
	sort.SliceStable(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Println("  cpu by layer (self time in the timed sections, all traced repeats):")
	for _, l := range layers {
		if byLayer[l] > 0 {
			fmt.Printf("    %-10s %7.3f s  %5.1f %%\n", l, byLayer[l].Seconds(), 100*float64(byLayer[l])/float64(total))
		}
	}
}

func printMetrics(res result, traced bool) {
	table := endToEnd
	if traced {
		table = perLayer
	}
	for _, m := range table {
		fmt.Printf("  %-42s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
}

// runAll runs every workload in a child process of its own, so that peak
// RSS, CPU time and GC state are per workload, and reports whether every
// workload was correct (and, with selfcheck, whether two passes agree).
func runAll(seed int64, seconds float64, trace int, selfcheck bool) bool {
	passes := 1
	if selfcheck {
		passes, trace = 2, 0
	}
	ok := true
	sets := make([]map[string]result, passes)
	for p := range sets {
		sets[p] = map[string]result{}
		for _, w := range workloads {
			cmd := exec.Command(os.Args[0], "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if err != nil {
				fmt.Printf("FAIL: workload %s: %v\n", w.Name, err)
				ok = false
				continue
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Printf("FAIL: workload %s: result line: %v\n", w.Name, err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			sets[p][w.Name] = res
		}
	}
	if selfcheck {
		fmt.Println("selfcheck: second pass against the first")
		for _, w := range workloads {
			a, b := sets[0][w.Name], sets[1][w.Name]
			for _, m := range endToEnd {
				x, y := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
				verdict := "ok"
				if x == 0 || y == 0 || m.worse(x, y) {
					verdict, ok = "WORSE THAN BOUND", false
				}
				fmt.Printf("  %-15s %-20s %12.6g -> %12.6g %-4s (%+6.1f %%, bound %2.0f %%)  %s\n",
					w.Name, m.Name, x, y, m.Unit, 100*(y-x)/x, 100*m.Bound, verdict)
			}
		}
	}
	return ok
}
