package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// rep is one repeat of a workload: the whole workload from construction to
// result. A workload's run function fills it through setup/timed/span and
// the counters below; every repeat of a run simulates identical work.
type rep struct {
	seed int64
	tr   *tracer // nil on untraced repeats
	dir  string  // scratch directory (persist), inside benchmark/out
	pre  *precomputed

	setupD, wall, cpu time.Duration
	routerCycles      uint64 // nodes x simulated cycles of the timed section
	cycles            uint64 // simulated cycles of the timed section
	hops              uint64 // link traversals inside the sim.Engine.Run spans
	ops, failed       int
	dig               digest
	vals              map[string]float64 // per-layer values (by metric name)
	spanSum           map[string]time.Duration
	mem               memDelta     // traced repeats only
	samples           []leafSample // CPU profile of the timed section, traced repeats only
}

// memDelta is what the Go heap did during one repeat's timed section.
type memDelta struct {
	Mallocs, TotalAlloc, PauseTotalNs, HeapSys uint64
	NumGC                                      uint32
}

// setup runs fn as set-up: its wall time counts towards setup_s.
func (r *rep) setup(fn func()) {
	t0 := time.Now()
	fn()
	r.setupD += time.Since(t0)
}

// timed runs fn as the repeat's timed section: wall and CPU count towards
// wall_s/cpu_s. A workload calls it once per repeat, after its set-up. On a
// traced repeat the CPU profiler runs for exactly this section - so that its
// samples, GC and shard workers included, are the section's - and the heap
// statistics are read on either side; both happen outside the clocks.
func (r *rep) timed(fn func()) {
	if r.tr != nil {
		var m0, m1 runtime.MemStats
		var prof bytes.Buffer
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.fail("starting the CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&m1)
			r.mem = memDelta{
				Mallocs: m1.Mallocs - m0.Mallocs, TotalAlloc: m1.TotalAlloc - m0.TotalAlloc,
				PauseTotalNs: m1.PauseTotalNs - m0.PauseTotalNs, NumGC: m1.NumGC - m0.NumGC, HeapSys: m1.HeapSys,
			}
			samples, err := parseCPUProfile(prof.Bytes())
			r.check("CPU profile", err)
			r.samples = samples
		}()
	}
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	r.wall += time.Since(t0)
	r.cpu += cpuTime() - c0
}

// span runs fn, returns how long it took, and adds that to the per-name sum;
// on a traced repeat it also records the span (name, start, end, parent,
// repeat id) for trace.json. It is the only wrapper the benchmark puts
// around facade and engine calls.
func (r *rep) span(name, tag string, fn func()) time.Duration {
	id := r.tr.begin(name, tag)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.tr.end(id)
	r.spanSum[name] += d
	return d
}

// fail records one failed operation.
func (r *rep) fail(format string, args ...any) {
	r.failed++
	fmt.Printf("  FAIL: "+format+"\n", args...)
}

// check records a failure when err is non-nil and reports whether it was nil.
func (r *rep) check(what string, err error) bool {
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

func (r *rep) val(name string, v float64) { r.vals[name] = v }

// simulated counts cycles the timed section simulated on a mesh of nodes.
func (r *rep) simulated(nodes, cycles uint64) {
	r.routerCycles += nodes * cycles
	r.cycles += cycles
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's max RSS (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// dist summarizes one quantity over a run's repeats.
type dist struct {
	Min, Q1, Median, Q3 float64
	N                   int
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { // linear interpolation between order statistics
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return dist{Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), N: len(s)}
}

func (d dist) String() string {
	return fmt.Sprintf("min %.4g  median %.4g  q1 %.4g  q3 %.4g  R=%d", d.Min, d.Median, d.Q1, d.Q3, d.N)
}

// runRepeat executes one repeat, converting a panic into a failed operation.
func runRepeat(w *workload, r *rep) {
	defer func() {
		if p := recover(); p != nil {
			r.fail("panic in %s: %v", w.Name, p)
		}
	}()
	w.Run(r)
}

// newRep starts a repeat. Garbage of the previous repeat is collected first
// so that each repeat starts from the same heap state.
func newRep(seed int64, tr *tracer, dir string, pre *precomputed) *rep {
	runtime.GC()
	tr.nextRun()
	return &rep{seed: seed, tr: tr, dir: dir, pre: pre, dig: digest{}, vals: map[string]float64{}, spanSum: map[string]time.Duration{}}
}

// repeatFor calls once, which runs one repeat (or one untraced and one
// traced repeat), until budget is used up - at least minCalls times, and
// stopping when another call would overshoot the budget by more than the
// current shortfall.
func repeatFor(budget time.Duration, minCalls int, once func()) {
	start := time.Now()
	for calls := 1; ; calls++ {
		once()
		elapsed := time.Since(start)
		if calls >= minCalls && elapsed+elapsed/time.Duration(2*calls) > budget {
			return
		}
	}
}
