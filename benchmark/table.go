package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// runSeconds is how long one run of one workload measures (BENCHMARK.json
// run_seconds, and the default of -seconds).
const runSeconds = 15

// metric is one row of the metric tables: the single source of truth behind
// -list, BENCHMARK.json, the printed reports and the -selfcheck comparison.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the earlier value by which an end-to-end metric
	// may get worse before it counts as a regression (0 on per-layer rows).
	Bound float64
	// Floor is an absolute difference below which -selfcheck ignores a
	// worsening, in the metric's unit (noise floor of very small values).
	Floor float64
	// Doc says what the number is and, for per-layer rows, on which
	// workload it is large and which end-to-end metric it should move.
	Doc string
}

// endToEnd are the metrics a user of the simulator sees. All are host-side
// measurements; every one is reported on every workload.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25, 0, "median over the run's repeats of one repeat's timed wall time: first simulated cycle (or first facade call) to last result"},
	{"cpu_s", "s", "lower", 0.25, 0, "median over repeats of user+sys CPU of the same section (getrusage delta)"},
	{"ns_per_router_cycle", "ns", "lower", 0.25, 0, "wall_s / (nodes x simulated cycles, summed over the repeat's runs)"},
	{"setup_s", "s", "lower", 0.25, 0.020, "median over repeats of one repeat's set-up: mesh, patterns, routing tables, NewNetwork, cold ledger (warm-up cycles are simulation, not set-up)"},
	{"peak_rss_mb", "MiB", "lower", 0.15, 8, "process max RSS (one process per workload)"},
}

// layerNames are the CPU-attribution layers: the repo's internal packages
// that do per-cycle or per-run work, plus the Go runtime and the rest.
var layerNames = []string{
	"sim", "core", "router", "bitarb", "routing", "buffer", "crossbar", "flit",
	"traffic", "stats", "energy", "coherence", "diag", "metrics", "events",
	"snapshot", "runstore", "runtime", "other",
}

// steadyDesigns maps each steady8 design to the layer that implements it.
var steadyDesigns = []struct {
	Design string
	Layer  string
}{
	{"dxbar", "core"}, {"unified", "core"}, {"flitbless", "router"}, {"scarab", "router"},
	{"buffered4", "router"}, {"buffered8", "router"}, {"afc", "router"},
}

// satDesigns are the designs sat8 drives past saturation.
var satDesigns = []string{"dxbar", "flitbless", "scarab", "buffered4"}

func layerOfDesign(d string) string {
	for _, sd := range steadyDesigns {
		if sd.Design == d {
			return sd.Layer
		}
	}
	return "router"
}

// perLayer is built once from the pieces above.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var ms []metric
	add := func(name, unit, better, doc string) {
		ms = append(ms, metric{Name: name, Unit: unit, Better: better, Doc: doc})
	}
	for _, l := range layerNames {
		add(l+".cpu_s", "s", "lower", "CPU self time of package "+l+" per traced repeat (pprof samples by leaf frame); moves wall_s/cpu_s where its share is >= 5 %")
	}
	for _, sd := range steadyDesigns {
		add(sd.Layer+"."+sd.Design+".ns_per_router_cycle", "ns", "lower", "steady8: span around this design's timed Engine.Run / router-cycles; moves ns_per_router_cycle on steady8")
	}
	for _, d := range satDesigns {
		add(layerOfDesign(d)+"."+d+".sat_ns_per_router_cycle", "ns", "lower", "sat8: the same past saturation; moves ns_per_router_cycle on sat8")
	}
	add("router.flitbless.deflections_per_flit", "count", "lower", "sat8 wasted work (deterministic); explains sat8 wall_s, must not change under a host-speed PR")
	add("router.scarab.retransmits_per_flit", "count", "lower", "sat8 wasted work (deterministic)")
	add("core.dxbar.buffering_prob", "count", "lower", "sat8 buffering events per switch traversal (deterministic)")

	add("sim.engine_run_s", "s", "lower", "sum of the repeat's timed Engine.Run/RunUntil spans")
	add("sim.warmup_s", "s", "lower", "sum of the repeat's warm-up Engine.Run spans")
	add("sim.ns_per_flit_hop", "ns", "lower", "timed run span / link traversals in it; per-hop cost dominates on sat8")
	add("sim.idle_ns_per_router_cycle", "ns", "lower", "same mesh, nil Source: the engine's cost of an idle router; dominates mesh64")
	add("sim.shard_busy_s", "s", "lower", "mesh32_sharded: max over shards of ShardProfiles().RouterPhase")
	add("sim.shard_barrier_wait_s", "s", "lower", "mesh32_sharded: mean over shards of ShardProfiles().BarrierWait")
	add("sim.shard_imbalance", "ratio", "lower", "mesh32_sharded: max/mean shard router-phase time")
	add("sim.shard_speedup", "ratio", "higher", "mesh32_sharded: sequential run span / sharded run span, same config; wall_s down, cpu_s not up")

	add("traffic.generate_ns_per_node_cycle", "ns", "lower", "stand-alone loop over Source.Generate, no engine; wall_s on open-loop workloads")
	add("traffic.packets", "count", "higher", "packets that loop generated (deterministic)")

	add("coherence.precycle_s", "s", "lower", "splash: time inside System.PreCycle of one dxbar/FFT run (wrapper passed to NewNetwork)")
	add("coherence.deliver_s", "s", "lower", "splash: time inside System.Deliver of the same run")
	add("coherence.messages", "count", "higher", "splash: protocol messages delivered in that run (deterministic)")
	add("stats.splash_exec_cycles", "count", "lower", "splash: that run's execution cycles (deterministic)")

	add("topology.new_mesh_s", "s", "lower", "sum of the repeat's topology.NewMesh spans; setup_s, large on mesh64")
	add("traffic.new_source_s", "s", "lower", "sum of the repeat's traffic.New + NewBernoulli spans; setup_s")
	add("dxbar.new_network_s", "s", "lower", "sum of the repeat's dxbar.NewNetwork spans; setup_s, large on mesh64")

	add("dxbar.figure5_s", "s", "lower", "figset: span around dxbar.Figure5; wall_s")
	add("dxbar.figure7_s", "s", "lower", "figset: span around dxbar.Figure7; wall_s")
	add("dxbar.figure11_s", "s", "lower", "figset: span around dxbar.Figure11; wall_s")
	add("dxbar.figure9_s", "s", "lower", "splash: span around dxbar.Figure9; wall_s")
	add("dxbar.worker_utilization", "ratio", "higher", "cpu_s / (GOMAXPROCS x wall_s) of the traced repeat")
	add("dxbar.paper_gain_err_pp", "pp", "lower", "figset: mean |simulated - quoted| DXbar-DOR saturation-throughput gain over Buffered 8/4, Flit-Bless, SCARAB at dxbar.Quick (deterministic per seed)")

	add("diag.ns_per_router_cycle", "ns", "lower", "steady8 dxbar engine with a diag.Monitor attached minus the bare run; figset pays it on every run")
	add("metrics.ns_per_router_cycle", "ns", "lower", "the same with metrics.SimTelemetry attached")
	add("events.ns_per_router_cycle", "ns", "lower", "the same with an events.Recorder attached")
	add("stats.sampler_ns_per_router_cycle", "ns", "lower", "the same with the collector's time-series sampler on")

	add("snapshot.write_ms", "ms", "lower", "persist: mean Engine.Snapshot of the 16x16 engine")
	add("snapshot.restore_ms", "ms", "lower", "persist: mean Engine.Restore")
	add("snapshot.bytes", "count", "lower", "persist: size of the last snapshot (deterministic)")
	add("dxbar.checkpoint_run_overhead_s", "s", "lower", "persist: checkpointed Run minus the same Run without checkpoints")
	add("dxbar.resume_ms", "ms", "lower", "persist: Resume from the final checkpoint (load + restore, nothing left to simulate)")
	add("runstore.lookup_ms", "ms", "lower", "persist: mean Ledger.Lookup + LedgerResult of one archived run")
	add("runstore.record_bytes", "count", "lower", "persist: size of that ledger record on disk")
	add("dxbar.ledger_key_us", "us", "lower", "persist: mean dxbar.LedgerKey")
	add("dxbar.ledger_warm_sweep_s", "s", "lower", "persist: mean ledger-served LoadSweepOpts replay")

	add("stats.accepted_load", "flits/node/cyc", "higher", "the workload's dxbar run (deterministic); identical across commits unless the model changed")
	add("stats.avg_latency_cycles", "cycles", "lower", "the same run (deterministic)")
	add("stats.p99_latency_cycles", "cycles", "lower", "the same run (deterministic)")
	add("stats.flit_hops", "count", "lower", "the same run's link traversals (deterministic)")
	add("energy.nj_per_packet", "nJ", "lower", "the same run's network energy per packet (deterministic)")

	add("runtime.allocs_per_cycle", "count", "lower", "heap allocations per simulated cycle over the traced repeat; ~0 on steady8/mesh64")
	add("runtime.alloc_bytes_per_cycle", "B", "lower", "heap bytes allocated per simulated cycle")
	add("runtime.gc_cycles", "count", "lower", "GC cycles during the traced repeat")
	add("runtime.gc_pause_ms", "ms", "lower", "GC stop-the-world pause total during the traced repeat")
	add("runtime.heap_mb", "MiB", "lower", "HeapSys at the end of the traced repeat; peak_rss_mb")
	add("trace.overhead_frac", "ratio", "lower", "(traced - untraced wall) / untraced wall of this run; qualifies every per-layer number")
	return ms
}

// manifest is BENCHMARK.json, generated from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, pl{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// printList is -list: every metric and workload, from the same tables.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-15s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (reported on every workload):")
	for _, m := range endToEnd {
		floor := ""
		if m.Floor > 0 {
			floor = fmt.Sprintf(" and > %g %s", m.Floor, m.Unit)
		}
		fmt.Fprintf(w, "  %-22s %-5s %-6s bound %2.0f %%%s  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, floor, m.Doc)
	}
	fmt.Fprintln(w, "per-layer metrics (-trace 1; no bound):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-40s %-15s %-6s %s\n", m.Name, m.Unit, m.Better, m.Doc)
	}
}

// worse reports whether cur is worse than base by more than the metric's
// bound, ignoring differences inside the absolute floor.
func (m metric) worse(base, cur float64) bool {
	delta := cur - base
	if m.Better == "higher" {
		delta = -delta
	}
	if delta <= m.Floor {
		return false
	}
	return delta > m.Bound*math.Abs(base)
}
