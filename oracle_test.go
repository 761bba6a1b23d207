package dxbar

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dxbar/internal/coherence"
	"dxbar/internal/energy"
	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/metrics"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// The execution-path oracle. A run is the same run on every execution path —
// sequential, k shards, reference arbitration, checkpointed and resumed, on a
// reused engine, observed, archived, served from the ledger — and this file is
// the only place that is asserted: one table of runs (equivCases), one closed
// set of paths (path), one definition of "equal" (assertEquivalent). The Test
// functions at the bottom only say which rows meet which paths.

// idleLoad is the uniform-random load of the mostly-asleep rows: at 8×8 about
// 70 % of router-steps are skipped (the activity-driven phase of internal/sim).
const idleLoad = 0.05

// lockstepEvery is the stride of the lockstep standard, in cycles.
const lockstepEvery = 50

// equivCase is one row: a run, its execution-path fields left zero.
type equivCase struct {
	group, name string
	// cfg is the open-loop run; with bench set the row is that SPLASH-2
	// profile run closed-loop to completion on cfg.Design instead (with ops
	// memory operations per processor, when set).
	cfg   Config
	bench string
	ops   int
	// live rows are stepped by the oracle itself, because the facade hides the
	// engine: they are compared on liveResult and held to the lockstep standard
	// too. Closed-loop rows are always live. Every other row goes through Run,
	// RunMany and Resume and is compared on the facade's Result.
	live bool
	// asleep requires a live run to skip at least half of its router-steps.
	// conserve audits a live open-loop run's flits at every stride and, drained
	// after its window, that everything generated was delivered exactly once.
	asleep, conserve bool
}

// via is how a run gets through its engine.
type via uint8

const (
	plain          via = iota
	checkpointed       // writing a checkpoint every path.every cycles
	resumeSame         // Resume from that run's checkpoint of cycle path.at
	resumeOther        // the same onto the other backend (sharded ↔ sequential)
	reused             // second job of a one-worker RunMany: Engine.Reset
	nodiag             // run-health monitor off
	telemetry          // registry and progress tracker attached
	traced             // flight recorder on, for rows that have it off
	ledgerArchived     // archived into a run ledger
	ledgerServed       // served from that archive without simulating
	midrunRestore      // live rows: Engine.Snapshot at half time, restored into a fresh engine
	polled             // closed-loop rows: the system behind a wrapper that hides sim.PendingSource
)

var viaNames = [...]string{"", "checkpointed@%d", "resume@%d", "resume@%d-other", "reused", "nodiag", "telemetry", "traced",
	"ledger-archived", "ledger-served", "midrun-restore", "polled"}

// payload is each path's declared normalisation: the Result fields that way of
// running adds or withholds by design, cleared on both sides before they are
// compared. Every other field of every path must equal the baseline's.
var payload = map[via]func(*Result){
	traced: func(r *Result) { r.Events, r.EventsRecorded, r.EventsOverwritten, r.RouterEvents = nil, 0, 0, nil },
	nodiag: func(r *Result) { r.Anomalies, r.AnomaliesDropped = nil, 0 },
}

// twinAllocators are the designs whose reference path advances the rotation
// pointers of a second allocator. Both allocators are in the snapshot, so a
// reference run's stream differs from the baseline's in representation, not in
// behaviour: those paths are compared on the final result only.
var twinAllocators = map[Design]bool{DesignBuffered4: true, DesignBuffered8: true, DesignAFC: true}

// path is an execution path: an engine (shards × arbitration) and a via. The
// zero value is the baseline every other path is compared with.
type path struct {
	shards    int
	reference bool
	via       via
	every, at uint64
}

var seq, reference = path{}, path{reference: true}

func shards(k int) path { return path{shards: k} }

func (p path) sharded(k int) path { p.shards = k; return p }
func (p path) through(v via) path { p.via = v; return p }
func (p path) engine() path       { return path{shards: p.shards, reference: p.reference} }

// resumeSweep is eng checkpointed every `every` cycles plus a resume, on the
// same and on the other backend, from each of the first n checkpoints.
func resumeSweep(eng path, every uint64, n int) []path {
	eng.via, eng.every = checkpointed, every
	out := []path{eng}
	for k := uint64(1); k <= uint64(n); k++ {
		eng.at = k * every
		out = append(out, eng.through(resumeSame), eng.through(resumeOther))
	}
	return out
}

func (p path) String() string {
	var parts []string
	if p.reference {
		parts = append(parts, "reference")
	}
	if p.shards != 0 {
		parts = append(parts, fmt.Sprintf("shards%d", p.shards))
	}
	switch name := viaNames[p.via]; {
	case p.via == checkpointed:
		parts = append(parts, fmt.Sprintf(name, p.every))
	case strings.Contains(name, "%d"):
		parts = append(parts, fmt.Sprintf(name, p.at))
	case p.via != plain:
		parts = append(parts, name)
	case len(parts) == 0:
		return "seq"
	}
	return strings.Join(parts, "+")
}

// outcome is what a path is compared on: its final result (the facade's
// Result, or a liveResult) and, for live rows, a digest of Engine.Snapshot
// every lockstepEvery cycles.
type outcome struct {
	res   any
	snaps []uint64
}

// liveResult is the end of a run the oracle stepped itself.
type liveResult struct {
	Finish, Cycles uint64 // Finish: the closed-loop workload's finish cycle
	Stats          stats.Results
	Energy         energy.Counts
}

// runPath runs c on path p. dir is scratch space shared by the paths of one
// assertEquivalent call: a resume finds the checkpointed run's files there and
// a ledger-served run the archive (either makes what it needs if it is first).
func runPath(t *testing.T, c *equivCase, p path, dir string) outcome {
	t.Helper()
	if c.live || c.bench != "" {
		return runLive(t, c, p)
	}
	cfg := c.cfg
	cfg.Shards, cfg.ReferenceArbitration = p.shards, p.reference
	ckptDir := filepath.Join(dir, fmt.Sprintf("ckpt-%s-%d", p.engine(), p.every))
	run := func() (Result, error) { return Run(cfg) }
	switch p.via {
	case checkpointed:
		cfg.CheckpointInterval, cfg.CheckpointDir, cfg.CheckpointKeep = p.every, ckptDir, 1000
	case resumeSame, resumeOther:
		file := filepath.Join(ckptDir, fmt.Sprintf("ckpt-%012d.dxsn", p.at))
		if _, err := os.Stat(file); err != nil {
			runPath(t, c, p.through(checkpointed), dir)
		}
		// The resumed run keeps checkpointing into the same directory; that
		// must not disturb the result either.
		run = func() (Result, error) {
			return ResumeWith(file, func(c *Config) {
				switch {
				case p.via == resumeSame:
				case c.Shards > 1:
					c.Shards = 0
				default:
					c.Shards = 4
				}
			})
		}
	case reused:
		run = func() (Result, error) {
			batch, err := RunMany([]Config{cfg, cfg}, 1)
			return batch[1], err
		}
	case nodiag:
		cfg.DisableDiag = true
	case telemetry:
		cfg.Metrics, cfg.Progress = metrics.NewRegistry(), metrics.NewProgress("cycles", 0)
	case traced:
		cfg.EventTrace = 1 << 12
	case ledgerArchived, ledgerServed:
		cfg.LedgerDir = filepath.Join(dir, "ledger-"+p.engine().String())
		if _, err := os.Stat(cfg.LedgerDir); err != nil && p.via == ledgerServed {
			runPath(t, c, p.through(ledgerArchived), dir)
		}
		if p.via == ledgerServed {
			cfg.LedgerReuse, cfg.Metrics = true, metrics.NewRegistry()
		}
	}
	res, err := run()
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	switch p.via {
	case traced:
		if res.Events == nil || res.RouterEvents == nil {
			t.Errorf("%s: the run returned no event data", p)
		}
	case ledgerArchived:
		l, _ := OpenLedger(cfg.LedgerDir)
		key, _ := LedgerKey(cfg)
		if recs, _ := l.List(); len(recs) != 1 || recs[0].Key != key || recs[0].Env.Go == "" {
			t.Errorf("%s: want one environment-stamped record under key %.12s, got %+v", p, key, recs)
		}
	case ledgerServed:
		if _, hits := ledgerMetrics(cfg.Metrics); hits.Value() != 1 {
			t.Errorf("%s: %d ledger reuse hits, want 1: the run was simulated, not served", p, hits.Value())
		}
	}
	return outcome{res: res}
}

// liveNetwork builds a live row's network on p's engine the way runFrom builds
// cfg's (a closed loop's around sys, the way runSplash does).
func liveNetwork(t *testing.T, cfg Config, p path, sys *coherence.System) *Network {
	t.Helper()
	mesh, total := topology.MustMesh(cfg.Width, cfg.Height), cfg.WarmupCycles+cfg.MeasureCycles
	o := NetworkOptions{
		Design: cfg.Design, Routing: cfg.Routing, Mesh: mesh, Shards: p.shards, ReferenceArbitration: p.reference,
		Stats: stats.NewCollector(mesh.Nodes(), cfg.WarmupCycles, total),
	}
	if sys != nil {
		o.Source, o.Sink, o.PreCycle = sys, sys, sys.PreCycle
		if p.via == polled { // only Generate shows through: the engine asks every node
			o.Source = struct{ sim.Source }{sys}
		}
		o.Stats = stats.NewCollector(mesh.Nodes(), 0, 3_000_000)
	} else {
		o.Source = &drainSource{bernoulliSource(t, mesh, cfg.Pattern, cfg.Load, cfg.FlitsPerPacket, cfg.Seed), total}
		if plan := faults.NewPlan; cfg.FaultFraction > 0 {
			if cfg.FaultGranularity == "crosspoint" {
				plan = faults.NewCrosspointPlan
			}
			var err error
			if o.FaultPlan, err = plan(mesh.Nodes(), cfg.FaultFraction, cfg.FaultCycle, cfg.Seed); err != nil {
				t.Fatal(err)
			}
		}
		if cfg.TrackUtilization {
			o.Stats.EnableLinkUtilization(mesh.Width, mesh.Height)
		}
		if cfg.SampleInterval > 0 {
			o.Stats.EnableTimeSeries(cfg.SampleInterval, int(total/cfg.SampleInterval)+1)
		}
		if cfg.EventTrace > 0 {
			o.Events = events.NewRecorder(mesh.Nodes(), cfg.EventTrace)
		}
	}
	net, err := NewNetwork(o)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

var snapSeed = maphash.MakeSeed()

// runLive steps a live row on p's engine and digests Engine.Snapshot — every
// latch, link register, queue, credit pipeline, the retransmit wheel, the
// collector, the meter and the event ring — every lockstepEvery cycles, so a
// divergence shows within a stride of where it happens, not as a different
// total at the end. Equal digests also prove a sharded engine's stages empty
// between cycles: the format has no room for them.
func runLive(t *testing.T, c *equivCase, p path) outcome {
	t.Helper()
	cfg := c.cfg.withDefaults()
	var sys *coherence.System
	total, done := cfg.WarmupCycles+cfg.MeasureCycles, func() bool { return false }
	restoreAt := total / 2 / lockstepEvery * lockstepEvery
	if c.bench != "" {
		prof, ok := coherence.ProfileByName(c.bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", c.bench)
		}
		if c.ops > 0 {
			prof.OpsPerProc = c.ops
		}
		var err error
		if sys, err = coherence.NewSystem(topology.MustMesh(cfg.Width, cfg.Height), prof, 42); err != nil {
			t.Fatal(err)
		}
		total, done = 3_000_000, sys.Quiesced
		if p.via == midrunRestore { // half time is the baseline's to know
			restoreAt = baselineOf(t, c).res.(liveResult).Cycles / 2 / lockstepEvery * lockstepEvery
		}
	}
	net := liveNetwork(t, cfg, p, sys)
	var out outcome
	var snap bytes.Buffer
	for eng := net.Engine; eng.Cycle() < total && !done(); eng = net.Engine {
		eng.RunUntil(done, min(lockstepEvery, total-eng.Cycle()))
		snap.Reset()
		if err := eng.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		out.snaps = append(out.snaps, maphash.Bytes(snapSeed, snap.Bytes()))
		// Generated = ejected + live (in the network, in a buffer, dropped and
		// on the retransmit wheel, or materialized at a source) + the flits of
		// packets still queued as specs.
		gen, held := net.Stats.Total("totalGenerated"), net.Stats.TotalEjected()+uint64(eng.Pool().Outstanding())
		if c.conserve && (gen < held || gen > held+uint64(eng.QueuedFlits())) {
			t.Fatalf("%s: cycle %d: %d flits generated, %d ejected or live, %d queued", p, eng.Cycle(), gen, held, eng.QueuedFlits())
		}
		if p.via == midrunRestore && eng.Cycle() == restoreAt {
			// A closed loop's workload is not in the snapshot: the restored
			// engine goes on driving the same live system.
			net = liveNetwork(t, cfg, p, sys)
			if err := net.Engine.Restore(snap.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng := net.Engine
	res := liveResult{Cycles: eng.Cycle(), Stats: net.Stats.Results(), Energy: net.Meter.Snapshot()}
	if sys != nil {
		if res.Finish = sys.FinishCycle(); !sys.Quiesced() {
			t.Fatalf("%s: closed-loop run did not finish", p)
		}
	}
	out.res = res
	if executed, skipped := eng.RouterSteps(); p.via != midrunRestore { // a restored engine counts from the restore
		if nodes := uint64(cfg.Width * cfg.Height); executed+skipped != eng.Cycle()*nodes {
			t.Errorf("%s: %d executed + %d skipped router-steps, want %d in all", p, executed, skipped, eng.Cycle()*nodes)
		}
		if share := float64(skipped) / float64(executed+skipped); c.asleep && share < 0.5 {
			t.Errorf("%s: only %.0f %% of router-steps skipped; the row is not mostly asleep", p, 100*share)
		}
	}
	if c.conserve {
		if !eng.RunUntil(func() bool { return eng.QueuedFlits() == 0 && eng.Pool().Outstanding() == 0 }, 100_000) {
			t.Fatalf("%s: network did not drain: %d flits live, %d queued", p, eng.Pool().Outstanding(), eng.QueuedFlits())
		}
		if s := net.Stats; s.Total("totalGenerated") != s.TotalEjected() || s.Total("totalPacketsInjected") != s.Total("totalPacketsDelivered") {
			t.Errorf("%s: drained with %d of %d flits and %d of %d packets delivered", p,
				s.TotalEjected(), s.Total("totalGenerated"), s.Total("totalPacketsDelivered"), s.Total("totalPacketsInjected"))
		}
	}
	return out
}

// baselines memoizes each table row's sequential run: every suite and every
// path of a row is compared with the same one.
var baselines = map[string]outcome{}

func baselineOf(t *testing.T, c *equivCase) outcome {
	t.Helper()
	key := c.group + "/" + c.name
	if out, ok := baselines[key]; ok {
		return out
	}
	out := runPath(t, c, seq, "")
	if c.group != "" { // a fuzzed case is not a row
		baselines[key] = out
	}
	return out
}

// assertEquivalent is the one definition of "equal": each path's final result
// is reflect.DeepEqual to the sequential baseline's — every field, exported or
// not, after the path's declared payload normalisation — and a live row's
// snapshot digests match the baseline's at every stride.
func assertEquivalent(t *testing.T, c *equivCase, paths ...path) {
	t.Helper()
	want, dir := baselineOf(t, c), t.TempDir()
	for _, p := range paths {
		t.Run(p.String(), func(t *testing.T) {
			got := runPath(t, c, p, dir)
			wantRes, gotRes := want.res, got.res
			if strip := payload[p.via]; strip != nil {
				w, g := wantRes.(Result), gotRes.(Result)
				strip(&w)
				strip(&g)
				wantRes, gotRes = w, g
			}
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Errorf("result differs from the sequential baseline in %v", diffFields(reflect.ValueOf(wantRes), reflect.ValueOf(gotRes)))
			}
			if p.reference && twinAllocators[c.cfg.Design] {
				return
			}
			if len(got.snaps) != len(want.snaps) {
				t.Fatalf("%d snapshots against the baseline's %d", len(got.snaps), len(want.snaps))
			}
			for i := range got.snaps {
				if got.snaps[i] != want.snaps[i] {
					t.Fatalf("engine diverged from the sequential baseline by cycle %d", (i+1)*lockstepEvery)
				}
			}
		})
	}
}

// diffFields names the fields (embedded structs expanded) two structs differ in.
func diffFields(a, b reflect.Value) (names []string) {
	for i := 0; i < a.NumField(); i++ {
		switch f := a.Type().Field(i); {
		case !f.IsExported() || reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()):
		case f.Type == reflect.TypeOf(stats.Results{}):
			names = append(names, diffFields(a.Field(i), b.Field(i))...)
		default:
			names = append(names, f.Name)
		}
	}
	return names
}

// equivCases is the table. Every row is UR on an 8×8 DOR mesh unless it says
// otherwise; live rows carry seed 17 and a 256-event recorder, so that their
// snapshots cover event order.
var equivCases = func() (rows []equivCase) {
	add := func(group, name string, cfg Config) {
		rows = append(rows, equivCase{group: group, name: name, cfg: cfg})
	}
	live := func(group, name string, cfg Config) {
		cfg.Seed, cfg.EventTrace = 17, 256
		rows = append(rows, equivCase{group: group, name: name, cfg: cfg, live: true, asleep: cfg.Load == idleLoad && cfg.FaultFraction == 0})
	}
	for _, d := range AllDesigns {
		// Tracing on, so a comparison covers per-flit event order and not only
		// counters; SCARAB's 0.3 is past saturation (drop, NACK, retransmit).
		for _, seed := range []int64{7, 42, 3} {
			group := map[bool]string{false: "designs", true: "designs-seed3"}[seed == 3]
			add(group, fmt.Sprintf("%s/seed%d", d, seed), Config{Design: d, Load: 0.3, WarmupCycles: 300, MeasureCycles: 1200, Seed: seed, EventTrace: 512})
		}
		add("seed7", string(d), Config{Design: d, Load: 0.3, WarmupCycles: 200, MeasureCycles: 800, Seed: 7})
		// Healthy runs, where the monitor has nothing to report.
		add("healthy", string(d), Config{Design: d, Load: steadyLoad(d), WarmupCycles: 200, MeasureCycles: 800, Seed: 1})
		add("healthy", string(d)+"/seed42", Config{Design: d, Load: steadyLoad(d), WarmupCycles: 200, MeasureCycles: 800, Seed: 42})
		// Mostly asleep: checkpoints are taken while most nodes sleep, and a
		// restored engine wakes them all; they must go back to sleep unnoticed.
		add("idle", string(d), Config{Design: d, Load: idleLoad, WarmupCycles: 300, MeasureCycles: 1200, Seed: 42, EventTrace: 512})
		// Past saturation for every design: SCARAB's drops and retransmissions,
		// Flit-Bless's deflections and the buffered designs' credit returns
		// cross tile boundaries constantly. 12×5 does not divide evenly into
		// its 2×3 tiles; four-flit packets reassemble across them.
		live("saturated", string(d), Config{Design: d, Load: 0.6, WarmupCycles: 100, MeasureCycles: 500})
		live("saturated-12x5", string(d)+"/12x5", Config{Design: d, Width: 12, Height: 5, Load: 0.6, WarmupCycles: 100, MeasureCycles: 300})
		live("multiflit", string(d), Config{Design: d, Load: 0.3, FlitsPerPacket: 4, WarmupCycles: 100, MeasureCycles: 300})
	}
	for _, d := range []Design{DesignBuffered8, DesignAFC} {
		// The FIFO input bank past saturation under adaptive routing: request
		// masks of more than one bit, both heads of a split input asking for
		// the same output, AFC in its buffered mode. The bank's request masks
		// and occupancy summary are derived state that no snapshot carries, so
		// the paths that restore (the live twin's midrun-restore, the facade
		// twin's resumes) are the ones that prove it is rebuilt.
		wf := Config{Design: d, Routing: "WF", Load: 0.6, WarmupCycles: 100, MeasureCycles: 500}
		live("saturated", string(d)+"/wf", wf)
		wf.Seed = 17
		add("saturated-wf", string(d), wf)
	}
	for _, d := range []Design{DesignDXbar, DesignUnified, DesignFlitBless, DesignAFC} {
		// Transpose keeps specific ports contended; butterfly and neighbour
		// vary the hop-distance mix.
		for _, pat := range []string{"MT", "BF", "NB"} {
			add("patterns", fmt.Sprintf("%s/%s", d, pat), Config{Design: d, Pattern: pat, Load: 0.25, WarmupCycles: 200, MeasureCycles: 1000, Seed: 11})
		}
	}
	for _, d := range []Design{DesignDXbar, DesignUnified} {
		// Broken crossbars and single crosspoints reroute flits through the
		// secondary fabric; utilization, sampling and tracing are on so that
		// those Result fields are compared too.
		for _, gran := range []string{"crossbar", "crosspoint"} {
			for _, frac := range []float64{0.5, 1.0} {
				add("faults", fmt.Sprintf("%s/%s/%.2f", d, gran, frac), Config{Design: d, Load: 0.25, WarmupCycles: 300, MeasureCycles: 1000, Seed: 11,
					FaultFraction: frac, FaultGranularity: gran, TrackUtilization: true, SampleInterval: 128, EventTrace: 256})
			}
		}
		// A crossbar fault plan manifesting mid-run; every router losing a
		// crosspoint while the mesh sleeps.
		live("faults-live", string(d), Config{Design: d, Load: 0.4, FaultFraction: 0.5, FaultCycle: 120, WarmupCycles: 100, MeasureCycles: 500})
		idleFaulted := Config{Design: d, Load: idleLoad, FaultFraction: 1, FaultGranularity: "crosspoint", FaultCycle: 150, WarmupCycles: 300, MeasureCycles: 1200, Seed: 9}
		add("idle-faulted", string(d), idleFaulted)
		live("idle-faulted-live", string(d), idleFaulted)
	}
	for _, d := range []Design{DesignDXbar, DesignSCARAB, DesignBuffered4} {
		live("idle-live", string(d), Config{Design: d, Load: idleLoad, WarmupCycles: 100, MeasureCycles: 1900})
		add("12x5", string(d), Config{Design: d, Width: 12, Height: 5, Load: 0.3, WarmupCycles: 200, MeasureCycles: 600, Seed: 13, SampleInterval: 64})
	}
	// The lightly loaded closed loop, where the order of Sink deliveries feeds
	// back into what is injected next: a sharded engine that delivered a
	// cycle's packets in any order but ascending destination node would drive
	// its coherence system, and soon its network, somewhere else. The six
	// design/routing pairs of Figure 9 on its lightest and its heaviest
	// benchmark: LU keeps 6.5 of 64 nodes awake per cycle, Ocean 40.
	for _, fd := range figureDesigns {
		name := string(fd.Design)
		if fd.Routing != "DOR" {
			name += "-" + strings.ToLower(fd.Routing)
		}
		rows = append(rows, equivCase{group: "closed-loop", name: name, cfg: Config{Design: fd.Design, Routing: fd.Routing}, bench: "LU", asleep: true},
			equivCase{group: "closed-loop", name: name + "/Ocean", cfg: Config{Design: fd.Design, Routing: fd.Routing}, bench: "Ocean"})
	}
	// DXbar's configuration axes: another productive-port set per hop, age-free
	// arbitration, a fairness threshold that flips the unified fabric's
	// priority often, a deeper secondary buffer, SCARAB's reassemblers.
	add("variants", "wf-routing", Config{Design: DesignDXbar, Routing: "WF", Load: 0.3, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5})
	add("variants", "port-order", Config{Design: DesignDXbar, Load: 0.3, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5, PortOrderArbitration: true})
	add("variants", "fairness-1", Config{Design: DesignUnified, Pattern: "MT", Load: 0.3, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5, FairnessThreshold: 1})
	add("variants", "deep-buffers", Config{Design: DesignDXbar, Load: 0.35, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5, BufferDepth: 8})
	add("variants", "multi-flit", Config{Design: DesignSCARAB, Load: 0.25, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5, FlitsPerPacket: 4})
	// Multi-column tiles on the mesh size sharding is meant for.
	add("16x16", "dxbar", Config{Design: DesignDXbar, Width: 16, Height: 16, Pattern: "MT", Load: 0.25, WarmupCycles: 200, MeasureCycles: 800, Seed: 3})
	add("reuse", "scarab", Config{Design: DesignSCARAB, Load: 0.2, WarmupCycles: 200, MeasureCycles: 800, Seed: 5})
	add("reuse-idle", "dxbar", Config{Design: DesignDXbar, Load: idleLoad, WarmupCycles: 200, MeasureCycles: 800, Seed: 5})
	add("observed", "ur", ledgerTestConfig())
	add("observed-nur", "nur", Config{Design: DesignDXbar, Pattern: "NUR", Load: 0.35, Seed: 11, WarmupCycles: 300, MeasureCycles: 1500})
	// Every serialization surface, on a 4×4 mesh with checkpoints at 96 and 192
	// of 256 cycles: fault latches, SCARAB's retransmit wheel, FIFO pipelines,
	// the reassemblers, AFC's shared mode controller, the flight recorder.
	add("checkpoint", "dxbar_faults", checkpointWindow(Config{Design: DesignDXbar, Load: 0.30, Seed: 7, FaultFraction: 0.5}))
	add("checkpoint", "unified", checkpointWindow(Config{Design: DesignUnified, Load: 0.30, Seed: 11, Pattern: "BR"}))
	add("checkpoint", "scarab_retx", checkpointWindow(Config{Design: DesignSCARAB, Load: 0.45, Seed: 3}))
	add("checkpoint", "buffered4_multiflit", checkpointWindow(Config{Design: DesignBuffered4, Load: 0.25, Seed: 5, FlitsPerPacket: 4}))
	add("checkpoint", "afc_shared", checkpointWindow(Config{Design: DesignAFC, Load: 0.40, Seed: 9}))
	add("checkpoint", "flitbless_sharded", checkpointWindow(Config{Design: DesignFlitBless, Load: 0.30, Seed: 2}))
	add("checkpoint", "dxbar_sharded_trace", checkpointWindow(Config{Design: DesignDXbar, Load: 0.30, Seed: 7, EventTrace: 256}))
	return rows
}()

// rows selects a group of the table (the named rows of it, given names).
func rows(group string, names ...string) (out []*equivCase) {
	for i := range equivCases {
		if c := &equivCases[i]; c.group == group && (len(names) == 0 || slices.Contains(names, c.name)) {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		panic("oracle: no rows in group " + group)
	}
	return out
}

// assertAll holds each of the rows to assertEquivalent in a subtest of its own
// (a single row's paths run directly under the calling test).
func assertAll(t *testing.T, rows []*equivCase, paths ...path) {
	for _, c := range rows {
		if len(rows) == 1 {
			assertEquivalent(t, c, paths...)
			continue
		}
		t.Run(c.name, func(t *testing.T) { assertEquivalent(t, c, paths...) })
	}
}

// The suites. AutoShards resolves to GOMAXPROCS, so under -race -cpu 1,2,4 the
// barrier is driven with real parallelism too; shards 2, 3, 4 and 6 are 1×2,
// 1×3, 2×2 and 2×3 grids of tiles.

func TestShardBitIdentityAllDesigns(t *testing.T) {
	assertAll(t, rows("designs"), shards(1), shards(2), shards(3), shards(4), shards(AutoShards))
}
func TestShardBitIdentityFaultSweep(t *testing.T) { assertAll(t, rows("faults"), shards(4)) }
func TestShardBitIdentityLargeMesh(t *testing.T) {
	assertAll(t, rows("16x16"), shards(4), shards(AutoShards))
}
func TestShardLockstepAllDesigns(t *testing.T) {
	assertAll(t, rows("saturated"), shards(1), shards(2), shards(3), shards(4), shards(6))
	assertAll(t, rows("saturated-12x5"), shards(6))
}
func TestShardLockstepFaults(t *testing.T) { assertAll(t, rows("faults-live"), shards(4)) }
func TestShardLockstepClosedLoop(t *testing.T) {
	assertAll(t, rows("closed-loop", "dxbar"), shards(2), shards(4))
}
func TestShardEngineReuse(t *testing.T) {
	assertAll(t, rows("reuse"), shards(2), shards(2).through(reused))
}
func TestArbitrationBitIdentityAllDesigns(t *testing.T) {
	assertAll(t, append(rows("designs"), rows("designs-seed3")...), reference)
}
func TestArbitrationBitIdentityPatterns(t *testing.T)   { assertAll(t, rows("patterns"), reference) }
func TestArbitrationBitIdentityFaultSweep(t *testing.T) { assertAll(t, rows("faults"), reference) }
func TestArbitrationBitIdentityVariants(t *testing.T)   { assertAll(t, rows("variants"), reference) }

// The fast paths on four shards equal the reference paths on the sequential
// engine: both equal the baseline.
func TestArbitrationBitIdentitySharded(t *testing.T) {
	assertAll(t, rows("seed7"), reference, shards(4))
}
func TestActivityBitIdentityLowLoad(t *testing.T) {
	assertAll(t, rows("idle"), append(resumeSweep(seq, 500, 3), shards(2))...)
}
func TestActivityShardedLowLoad(t *testing.T) { assertAll(t, rows("idle-live"), shards(4)) }
func TestActivityBitIdentitySplash(t *testing.T) {
	assertAll(t, rows("closed-loop"), shards(2), shards(4), seq.through(midrunRestore), shards(4).through(midrunRestore), seq.through(polled))
}
func TestActivityEngineReuse(t *testing.T) {
	assertAll(t, rows("reuse-idle"), seq.through(reused), shards(2), shards(2).through(reused))
}
func TestCheckpointResumeBitIdentity(t *testing.T) {
	assertAll(t, rows("checkpoint"), append(resumeSweep(seq, 96, 2), resumeSweep(shards(4), 96, 2)...)...)
}
func TestDiagBitIdentity(t *testing.T) {
	assertAll(t, rows("healthy"), seq.through(nodiag), shards(2), shards(2).through(nodiag))
}
func TestTelemetryBitIdentity(t *testing.T) {
	t.Run("sequential", func(t *testing.T) { assertAll(t, rows("observed"), seq.through(telemetry)) })
	t.Run("sharded", func(t *testing.T) { assertAll(t, rows("observed"), shards(2).through(telemetry)) })
}
func TestTraceBitIdentity(t *testing.T) { assertAll(t, rows("observed-nur"), seq.through(traced)) }
func TestLedgerBitIdentity(t *testing.T) {
	assertAll(t, rows("observed"), seq.through(ledgerArchived), seq.through(ledgerServed))
}

// TestOracleCrossings is where paths that were each checked on one dxbar
// config of their own meet each other and the rest of the table.
func TestOracleCrossings(t *testing.T) {
	cross := func(name string, rows []*equivCase, paths ...path) {
		t.Run(name, func(t *testing.T) { assertAll(t, rows, paths...) })
	}
	cross("multiflit-shards", rows("multiflit"), shards(4))
	cross("variants-observers", rows("variants"), seq.through(telemetry), seq.through(traced), seq.through(ledgerServed))
	cross("faults-observers-shards", rows("faults", "dxbar/crosspoint/1.00", "unified/crossbar/0.50"),
		shards(4).through(telemetry), reference.sharded(4).through(nodiag))
	cross("reference-resume", rows("checkpoint"), resumeSweep(reference, 96, 2)...)
	cross("reference-observers", rows("observed"), reference.through(telemetry), reference.through(traced), reference.through(ledgerServed))
	cross("nonsquare-facade", rows("12x5"), resumeSweep(shards(6), 400, 1)...)
	cross("idle-crosspoint-faults", rows("idle-faulted"), resumeSweep(shards(4), 500, 1)...)
	cross("idle-crosspoint-faults-live", rows("idle-faulted-live"), shards(4), seq.through(midrunRestore), shards(4).through(midrunRestore))
	cross("closed-loop-reference", rows("closed-loop", "dxbar"), reference, shards(4).through(midrunRestore))
	cross("input-bank-restore", rows("saturated", "buffered8/wf", "afc/wf"), reference, seq.through(midrunRestore), shards(4).through(midrunRestore))
	cross("input-bank-resume", rows("saturated-wf"), append(resumeSweep(seq, 200, 2), reference)...)
}

// FuzzExecutionPaths decodes its input into a row — small meshes, non-square
// ones and ones the shard count does not divide among them, at most 400 cycles
// — and a subset of the paths, and holds the facade run and its live twin to
// assertEquivalent, the twin with the conservation audit on; with the
// closed-loop bit set, a SPLASH-2 profile of at most 150 operations per
// processor on the same design and mesh as well. The committed corpus
// (testdata/fuzz/FuzzExecutionPaths) runs with the tests.
func FuzzExecutionPaths(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		cfg := Config{
			Design: AllDesigns[at(0)%len(AllDesigns)], Routing: []string{"DOR", "WF"}[at(1)%2],
			Width: 2 + at(2)%5, Height: 2 + at(3)%4, Pattern: traffic.PatternNames[at(4)%len(traffic.PatternNames)],
			Load: []float64{idleLoad, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1}[at(5)%8], FlitsPerPacket: 1 + at(6)%4,
			WarmupCycles: 50 * uint64(1+at(7)%3), MeasureCycles: 50 * uint64(1+at(8)%5), Seed: int64(at(9)),
			TrackUtilization: at(12)&1 != 0, SampleInterval: 32 * uint64(at(12)>>1&1), EventTrace: 128 * (at(12) >> 2 & 1),
		}
		if cfg.Design == DesignDXbar || cfg.Design == DesignUnified {
			cfg.FaultFraction = []float64{0, 0.5, 1}[at(10)%3]
			cfg.FaultGranularity = []string{"crossbar", "crosspoint"}[at(10)/3%2]
			cfg.FaultCycle = 1 + uint64(at(11))
		}
		if _, err := traffic.New(cfg.Pattern, topology.MustMesh(cfg.Width, cfg.Height)); err != nil {
			t.Skip(err) // a bit-permutation pattern on a mesh that is not a power of two
		}
		k := []int{2, 3, 4, 6, AutoShards}[at(13)%5]
		eng := []path{seq, shards(k), reference, reference.sharded(k)}[at(14)%4]
		menu := append([]path{shards(k), reference, reference.sharded(k)}, resumeSweep(eng, (cfg.WarmupCycles+cfg.MeasureCycles)/100*50, 1)...)
		menu = append(menu, eng.through(reused), eng.through(nodiag), eng.through(telemetry), eng.through(traced),
			eng.through(ledgerArchived), eng.through(ledgerServed),
			shards(k), reference, seq.through(midrunRestore), shards(k).through(midrunRestore)) // from bit 12 on: the live twin's
		var facade, live []path
		for i, p := range menu {
			switch picked := (at(15)|at(16)<<8)>>i&1 != 0; {
			case !picked || p.via == ledgerServed && !ledgerReusable(cfg):
			case i < 12:
				facade = append(facade, p)
			default:
				live = append(live, p)
			}
		}
		c := equivCase{cfg: cfg}
		assertEquivalent(t, &c, facade...)
		// A faulted unified router is a dead end by design (§II.C studies fault
		// tolerance on the dual crossbar only): its flits never drain.
		c.live, c.conserve = true, cfg.Design != DesignUnified || cfg.FaultFraction == 0
		assertEquivalent(t, &c, live...)
		if b := at(17); b&1 != 0 && cfg.Width*cfg.Height >= coherence.NumDirectories {
			benches := SplashBenchmarks()
			loop := equivCase{cfg: Config{Design: cfg.Design, Routing: cfg.Routing, Width: cfg.Width, Height: cfg.Height},
				bench: benches[b>>1%len(benches)], ops: 30 * (1 + b>>5%5)}
			var closed []path
			for i, p := range []path{shards(k), seq.through(midrunRestore), shards(k).through(midrunRestore), seq.through(polled)} {
				if at(18)>>i&1 != 0 {
					closed = append(closed, p)
				}
			}
			assertEquivalent(t, &loop, closed...)
		}
	})
}
