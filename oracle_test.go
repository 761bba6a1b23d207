package dxbar

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"math"
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
// sequential, k shards, checkpointed and resumed, on a reused engine,
// observed, archived, served from the ledger, and as the retired reference
// arbiter recorded it — and this file is the only place that is asserted: one
// table of runs (equivCases), one closed set of paths (path), one definition
// of "equal" (assertEquivalent). The Test functions at the bottom only say
// which rows meet which paths.

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
	plain            via = iota
	checkpointed         // writing a checkpoint every path.every cycles
	resumeSame           // Resume from that run's checkpoint of cycle path.at
	resumeOther          // the same onto the other backend (sharded ↔ sequential)
	reused               // second job of a one-worker RunMany: Engine.Reset
	reusedAfterOther     // the same after another run on the engine (otherJob)
	nodiag               // run-health monitor off
	telemetry            // registry and progress tracker attached
	traced               // flight recorder on, for rows that have it off
	ledgerArchived       // archived into a run ledger
	ledgerServed         // served from that archive without simulating
	midrunRestore        // live rows: Engine.Snapshot at half time, restored into a fresh engine
	polled               // closed-loop rows: the system behind a wrapper that hides sim.PendingSource
	recorded             // not run: the row's Result digest as the retired reference arbiter produced it (referenceDigests)
)

var viaNames = [...]string{"", "checkpointed@%d", "resume@%d", "resume@%d-other", "reused", "reused-after-other", "nodiag", "telemetry", "traced",
	"ledger-archived", "ledger-served", "midrun-restore", "polled", "reference"}

// payload is each path's declared normalisation: the Result fields that way of
// running adds or withholds by design, cleared on both sides before they are
// compared. Every other field of every path must equal the baseline's.
var payload = map[via]func(*Result){
	traced: func(r *Result) { r.Events, r.EventsRecorded, r.EventsOverwritten, r.RouterEvents = nil, 0, 0, nil },
	nodiag: func(r *Result) { r.Anomalies, r.AnomaliesDropped = nil, 0 },
}

// path is an execution path: an engine (a shard count) and a via. The zero
// value is the baseline every other path is compared with.
type path struct {
	shards    int
	via       via
	every, at uint64
}

var seq, reference = path{}, path{via: recorded}

func shards(k int) path { return path{shards: k} }

func (p path) through(v via) path { p.via = v; return p }
func (p path) engine() path       { return path{shards: p.shards} }

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
	cfg.Shards = p.shards
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
	case reused, reusedAfterOther:
		first := cfg
		if p.via == reusedAfterOther {
			first = otherJob(cfg)
		}
		run = func() (Result, error) {
			batch, err := RunMany([]Config{first, cfg}, 1)
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
		if recs, _ := l.store.List(); len(recs) != 1 || recs[0].Key != key || recs[0].Env.Go == "" {
			t.Errorf("%s: want one environment-stamped record under key %.12s, got %+v", p, key, recs)
		}
	case ledgerServed:
		if _, hits := ledgerMetrics(cfg.Metrics); hits.Value() != 1 {
			t.Errorf("%s: %d ledger reuse hits, want 1: the run was simulated, not served", p, hits.Value())
		}
	}
	return outcome{res: res}
}

// otherJob is the run the reusedAfterOther path puts on the engine first: the
// same mesh, design and shard count, so the runner resets that engine for the
// row, but another seed and load and, on the designs that model crossbar
// faults, a 25 % crossbar-fault plan — fault, fairness and buffer state a
// router rebuilt in place would carry over if it were not re-initialised.
func otherJob(cfg Config) Config {
	load := 0.5
	if cfg.Load == load {
		load = 0.4
	}
	cfg.Seed, cfg.Load = cfg.Seed+100, load
	if designTable[cfg.Design].faultable {
		cfg.FaultFraction, cfg.FaultGranularity, cfg.FaultCycle = 0.25, "crossbar", 50
	}
	return cfg
}

// liveNetwork builds a live row's network on p's engine the way runFrom builds
// cfg's (a closed loop's around sys, the way runSplash does).
func liveNetwork(t *testing.T, cfg Config, p path, sys *coherence.System) *Network {
	t.Helper()
	mesh, total := topology.MustMesh(cfg.Width, cfg.Height), cfg.WarmupCycles+cfg.MeasureCycles
	o := NetworkOptions{
		Design: cfg.Design, Routing: cfg.Routing, BufferDepth: cfg.BufferDepth, Mesh: mesh, Shards: p.shards,
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
			if p == reference {
				if got, rec := resultDigest(want.res), referenceDigests[c.group+"/"+c.name]; got != rec {
					t.Errorf("result digest %.16s…, the retired reference arbiter's %.16s…", got, rec)
				}
				return
			}
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

// resultDigest is a SHA-256 over everything reflect.DeepEqual compares — every
// field, exported or not, pointers followed, nil told from empty — so that a
// result can be pinned as a value.
func resultDigest(v any) string {
	h := sha256.New()
	put := func(u uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, u)) }
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			flag(v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			put(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			put(v.Uint())
		case reflect.Float32, reflect.Float64:
			put(math.Float64bits(v.Float()))
		case reflect.String:
			put(uint64(v.Len()))
			h.Write([]byte(v.String()))
		case reflect.Pointer, reflect.Interface:
			if flag(v.IsNil()); !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice:
			if flag(v.IsNil()); v.IsNil() {
				return
			}
			fallthrough
		case reflect.Array:
			put(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		default:
			panic("resultDigest: no encoding for " + v.Type().String())
		}
	}
	walk(reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

// referenceDigests are the reference path of the arbitration suites. While the
// branchy allocators were a selectable reference arbitration in the simulator,
// each of these rows also ran on them and had to equal its baseline; these are
// the resultDigests of those reference runs, taken on the last build that had
// them, where each also equalled the fast run's. The one arbitration path left
// is held to them. The branchy twins themselves live on
// in the test files of internal/bitarb, internal/core and internal/router,
// stepped in lockstep with the fast code. A digest moves with any change to a
// Result field's type or order, too: only then is one re-pinned.
var referenceDigests = map[string]string{
	"designs/flitbless/seed7":        "e1c9c21bb5549ba8d9662b516014166b91677ecc8cebc427d50d03e551db12df",
	"designs/flitbless/seed42":       "145ca1caee44fa434a70d36de2093cbe564b5b34e0daa7e85de6529fa32304fb",
	"designs/scarab/seed7":           "da77dcc506af7d2a7d2175436242ca074f05a00b99dabf8f01cd78eb3ea84047",
	"designs/scarab/seed42":          "3b2a94179dd697bab423477a7fbb9a5690d060fc92e172a238ca1946c9a4496e",
	"designs/buffered4/seed7":        "e60dec522d2f0a86f877dd60d7c0ccfbdbb33450678e9f79310aa0ae51c3fd9e",
	"designs/buffered4/seed42":       "ab9ffefff8dc8ed74fe7637286fa1359c214d199b7b1b72e602e6df53a839b92",
	"designs/buffered8/seed7":        "d7fdd616be1249edbbb8f5e08ecf98768e4129646cd7adc7ca5c84475cabc729",
	"designs/buffered8/seed42":       "c1a0c255ae257be62086b0f461f934b34ca1aff5f8810aa07130929607daf84e",
	"designs/dxbar/seed7":            "0bd252b621cf52accd174512e373864ebe72584b4694de5b4a8c70e3b0be9cc8",
	"designs/dxbar/seed42":           "2ebfe9c73762430fa064a8165f6baa13ddfa3aea14b0bdd53af5026a5dc56f63",
	"designs/unified/seed7":          "99691d233ba5101dd46097426a4e8a435056afce523234dd17ddc1095e32b10c",
	"designs/unified/seed42":         "a4d2187ce1ab4de82388468596ca70f2ba7784263cf4596b965d80091c712d17",
	"designs/afc/seed7":              "92fc6ed3e7707658497db65b3b26341c858fdae09ac1ee4013166774f0708b59",
	"designs/afc/seed42":             "5b3dcfc18419f5818fd53acf5efd48a7b6486c85d0e2c6fb50b85b76412ba33a",
	"designs-seed3/flitbless/seed3":  "27b5ed335499ed456e5ddd0c2d15c5e9484676b6c2dafe814498026723e3d9c6",
	"designs-seed3/scarab/seed3":     "b8a7f87ac4055ac97c2743f7ba6b6f9b02856e9c10eb45a8834dfe5c899bae95",
	"designs-seed3/buffered4/seed3":  "0900f12a6ed273ef2fee2d0fbd4168083e86308e3f2019f33471dbf050a8cecd",
	"designs-seed3/buffered8/seed3":  "2538c9098035935f12be94d427069911242fbcac1b4135746ef366057e8e92b4",
	"designs-seed3/dxbar/seed3":      "ed8e326d9537105502a123199eb15d829547189ef2cdcc75c44cb48a15a92f47",
	"designs-seed3/unified/seed3":    "3c90f754906716e96b3ea1de3487631d39290f18a5865c04c7e2caaae65a8e5c",
	"designs-seed3/afc/seed3":        "4567366c080bf890bee6cccf6074ccf15e17197efc3d9409d0ba8236fc259cad",
	"patterns/dxbar/MT":              "e9d834fdba27abd71e6967f2156be7e9f674c0dbec5a14ed49dc853074cefa4d",
	"patterns/dxbar/BF":              "76ab4e9c2624532624a913789cd1b0d462ec4c94c73486fe9938df0ad64d03d7",
	"patterns/dxbar/NB":              "2c08c349d9afd71f5969b54bc3bea04abf5e5b6dd514a1fd602a9854dfd84507",
	"patterns/unified/MT":            "32219940d6e0c0b69e455eb42cf590403b3a309949bf9c589aa2390fd2997c55",
	"patterns/unified/BF":            "c675fddb9697f32f21af9d2f0edfe3cdd59ad39aca7cd54ea6d9892de2b964da",
	"patterns/unified/NB":            "3ab4c3122a0f1c90ea81b38c00abd208ce8ed1682a4726afceda1a0ec26ce8a5",
	"patterns/flitbless/MT":          "5af70f71f8f32e8628723e0aea5efe45c29e414b6f198ce63e175a953fc2b6c3",
	"patterns/flitbless/BF":          "f2e0b6b146b0738194ed6411e18e126837bb32361968ded69228726ae63e2056",
	"patterns/flitbless/NB":          "5d93a0be3485f7d331662756fbcec7fc8f0af7480a3a22dc4ff3f75cbc1ec2c8",
	"patterns/afc/MT":                "710d2c0da7d3a2f73cb7a7a3e3ddeb93156c6e57203ef999b05104d373704f40",
	"patterns/afc/BF":                "13cb037950c9de7aa674ed0e4037904337f19e1de5f1130780c40875d1fcadd2",
	"patterns/afc/NB":                "f5e8c6595d904c90958e34ab40176f24e358e36d36680b208c143648e49ad2c1",
	"faults/dxbar/crossbar/0.50":     "159b80a0f518203f3ca1c8ce84b15111d7ea9b607c28840487f467d042f85c58",
	"faults/dxbar/crossbar/1.00":     "83c563136fe53b23bfb7f89c3a5ee09fc73bf57270180aa8627bac7e732aa50e",
	"faults/dxbar/crosspoint/0.50":   "b69f6a956d4f5718c7d70b4fd5f7a7de755dc34948578af85875127f624e1a16",
	"faults/dxbar/crosspoint/1.00":   "81027c39277ca895d1c1af9dff199f52861a89b74b07165533f50bc3734a430f",
	"faults/unified/crossbar/0.50":   "a236523df69d5434a38254eb5fbe91ca4aa41228d52948505cd2cca9cdc9f014",
	"faults/unified/crossbar/1.00":   "2d00853cb8f85a1b76dffa96e3436db5a37f33b153b80c2d9882ad80f0f19bff",
	"faults/unified/crosspoint/0.50": "a236523df69d5434a38254eb5fbe91ca4aa41228d52948505cd2cca9cdc9f014",
	"faults/unified/crosspoint/1.00": "4f13f81189fec77ab3674830557e4ac423975e4390ad6760ed89347cca3e267e",
	"variants/wf-routing":            "3ae6ef6b70357820aa3eee43844920151950a905ed523a1b1a6b1b2efa8dbb49",
	"variants/port-order":            "bbf6fc0818d2ddc2770ac63ad2474954442deed681fe818fafe465a51777a502",
	"variants/fairness-1":            "4cf04ea2649ada01a8b44d1c125de10c969b936e5d6783b20a48c08bc5dd0511",
	"variants/deep-buffers":          "caf24f71026c5df5c917137215a03ee4d0c700e439f5f200b9dc8cb55ca63ac1",
	"variants/depth-3":               "c4617c4e4359ab0b7a558969e6ad786adec824181ee57770e4779a23c5b4e1b0",
	"variants/multi-flit":            "75422777978f88960d49ffe53d2541ffe10992098d9af719ed014611f5f94a9e",
	"seed7/flitbless":                "5730d637a2e24d4025eb4102fb9934141a0cf27c821c07e5ca9fdb9c83ea502a",
	"seed7/scarab":                   "a62414fe62c8f0b41188d181c3b488de95d8ce00ceaea36d3e7c8f1ca75ef7f2",
	"seed7/buffered4":                "62ec25b849ccd620b1027f7e3c49999ea87409c38dfe00c63a0f29eeffb93dc8",
	"seed7/buffered8":                "ce984f86789d03e578a2e53fd0b4cda2a86a8646f256efd83bef03a33ea9a91c",
	"seed7/dxbar":                    "25d83a033bc19baacb3396c516bdd642db005cefea9dc56266849b920b5f3c4a",
	"seed7/unified":                  "9a3b6aae9954fe0930a5ebe6fb70c97d8c12d16b167c0c03fe352975c21907fb",
	"seed7/afc":                      "816c0d2669189654756e3d901f8b3548a5ff4a1e7600ab6eabc1cf9b898dd933",
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
	// Far past saturation with four-flit packets: by the end every node's
	// injection backlog runs to a few hundred packets, so each snapshot walks
	// several spec chunks per node and every restore rebuilds them.
	live("saturated-deep", "dxbar", Config{Design: DesignDXbar, Load: 0.9, FlitsPerPacket: 4, WarmupCycles: 100, MeasureCycles: 1500})
	// Past saturation with eight-deep input buffers, the deepest per-node
	// storage of any configuration: the flit pool outgrows its primed floor
	// mid-run on every path — sequential, through the sharded engine's Settle
	// and after a restore into a fresh network.
	live("saturated-deep-buffers", "dxbar/depth8", Config{Design: DesignDXbar, BufferDepth: 8, Load: 0.6, WarmupCycles: 100, MeasureCycles: 500})
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
	// priority often, a deeper secondary buffer and one shallower than its
	// ring's power-of-two capacity, SCARAB's reassemblers.
	add("variants", "wf-routing", Config{Design: DesignDXbar, Routing: "WF", Load: 0.3, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5})
	add("variants", "port-order", Config{Design: DesignDXbar, Load: 0.3, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5, PortOrderArbitration: true})
	add("variants", "fairness-1", Config{Design: DesignUnified, Pattern: "MT", Load: 0.3, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5, FairnessThreshold: 1})
	add("variants", "deep-buffers", Config{Design: DesignDXbar, Load: 0.35, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5, BufferDepth: 8})
	add("variants", "depth-3", Config{Design: DesignDXbar, Routing: "WF", Load: 0.45, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5, BufferDepth: 3})
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
	assertAll(t, rows("reuse"), shards(2), shards(2).through(reused), shards(2).through(reusedAfterOther))
}
func TestArbitrationBitIdentityAllDesigns(t *testing.T) {
	assertAll(t, append(rows("designs"), rows("designs-seed3")...), reference)
}
func TestArbitrationBitIdentityPatterns(t *testing.T)   { assertAll(t, rows("patterns"), reference) }
func TestArbitrationBitIdentityFaultSweep(t *testing.T) { assertAll(t, rows("faults"), reference) }
func TestArbitrationBitIdentityVariants(t *testing.T)   { assertAll(t, rows("variants"), reference) }

// The fast paths on four shards equal the reference arbiter's results too.
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
	assertAll(t, rows("reuse-idle"), seq.through(reused), seq.through(reusedAfterOther), shards(2), shards(2).through(reused))
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
	cross("faults-observers-shards", rows("faults", "dxbar/crosspoint/1.00", "unified/crossbar/0.50"), shards(4).through(telemetry))
	cross("nonsquare-facade", rows("12x5"), resumeSweep(shards(6), 400, 1)...)
	cross("idle-crosspoint-faults", rows("idle-faulted"), resumeSweep(shards(4), 500, 1)...)
	cross("idle-crosspoint-faults-live", rows("idle-faulted-live"), shards(4), seq.through(midrunRestore), shards(4).through(midrunRestore))
	cross("input-bank-restore", rows("saturated", "buffered8/wf", "afc/wf"), seq.through(midrunRestore), shards(4).through(midrunRestore))
	cross("input-bank-resume", rows("saturated-wf"), resumeSweep(seq, 200, 2)...)
	cross("backlog-restore", rows("saturated-deep"), shards(2), shards(4), seq.through(midrunRestore), shards(4).through(midrunRestore))
	cross("pool-growth", rows("saturated-deep-buffers"), shards(4), seq.through(midrunRestore), shards(4).through(midrunRestore))
	cross("reuse-after-other", append(rows("seed7"), rows("faults", "dxbar/crosspoint/0.50", "unified/crossbar/1.00")...),
		seq.through(reusedAfterOther), shards(4).through(reusedAfterOther))
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
		eng := []path{seq, shards(k)}[at(14)%2]
		menu := append([]path{shards(k)}, resumeSweep(eng, (cfg.WarmupCycles+cfg.MeasureCycles)/100*50, 1)...)
		menu = append(menu, eng.through(reused), eng.through(nodiag), eng.through(telemetry), eng.through(traced),
			eng.through(ledgerArchived), eng.through(ledgerServed),
			shards(k), seq.through(midrunRestore), shards(k).through(midrunRestore)) // from bit 10 on: the live twin's
		var facade, live []path
		for i, p := range menu {
			switch picked := (at(15)|at(16)<<8)>>i&1 != 0; {
			case !picked || p.via == ledgerServed && !ledgerReusable(cfg):
			case i < 10:
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
