// Package dxbar is a cycle-accurate Network-on-Chip simulator reproducing
// "Energy-Efficient and Fault-Tolerant Unified Buffer and Bufferless
// Crossbar Architecture for NoCs" (Zhang, Morris, DiTomaso, Kodi — IPDPS
// Workshops 2012).
//
// It implements the paper's two proposed routers — the DXbar dual-crossbar
// design and the unified dual-input single-crossbar design — alongside the
// four comparison designs (Flit-Bless, SCARAB, Buffered 4, Buffered 8), the
// DOR and West-First routing algorithms, the nine synthetic traffic
// patterns, crossbar fault injection with BIST-style delayed detection, and
// the 65 nm energy/area model of Table III.
//
// The simplest entry point is Run:
//
//	res, err := dxbar.Run(dxbar.Config{
//		Design:  dxbar.DesignDXbar,
//		Routing: "DOR",
//		Pattern: "UR",
//		Load:    0.3,
//	})
//
// For closed-loop workloads (the SPLASH-2 coherence substrate) and custom
// sources, use NewNetwork.
package dxbar

import (
	"fmt"
	"os"

	"dxbar/internal/core"
	"dxbar/internal/diag"
	"dxbar/internal/energy"
	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/metrics"
	"dxbar/internal/router"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
)

// Design selects a router microarchitecture.
type Design string

// The six evaluated router designs (§III.A).
const (
	// DesignDXbar is the paper's dual-crossbar router (primary bufferless
	// + secondary buffered crossbar).
	DesignDXbar Design = "dxbar"
	// DesignUnified is the paper's unified dual-input single crossbar.
	DesignUnified Design = "unified"
	// DesignFlitBless is bufferless deflection routing (reference [6]).
	DesignFlitBless Design = "flitbless"
	// DesignSCARAB is bufferless drop + NACK retransmission (ref. [8]).
	DesignSCARAB Design = "scarab"
	// DesignBuffered4 is the generic 4-flit-FIFO input-buffered baseline.
	DesignBuffered4 Design = "buffered4"
	// DesignBuffered8 uses two 4-flit FIFOs per input (no HoL blocking).
	DesignBuffered8 Design = "buffered8"
	// DesignAFC is Adaptive Flow Control (reference [9]): per-router mode
	// switching between bufferless and buffered operation. An extension
	// design — the paper discusses AFC as the closest prior hybrid but did
	// not simulate it.
	DesignAFC Design = "afc"
)

// AutoShards, assigned to Config.Shards or NetworkOptions.Shards, sizes the
// sharded engine to the available CPUs (GOMAXPROCS).
const AutoShards = -1

// Designs lists the six designs of the paper's comparison, in its order.
var Designs = []Design{DesignFlitBless, DesignSCARAB, DesignBuffered4, DesignBuffered8, DesignDXbar, DesignUnified}

// AllDesigns additionally includes the extension designs (AFC).
var AllDesigns = append(append([]Design{}, Designs...), DesignAFC)

// Config describes one simulation run.
type Config struct {
	// Design selects the router microarchitecture (required).
	Design Design
	// Routing is "DOR" or "WF" (default "DOR"). Ignored by SCARAB, which
	// is inherently minimal-adaptive.
	Routing string
	// Width and Height give the mesh dimensions (default 8×8).
	Width, Height int
	// Pattern is one of the nine synthetic patterns (default "UR").
	Pattern string
	// Load is the offered load in flits/node/cycle (fraction of capacity).
	Load float64
	// FlitsPerPacket is the packet size (default 1, as in the paper's
	// synthetic experiments).
	FlitsPerPacket int
	// WarmupCycles and MeasureCycles delimit the measurement window
	// (defaults 2000 and 8000).
	WarmupCycles, MeasureCycles uint64
	// Seed drives every random choice; same config + seed = same run.
	Seed int64
	// FaultFraction injects one crossbar fault into that fraction of the
	// routers (§III.E; the dxbar and unified designs), manifesting at
	// FaultCycle.
	FaultFraction float64
	// FaultCycle is the fault manifestation cycle (default: 10).
	FaultCycle uint64
	// FaultGranularity is "crossbar" (default — §III.E's whole-crossbar
	// failures) or "crosspoint" (a single input→output crosspoint fails).
	// A unified router has one fabric and no fallback path: it treats a
	// fault of either granularity as the death of that fabric.
	FaultGranularity string
	// FairnessThreshold overrides the DXbar fairness counter threshold
	// (default core.FairnessThreshold = 4; negative is an error).
	FairnessThreshold int
	// BufferDepth overrides the per-input buffer depth (default: 4 for
	// DXbar/unified/Buffered 4, 8 for Buffered 8). Used by the
	// buffer-depth ablation; DXbar only, 1..64.
	BufferDepth int
	// TrackUtilization enables per-link utilization counters (see
	// Result.NodeUtilization and Heatmap).
	TrackUtilization bool
	// SampleInterval enables time-series sampling: every SampleInterval
	// cycles (warmup included) the engine snapshots injected/ejected flit
	// deltas, in-flight flit count, injection-queue backlog and buffer
	// occupancy into Result.TimeSeries. 0 disables sampling.
	SampleInterval uint64
	// CreditDelay overrides the credit-return signalling latency in cycles
	// (default 1, at most 64; ablation of the round-trip the fairness
	// threshold must cover, §II.A.2).
	CreditDelay int
	// PortOrderArbitration replaces DXbar's age-based arbitration with
	// static port order (arbitration-policy ablation; DXbar only).
	PortOrderArbitration bool
	// EventTrace enables the flight recorder with a ring of that many
	// events (see internal/events; at most 2^24, a negative value is an
	// error). 0 disables tracing; disabled runs are
	// bit-identical to traced ones. The recorded tail is returned in
	// Result.Events, the whole-run per-router counters in
	// Result.RouterEvents.
	EventTrace int
	// EventKinds restricts the recorder to the named event kinds (each
	// entry may be a comma-separated list; see events.KindNames). Empty
	// records every kind.
	EventKinds []string
	// Shards runs every per-node step of the cycle — router steps, link
	// landing and launch, ejection, credit ticks — on that many parallel
	// workers, each owning a rectangular tile of the mesh (a 2D grid chosen
	// to minimize boundary links, fixed for the run). 0 or 1 selects the
	// sequential engine;
	// AutoShards (-1) sizes to the available CPUs; an infeasible value is
	// reduced to the largest grid factorization that fits the mesh. Results
	// are bit-identical to the sequential engine for every design, shard
	// count and seed — sharding only changes wall-clock time, and only pays
	// off on large meshes (16×16 and up).
	Shards int
	// Metrics attaches a live telemetry registry: the engine publishes flit
	// and packet counters, gauges, the latency histogram and the per-shard
	// execution profile at the metrics publish interval and at run end. Serve
	// it with metrics.StartServer (the -http flag of the CLIs). A registry
	// may be shared by many concurrent runs — counters aggregate across
	// them. Nil (the default) disables publication at zero cost, and results
	// are bit-identical with telemetry on or off.
	Metrics *metrics.Registry
	// Progress, when non-nil, tracks the run's completed cycles (the
	// /progress endpoint for single runs). Sweeps use their own point-level
	// tracker instead.
	Progress *metrics.Progress
	// ShardProfile populates Result.ShardProfile and Result.ShardImbalance
	// from the sharded engine's execution profiler. Opt-in because the
	// profile is wall-clock measurement: it varies run to run and would
	// break bit-identity comparisons of whole Results.
	ShardProfile bool
	// Diag overrides the run-health monitor's configuration (detector
	// windows, thresholds, logger, callback). Nil uses diag's built-in
	// thresholds and no logger — the monitor itself is on by default: every
	// Run carries the progress watchdog, the flit-age watermark, the storm
	// detectors and the fault-detection-latency tracker at zero allocations
	// per cycle, and detectors only observe, so results are bit-identical
	// with diagnostics on or off. The monitor's metrics default into
	// Config.Metrics when Diag.Registry is nil.
	Diag *diag.Config
	// DiagDir, when non-empty, is the directory post-mortem bundles are
	// written under: on the run's first anomaly, on SIGQUIT
	// (diag.RequestDump), and at the end of an interrupted run. Empty disables
	// bundle writing (detectors still run and Result.Anomalies is still
	// populated).
	DiagDir string
	// DisableDiag turns the run-health monitor off entirely (benchmark
	// harnesses measuring the engine alone, or A/B-testing the detectors
	// themselves, as TestDiagBitIdentity does).
	DisableDiag bool
	// CheckpointInterval, together with CheckpointDir, enables periodic
	// checkpointing: every CheckpointInterval cycles the run serializes its
	// complete engine state into CheckpointDir (atomic write — a kill cannot
	// leave a torn file), keeping the newest CheckpointKeep files. A resumed
	// run (Resume, dxbar-sim -resume) continues bit-identically: its Result
	// is byte-for-byte the uninterrupted run's. 0 disables checkpointing;
	// between writes the cycle loop stays allocation-free (one nil check and
	// one compare per cycle).
	CheckpointInterval uint64
	// CheckpointDir is the directory checkpoint files are written under
	// (created if absent). Empty disables checkpointing.
	CheckpointDir string
	// CheckpointKeep bounds the checkpoint files retained in CheckpointDir —
	// after each write, older ckpt-*.dxsn files beyond the newest
	// CheckpointKeep are pruned. 0 means DefaultCheckpointKeep.
	CheckpointKeep int
	// LedgerDir, when non-empty, archives the completed run into the
	// content-addressed run ledger under that directory (one atomic JSON
	// record per configuration hash, holding the full Result, the latency
	// distribution and an environment stamp — see OpenLedger /
	// internal/runstore). Interrupted or rewind-clipped runs are not
	// archived: a record always describes the configured window. Archiving
	// happens once, after the run completes — the cycle loop never touches
	// the ledger, and results are bit-identical with it on or off.
	LedgerDir string
	// LedgerReuse additionally short-circuits Run: when LedgerDir already
	// holds a record for this exact configuration, the archived Result is
	// decoded and returned without simulating — runs are deterministic, so
	// the archived Result IS this run's result. Configurations whose Result
	// carries payloads that cannot be reconstructed from JSON (event traces)
	// or that vary run to run (ShardProfile wall-clock profiles), and
	// checkpoint resumes, always simulate.
	LedgerReuse bool
}

// Result is a simulation summary: the stats.Results metrics plus energy.
type Result struct {
	stats.Results
	// AvgEnergyNJ is the average network energy per delivered packet in
	// nanojoules over the measurement window (the paper's Fig. 6/8/10
	// metric).
	AvgEnergyNJ float64
	// TotalEnergyNJ is the total measurement-window energy.
	TotalEnergyNJ float64
	// EventCounts are the raw energy-model event counts in the window.
	EventCounts energy.Counts
	// Design and Routing echo the configuration.
	Design  Design
	Routing string
	Pattern string
	Load    float64
	// Power is the extension power breakdown (dynamic + leakage, mW at
	// 1 GHz) over the measurement window; the paper's figures use the
	// dynamic-only AvgEnergyNJ (see internal/energy/static.go).
	Power energy.PowerBreakdown
	// NodeUtilization is each node's mean outgoing-link utilization over
	// the window (nil unless Config.TrackUtilization), averaged over the
	// links each node actually has.
	NodeUtilization []float64
	// TimeSeries holds the periodic snapshots taken every SampleInterval
	// cycles (nil unless Config.SampleInterval > 0), in chronological
	// order; SampleInterval echoes the configuration.
	TimeSeries     []stats.Sample
	SampleInterval uint64
	// Width and Height echo the mesh size (for Heatmap rendering).
	Width, Height int
	// Events is the flight-recorder ring's chronological tail (nil unless
	// Config.EventTrace > 0). When EventsOverwritten > 0 the ring wrapped
	// and the tail covers only the end of the run.
	Events []events.Event
	// EventsRecorded and EventsOverwritten count the events accepted over
	// the whole run and those lost to ring overwrite.
	EventsRecorded    uint64
	EventsOverwritten uint64
	// RouterEvents is the per-router × per-kind counter matrix (nil unless
	// Config.EventTrace > 0). Unlike Events it is exact for the whole run —
	// the counters survive ring overwrite.
	RouterEvents *events.Matrix
	// ShardProfile is the sharded engine's per-shard execution profile —
	// cumulative router-phase and barrier-wait time per shard over the whole
	// run (nil unless Config.ShardProfile and the run was sharded).
	ShardProfile []sim.ShardProfile
	// ShardImbalance is the max/mean cumulative router-phase time across
	// shards (1.0 = perfectly balanced; 0 when ShardProfile is nil). A high
	// ratio means the tile grid is uneven for this workload and faster
	// shards burn their surplus in BarrierWait. It is a wall-clock reading:
	// the shipped patterns split their traffic over equal tiles to within a
	// few percent, and on a shared host scheduling noise reads higher than
	// that (EXPERIMENTS.md, "Reading the shard imbalance ratio").
	ShardImbalance float64
	// Anomalies holds the run-health monitor's anomaly records in firing
	// order (nil on a healthy run, or with Config.DisableDiag). Detector
	// inputs are deterministic simulation state, so the records are
	// deterministic too — identical across sequential/sharded runs of the
	// same config and seed. AnomaliesDropped counts records beyond the
	// monitor's cap (their dxbar_anomaly_total increments still happened).
	Anomalies        []diag.Anomaly
	AnomaliesDropped uint64
	// Interrupted reports that the run was stopped early by a graceful
	// interrupt (diag.Interrupt — the CLIs' SIGINT/SIGTERM path). The
	// metrics above then cover only the cycles actually simulated: partial
	// results, flagged rather than discarded.
	Interrupted bool
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Routing == "" {
		cfg.Routing = "DOR"
	}
	if cfg.Width == 0 {
		cfg.Width = 8
	}
	if cfg.Height == 0 {
		cfg.Height = 8
	}
	if cfg.Pattern == "" {
		cfg.Pattern = "UR"
	}
	if cfg.FlitsPerPacket == 0 {
		cfg.FlitsPerPacket = 1
	}
	if cfg.WarmupCycles == 0 {
		cfg.WarmupCycles = 2000
	}
	if cfg.MeasureCycles == 0 {
		cfg.MeasureCycles = 8000
	}
	if cfg.FaultCycle == 0 {
		cfg.FaultCycle = 10
	}
	if cfg.FairnessThreshold == 0 {
		cfg.FairnessThreshold = core.FairnessThreshold
	}
	// DXBAR_SMOKE caps run lengths so `make examples-smoke` can exercise
	// every example in seconds without editing them.
	if os.Getenv("DXBAR_SMOKE") != "" {
		if cfg.WarmupCycles > 200 {
			cfg.WarmupCycles = 200
		}
		if cfg.MeasureCycles > 800 {
			cfg.MeasureCycles = 800
		}
	}
	return cfg
}

// withoutHandles and experiment are the one declaration of which Config
// fields are not part of the experiment; checkpoints, post-mortem bundles and
// the ledger key all read it, and TestLedgerKeyInvariance fails for a field
// that is neither listed here nor proven to change the key.
//
// withoutHandles drops the live handles: attachments of this process, which
// are not configuration and cannot marshal (the registry, the progress
// tracker, the diag config with its logger and callbacks). What remains is
// what a checkpoint or a bundle's config.json saves.
func (c Config) withoutHandles() Config {
	c.Metrics, c.Progress, c.Diag = nil, nil, nil
	return c
}

// experiment additionally zeroes the execution-only fields — how a run is
// parallelized, checkpointed, archived and where its bundles go, never what
// Result it produces. What remains is what the ledger key hashes. Fields that
// do change Result contents (SampleInterval, EventTrace, TrackUtilization,
// ShardProfile, DisableDiag, fault knobs…) stay.
func (c Config) experiment() Config {
	c = c.withoutHandles()
	c.Shards = 0
	c.DiagDir = ""
	c.CheckpointInterval, c.CheckpointDir, c.CheckpointKeep = 0, "", 0
	c.LedgerDir, c.LedgerReuse = "", false
	return c
}

// routerArgs is what a design's router constructor reads: one network's
// options (defaults applied) and what prepare resolved from them.
type routerArgs struct {
	NetworkOptions
	// algo is the one routing table the design reads, precomputed once per
	// network and shared by all its routers (handed a table for their own
	// mesh, the constructors' NewTable returns it as-is). A nil mesh (invalid
	// options, rejected by sim.New before the factory runs) leaves the bare
	// algorithm.
	algo  routing.Algorithm
	depth int
	afc   *router.AFCController // set by the afc row's shared hook
}

func (a *routerArgs) detector(node int) faults.Detector {
	f, ok := a.FaultPlan.ForRouter(node)
	return faults.NewDetector(f, a.FaultPlan.DetectionDelay, ok)
}

// slab is how a design builds its routers: a network's routers of type T live
// in one []T, each built in place by init — one allocation per network (and
// so per Engine.Reset), none per router.
func slab[T any, R interface {
	*T
	sim.Router
}](init func(r R, env *sim.Env, a *routerArgs)) func(a *routerArgs, nodes int) sim.RouterFactory {
	return func(a *routerArgs, nodes int) sim.RouterFactory {
		rs := make([]T, nodes)
		return func(env *sim.Env) sim.Router {
			r := R(&rs[env.Node])
			init(r, env, a)
			return r
		}
	}
}

// designTable is the one declaration of what distinguishes the designs when a
// network is assembled: the engine's credit/buffer depth (0 = bufferless), the
// energy meter, whether crossbar faults are modelled and whether
// NetworkOptions.BufferDepth applies, a routing algorithm of the design's own
// (algo, replacing the configured one), the router builder (slab) with its
// per-node constructor, and an optional hook that builds network-wide state
// before the routers and returns a function to run before every cycle's
// router phase.
var designTable = map[Design]struct {
	depth                    int
	meter                    func() *energy.Meter
	faultable, depthOverride bool
	algo                     routing.Algorithm
	routers                  func(a *routerArgs, nodes int) sim.RouterFactory
	shared                   func(a *routerArgs, nodes int) (preCycle func(uint64))
}{
	DesignDXbar: {depth: 4, meter: energy.NewMeter, faultable: true, depthOverride: true,
		routers: slab(func(r *core.DXbar, env *sim.Env, a *routerArgs) {
			r.Init(env, a.algo, a.FairnessThreshold, a.depth, a.detector(env.Node))
			r.SetPortOrderArbitration(a.PortOrderArbitration)
		})},
	DesignUnified: {depth: 4, meter: energy.NewUnifiedMeter, faultable: true,
		routers: slab(func(r *core.Unified, env *sim.Env, a *routerArgs) {
			r.Init(env, a.algo, a.FairnessThreshold, a.detector(env.Node))
		})},
	DesignFlitBless: {meter: energy.NewMeter,
		routers: slab(func(r *router.Bless, env *sim.Env, a *routerArgs) { r.Init(env, a.algo) })},
	// SCARAB's minimal-adaptive routing has no Config knob.
	DesignSCARAB: {meter: energy.NewMeter, algo: routing.MinimalAdaptive{},
		routers: slab(func(r *router.Scarab, env *sim.Env, a *routerArgs) {
			minTable, _ := a.algo.(*routing.Table)
			r.Init(env, minTable)
		})},
	DesignBuffered4: {depth: 4, meter: energy.NewMeter,
		routers: slab(func(r *router.Buffered, env *sim.Env, a *routerArgs) { r.Init(env, a.algo, false) })},
	DesignBuffered8: {depth: 8, meter: energy.NewBuffered8Meter,
		routers: slab(func(r *router.Buffered, env *sim.Env, a *routerArgs) { r.Init(env, a.algo, true) })},
	// One mode controller is shared by every router of an AFC network. Its
	// policy ticks once per cycle *before* the router phase — from this hook
	// and nowhere else — so that the sharded engine's workers read a stable
	// mode and a network of sleeping routers keeps its clock.
	DesignAFC: {depth: 4, meter: energy.NewMeter,
		shared: func(a *routerArgs, nodes int) func(uint64) {
			a.afc = router.NewAFCController(nodes)
			return a.afc.Tick
		},
		routers: slab(func(r *router.AFC, env *sim.Env, a *routerArgs) {
			env.RegisterShared(a.afc)
			r.Init(env, a.algo, a.afc)
		})},
}

// Network bundles a ready-to-run engine with its meter and collector, for
// callers that drive their own sources (closed-loop workloads, examples).
type Network struct {
	Engine *sim.Engine
	Meter  *energy.Meter
	Stats  *stats.Collector
}

// NetworkOptions configures NewNetwork.
type NetworkOptions struct {
	// Design and Routing select the router microarchitecture and routing
	// algorithm (Routing defaults to "DOR").
	Design  Design
	Routing string
	// Mesh is the topology (required).
	Mesh *topology.Mesh
	// Source and Sink drive and observe traffic; either may be nil.
	Source sim.Source
	Sink   sim.Sink
	// Stats must be sized by the caller; its window defines what is
	// measured (required).
	Stats *stats.Collector
	// FairnessThreshold defaults to core.FairnessThreshold.
	FairnessThreshold int
	// FaultPlan may be nil for a healthy network (DXbar/unified only).
	FaultPlan *faults.Plan
	// PreCycle runs at the start of every cycle (closed-loop workloads).
	PreCycle func(cycle uint64)
	// BufferDepth overrides the design's default buffer depth (ablations;
	// DXbar only, 1..64).
	BufferDepth int
	// CreditDelay overrides the credit-return latency (default 1 cycle,
	// at most 64).
	CreditDelay int
	// PortOrderArbitration switches DXbar to static port-order arbitration.
	PortOrderArbitration bool
	// Events attaches a flight recorder; nil (the default) disables runtime
	// event tracing at zero cost.
	Events *events.Recorder
	// Shards parallelizes every per-node step of the cycle (see
	// Config.Shards).
	Shards int
	// Telemetry attaches a live-metrics publication handle (see
	// Config.Metrics; built with metrics.NewSimTelemetry). Nil disables
	// publication at zero cost.
	Telemetry *metrics.SimTelemetry
	// Diag attaches a run-health monitor (built with diag.NewMonitor). Nil
	// disables the detectors at zero cost. Unlike Run, NewNetwork does not
	// create one by default — callers driving their own engine own the
	// monitor's lifecycle (and its Detach).
	Diag *diag.Monitor
}

// maxBufferDepth bounds a BufferDepth override: four times the ablation's
// deepest point (16), and small enough that a router's buffers stay a few KiB.
const maxBufferDepth = 64

// maxCreditDelay bounds a CreditDelay override: sixteen times the ablation's
// longest round trip (4). Every link keeps one in-flight slot per cycle of
// delay, so an unbounded value exhausts memory at construction.
const maxCreditDelay = 64

// maxEventTrace bounds Config.EventTrace: 2^24 events, 640 MiB of 40-byte
// ring slots. The ring is allocated whole before the first cycle, so an
// unbounded value exhausts memory at construction.
const maxEventTrace = 1 << 24

// prepare validates the options and resolves them into an engine config, a
// router factory and a fresh meter — the pieces sim.New (and Engine.Reset,
// for engine reuse) need.
func prepare(o NetworkOptions) (sim.Config, sim.RouterFactory, *energy.Meter, error) {
	if o.FairnessThreshold < 0 {
		return sim.Config{}, nil, nil, fmt.Errorf("dxbar: FairnessThreshold %d is negative", o.FairnessThreshold)
	}
	if o.CreditDelay < 0 || o.CreditDelay > maxCreditDelay {
		return sim.Config{}, nil, nil, fmt.Errorf("dxbar: CreditDelay %d outside 0..%d", o.CreditDelay, maxCreditDelay)
	}
	if o.FairnessThreshold == 0 {
		o.FairnessThreshold = core.FairnessThreshold
	}
	if o.Routing == "" {
		o.Routing = "DOR"
	}
	if o.FaultPlan == nil {
		o.FaultPlan = faults.Empty()
	}
	spec, known := designTable[o.Design]
	if o.FaultPlan.Count() > 0 && !spec.faultable {
		return sim.Config{}, nil, nil, fmt.Errorf("dxbar: fault injection is only supported for the dxbar/unified designs, not %q", o.Design)
	}
	algo, err := routing.New(o.Routing)
	if err != nil {
		return sim.Config{}, nil, nil, err
	}
	if !known {
		return sim.Config{}, nil, nil, fmt.Errorf("dxbar: unknown design %q", o.Design)
	}
	depth := spec.depth
	if o.BufferDepth != 0 {
		if !spec.depthOverride {
			return sim.Config{}, nil, nil, fmt.Errorf("dxbar: BufferDepth override is only supported for the dxbar design")
		}
		if o.BufferDepth < 0 || o.BufferDepth > maxBufferDepth {
			return sim.Config{}, nil, nil, fmt.Errorf("dxbar: BufferDepth %d outside 1..%d", o.BufferDepth, maxBufferDepth)
		}
		depth = o.BufferDepth
	}
	meter := spec.meter()
	if spec.algo != nil {
		algo = spec.algo
	}
	nodes := 0
	if o.Mesh != nil {
		nodes = o.Mesh.Nodes()
		algo = routing.NewTable(algo, o.Mesh, nodes)
	}
	args := &routerArgs{NetworkOptions: o, algo: algo, depth: depth}
	var designPreCycle func(uint64)
	if spec.shared != nil {
		designPreCycle = spec.shared(args, nodes)
	}
	factory := spec.routers(args, nodes)
	preCycle := o.PreCycle
	if designPreCycle != nil {
		if user := o.PreCycle; user != nil {
			preCycle = func(cycle uint64) {
				designPreCycle(cycle)
				user(cycle)
			}
		} else {
			preCycle = designPreCycle
		}
	}
	return sim.Config{
		Mesh:        o.Mesh,
		Meter:       meter,
		Stats:       o.Stats,
		Source:      o.Source,
		Sink:        o.Sink,
		BufferDepth: depth,
		CreditDelay: o.CreditDelay,
		PreCycle:    preCycle,
		Events:      o.Events,
		Telemetry:   o.Telemetry,
		Diag:        o.Diag,
		Shards:      o.Shards,
	}, factory, meter, nil
}

// NewNetwork assembles a network of the given design around a custom
// source/sink.
func NewNetwork(o NetworkOptions) (*Network, error) {
	cfg, factory, meter, err := prepare(o)
	if err != nil {
		return nil, err
	}
	eng, err := sim.New(cfg, factory)
	if err != nil {
		return nil, err
	}
	return &Network{Engine: eng, Meter: meter, Stats: o.Stats}, nil
}

// Run executes one open-loop synthetic-traffic simulation.
func Run(c Config) (Result, error) {
	return newRunner().run(c)
}
