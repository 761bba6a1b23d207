// Package sim is the cycle-accurate network simulation engine. It owns the
// global clock, the inter-router links (with the paper's 2-stage ST→LT hop
// timing), the per-node injection queues and reassembly buffers, credit
// signalling and the statistics collector, which also counts the energy
// model's events. Router designs
// plug in through the Router interface and see the network exclusively
// through their Env.
//
// # Timing model
//
// Each cycle has two phases. In the router phase every router consumes the
// flits latched on its input ports and fills its output latches (its SA/ST
// pipeline stage); the phase is activity-driven — a router that reported
// itself quiescent is not stepped again until an input reaches its node (see
// Router and Engine.tilePhase). In the link phase the engine advances every link
// pipeline: a flit written to an output latch at cycle c spends cycle c+1 on
// the link (LT) and is visible to the downstream router at cycle c+2 —
// matching the paper's 2-stage per-hop pipeline for DXbar / Flit-Bless /
// SCARAB (Fig. 2d). The 3-stage baseline pipeline adds one in-router
// eligibility cycle (its RC stage) inside the router implementation.
//
// Routers never observe same-cycle state of other routers; credits return
// through a delayed pipeline (buffer.Credits) that models the reverse wires.
package sim

import (
	"fmt"
	"math/bits"
	"time"

	"dxbar/internal/buffer"
	"dxbar/internal/diag"
	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/metrics"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// Router is one switching node. Step must consume every flit present on the
// Env's In latches (buffering, switching, deflecting or dropping it) and may
// fill each Out latch with at most one flit.
//
// The result is the router's half of the activity-driven router phase:
// quiescent = true is a promise that another Step without new input would
// change nothing — no flit sits in any buffer or pipeline register and no
// time-triggered transition (a fault manifesting or being detected) is
// pending. The engine then stops stepping the node until an input reaches it
// (a landed flit, a generated packet, a delivered retransmission); the
// injection queue is the engine's to check, not the router's. The zero value
// means "step me again", so a design that has not reasoned about quiescence is
// merely slow, never wrong.
type Router interface {
	Step(cycle uint64) (quiescent bool)
}

// Source generates packets. Generate is called once per node per cycle, in
// ascending node order, before the router phase; returned packets are enqueued
// at the node's injection queue in order. Every returned spec's Src is the
// node it was generated for: the queue keeps the node, not the field.
type Source interface {
	Generate(node int, cycle uint64) []*traffic.PacketSpec
}

// PendingSource is a Source that knows which nodes have output: NextPending
// returns the lowest node at or above from whose Generate would return packets
// this cycle (negative: none), and the engine calls Generate for those nodes
// only. The capability is looked for when the engine is given the source (New,
// Reset). A source that must draw per node per cycle (SourceAdapter) cannot
// promise silence for the nodes passed over and keeps the per-node loop.
type PendingSource interface {
	Source
	NextPending(from int, cycle uint64) int
}

// Sink observes completed packets (after reassembly). Closed-loop workloads
// (the coherence substrate) react to deliveries; open-loop runs may pass nil.
type Sink interface {
	Deliver(p flit.Packet, cycle uint64)
}

// RouterFactory builds the router for one node around its Env.
type RouterFactory func(env *Env) Router

// Config assembles an Engine.
type Config struct {
	Mesh  *topology.Mesh
	Stats *stats.Collector
	// Source may be nil (no traffic — useful in unit tests that inject
	// directly).
	Source Source
	// Sink may be nil.
	Sink Sink
	// BufferDepth is the per-input buffer depth credited on every link; 0
	// disables credit flow control (bufferless designs).
	BufferDepth int
	// CreditDelay is the credit-return latency in cycles (default 1).
	CreditDelay int
	// PreCycle, when non-nil, runs at the very start of every cycle
	// (before retransmissions, generation and the router phase). Closed-
	// loop workloads use it to advance their own state machines.
	PreCycle func(cycle uint64)
	// Events is the optional flight recorder (nil disables runtime event
	// tracing; a nil recorder's methods are no-ops, so the engine and the
	// routers record unconditionally).
	Events *events.Recorder
	// Telemetry, when non-nil, receives the engine's live publication
	// stream — counter deltas, gauges, the latency histogram, the shard
	// execution profile — at the telemetry's publish interval. Nil disables
	// publication entirely (the nil check is the only per-cycle cost).
	// Publication reads simulation state but never writes it, so results are
	// bit-identical with telemetry on or off.
	Telemetry *metrics.SimTelemetry
	// Diag, when non-nil, is the run-health monitor: the engine feeds its
	// progress watchdog every cycle and its windowed detectors (flit-age
	// watermark, storm baselines) every detector window, and routers notify
	// it of fault manifestation/detection through their Env. Like telemetry,
	// the monitor observes state and never writes it back, so results are
	// bit-identical with diagnostics on or off, and nothing allocates in
	// steady state. Nil disables the layer (one nil check per cycle).
	Diag *diag.Monitor
	// Shards selects the cycle-engine backend: 0 or 1 runs the sequential
	// engine, n > 1 partitions the mesh into a boundary-minimizing 2D grid
	// of rectangular tiles whose whole cycle — router steps and link phase —
	// runs on parallel worker goroutines (alive only inside Run/RunUntil)
	// that meet at one barrier per cycle, and a negative value auto-sizes to
	// GOMAXPROCS. The effective count is the largest feasible grid
	// factorization at most the request (ResolveShards). Results are
	// bit-identical to the sequential engine for every design and shard
	// count. The partition is fixed for the engine's lifetime.
	Shards int
}

// Engine drives one network.
type Engine struct {
	mesh    *topology.Mesh
	coll    *stats.Collector
	source  Source
	pending PendingSource // source, when it has the capability
	sink    Sink
	routers []Router
	envs    []*Env

	// linkStage[n][p] holds the flit traversing the link out of node n's
	// port p during the current cycle (the LT stage); the owning tile's
	// linkMask flag mirrors the row as a bitmask. Rows are carved from their
	// tile's slab (newTile).
	linkStage [][]*flit.Flit

	// stepAll disables the skip (every router steps every cycle) — the
	// unexported differential oracle the activity tests compare against.
	stepAll bool
	// steps counts router-steps: every tile counts its own and the engine
	// folds them in after the tile phase (routerSteps).
	steps routerSteps

	// wheel holds scheduled retransmissions: flits parked until the cycle
	// they re-enter their source's injection queue.
	wheel eventWheel

	// pool recycles ejected flits back to materialization. The sequential
	// tile uses it directly; sharded tiles have pools of their own, settled
	// against this one at every barrier, so its Outstanding stays the
	// network-wide count between cycles.
	pool *flit.Pool

	// rec is the flight recorder (nil when tracing is off).
	rec *events.Recorder

	preCycle func(cycle uint64)

	// tiles partition the nodes for tilePhase: one tile holding every node on
	// the sequential engine, the sharded backend's otherwise (sharded is nil
	// on the sequential engine — see backend.go).
	tiles   []*tile
	sharded *shardedBackend

	bufferDepth int
	creditDelay int

	// creditSlab backs every env's downstream credit counters (node-major,
	// NumLinkPorts per node; entries for absent links stay unused) so the
	// whole network's flow-control state is contiguous.
	creditSlab []buffer.Credits

	// telemetry is the optional live-metrics publication handle (see
	// Config.Telemetry); retransmits counts scheduled retransmissions across
	// the whole run, for the dxbar_flits_retransmitted_total counter.
	telemetry   *metrics.SimTelemetry
	retransmits uint64

	// mon is the optional run-health monitor (see Config.Diag).
	mon *diag.Monitor

	// shared holds network-wide router state registered through
	// Env.RegisterShared (the AFC mode controller) — state that belongs to
	// the design but not to any single node, serialized once per snapshot.
	shared []SharedState

	cycle uint64
}

// New builds an engine and its per-node Envs, then instantiates routers via
// the factory. The factory runs after all Envs exist so credit wiring is
// complete.
//
// Construction allocates per tile and per network, never per node: the tile
// partition comes first, and every tile takes its nodes' Envs, link-stage
// rows, first spec chunks and input-buffer storage from slabs of its own
// (newTile); the flit pool is primed from one slab (flit.Pool.Prime).
func New(cfg Config, factory RouterFactory) (*Engine, error) {
	if cfg.Mesh == nil || cfg.Stats == nil {
		return nil, fmt.Errorf("sim: Mesh and Stats are required")
	}
	if factory == nil {
		return nil, fmt.Errorf("sim: router factory is required")
	}
	if cfg.CreditDelay == 0 {
		cfg.CreditDelay = 1
	}
	n := cfg.Mesh.Nodes()
	e := &Engine{
		mesh:        cfg.Mesh,
		coll:        cfg.Stats,
		source:      cfg.Source,
		sink:        cfg.Sink,
		envs:        make([]*Env, n),
		linkStage:   make([][]*flit.Flit, n),
		wheel:       newEventWheel(64),
		pool:        flit.NewPool(),
		rec:         cfg.Events,
		telemetry:   cfg.Telemetry,
		mon:         cfg.Diag,
		preCycle:    cfg.PreCycle,
		bufferDepth: cfg.BufferDepth,
		creditDelay: cfg.CreditDelay,
	}
	e.pending, _ = cfg.Source.(PendingSource)
	if cfg.BufferDepth > 0 {
		e.creditSlab = buffer.NewCreditsSlab(n*flit.NumLinkPorts, cfg.BufferDepth, cfg.CreditDelay)
	}
	parts := partition(cfg.Mesh, ResolveShards(cfg.Shards, cfg.Mesh.Width, cfg.Mesh.Height))
	e.tiles = make([]*tile, len(parts))
	for id, nodes := range parts {
		pool := e.pool
		if len(parts) > 1 {
			pool = flit.NewPool()
		}
		e.tiles[id] = newTile(e, id, nodes, pool)
	}
	// Two-pass credit wiring: every env's counters must exist before any
	// return closure captures a neighbour's counter.
	for _, env := range e.envs {
		for p := flit.North; p <= flit.West; p++ {
			if nb := env.neighbors[p]; nb >= 0 {
				env.nbrEnv[p] = e.envs[nb]
				env.nbrIn[p] = p.Opposite()
				if env.nbrEnv[p].tile != env.tile {
					env.crossMask |= 1 << uint(p)
				}
			}
		}
		env.createCredits()
	}
	for _, env := range e.envs {
		env.wireCredits()
		for p, o := range env.nbrEnv { // links are two-way: o feeds input port p
			if env.upCredits[p] != nil {
				env.upTick[p] = &o.tile.creditTick[o.slot]
			}
		}
	}
	// Prime the flit pool with the flits every node materializes on its first
	// injections (InjectionSlack); from there the pool grows with the
	// traffic, a slab at a time (flit.Pool.Get), to the run's high-water mark
	// of live flits — a few per node, where the in-network capacity is ten
	// times that.
	e.pool.Prime(n * InjectionSlack)
	if len(e.tiles) > 1 {
		e.sharded = newShardedBackend(e)
	}
	e.wireCollectors()
	e.routers = make([]Router, n)
	for i := 0; i < n; i++ {
		e.routers[i] = factory(e.envs[i])
	}
	e.deriveSets()
	return e, nil
}

// deriveSets rebuilds the tiles' derived state (construction, Reset, Restore):
// every node is marked for stepping — no router has reported anything yet —
// and the inflight sets are gathered from the linkMask flags.
func (e *Engine) deriveSets() {
	for _, t := range e.tiles {
		for i := range t.nodes {
			t.awake[i] = 1
		}
		for j := range t.inflight {
			t.inflight[j] = gather64(t.linkMask[j<<6:])
		}
	}
}

// wireCollectors points every tile and Env at the collector and recorder
// they must write through: the engine's masters on the sequential engine; on
// the sharded one a scratch collector per tile, an event
// stage per tile for its ejections and one per env for its router. Runs at
// construction and again on Reset, because Reset swaps the masters.
func (e *Engine) wireCollectors() {
	for _, t := range e.tiles {
		t.coll, t.rec = e.coll, e.rec
		if t.staged {
			t.coll, t.rec = e.coll.Scratch(), e.rec.NewStage()
			e.sharded.ejections[t.id] = t.rec
		}
		for _, n := range t.nodes {
			env := e.envs[n]
			env.coll, env.rec = t.coll, e.rec
			if t.staged {
				env.rec = e.rec.NewStage()
			}
		}
	}
}

// Cycle returns the current cycle number.
func (e *Engine) Cycle() uint64 { return e.cycle }

// Env returns node i's environment (tests and the coherence substrate use
// it to inspect queues).
func (e *Engine) Env(i int) *Env { return e.envs[i] }

// Router returns node i's router (for fault injection and inspection).
func (e *Engine) Router(i int) Router { return e.routers[i] }

// Mesh returns the topology.
func (e *Engine) Mesh() *topology.Mesh { return e.mesh }

// Pool returns the engine's flit free list (leak tests assert that a drained
// network has zero outstanding flits).
func (e *Engine) Pool() *flit.Pool { return e.pool }

// Shards returns the resolved shard count of the engine (1 = sequential).
func (e *Engine) Shards() int { return len(e.tiles) }

// RouterSteps reports the activity-driven router phase's totals so far:
// router-steps executed, and router-steps skipped because the node was
// quiescent with no new input (executed + skipped = nodes × cycles). The
// split is an execution profile, not a result — an engine restored from a
// snapshot steps every router once more than the uninterrupted run did.
func (e *Engine) RouterSteps() (executed, skipped uint64) {
	return e.steps.executed, e.steps.skipped
}

// ScheduleRetransmit re-enqueues f at the front of its source's injection
// queue after delay cycles (SCARAB NACK path, fault recovery). The flit's
// route/hop state is reset at reinjection time.
//
// The minimum effective delay is 1 cycle: retransmissions are delivered at
// the start of a cycle, before the router phase, so a delay of 0 would mean
// re-enqueueing into a cycle whose injection already happened. Delay 0 is
// therefore clamped to 1 — the flit reappears at the head of its source
// queue on the next cycle.
func (e *Engine) ScheduleRetransmit(f *flit.Flit, delay uint64) {
	if delay == 0 {
		delay = 1
	}
	e.retransmits++
	e.rec.Record(e.cycle, events.Retransmit, int(f.Src), flit.Invalid, f.PacketID, f.ID, int32(delay))
	e.wheel.schedule(e.cycle, e.cycle+delay, f)
}

// Step advances the network by one cycle. On a sharded engine outside
// Run/RunUntil the tiles run one after the other on the caller — same code,
// same results, no goroutines.
func (e *Engine) Step() {
	c := e.cycle

	if e.preCycle != nil {
		e.preCycle(c)
	}

	// Deliver scheduled retransmissions to the front of source queues.
	for _, f := range e.wheel.take(c) {
		f.Retransmits++
		e.envs[f.Src].pushFrontInjection(f)
	}

	// Generation. Packets are queued as compact specs; flits materialize
	// out of a pool only when a node's injection deque runs low (tilePhase),
	// so the live flit population tracks the in-network load, not the
	// injection backlog (which grows without bound above saturation and would
	// otherwise force a fresh allocation for every backlog increment). A
	// source draws from one random stream in node order, which pins this loop
	// to one goroutine. A PendingSource names the nodes worth asking.
	if src, pending := e.source, e.pending; src != nil {
		for n := 0; n < len(e.envs); n++ {
			if pending != nil {
				if n = pending.NextPending(n, c); n < 0 || n >= len(e.envs) {
					break
				}
			}
			for _, spec := range src.Generate(n, c) {
				e.coll.PacketInjected(c)
				e.coll.GeneratedFlits(c, int(spec.NumFlits))
				e.envs[n].pushSpec(spec)
			}
		}
	}

	// Everything per-node — router phase (SA/ST) and link phase — sequential
	// or tile-parallel. Either way every staged side effect is applied to
	// master state before the observers below look at it.
	if e.sharded != nil {
		e.sharded.phase(c)
	} else {
		t := e.tiles[0]
		e.tilePhase(t, c)
		e.steps.absorb(&t.steps)
	}

	e.cycle++

	// Sampling and live telemetry: the collector's time-series ring and the
	// telemetry's publish interval each say when they are due (a nil check
	// plus a compare), and a due cycle gathers the gauges only the engine can
	// see once for both. All of it reads state and writes none back, so the
	// simulation is bit-identical with either on or off, and none of it
	// allocates (RecordSample writes into a preallocated ring).
	if sample, publish := e.coll.SampleDue(c), e.telemetry.PublishDue(c); sample || publish {
		g := e.gauges()
		if sample {
			e.coll.RecordSample(c, g)
		}
		if publish {
			e.publish(c, g)
		}
	}

	// Run health. The per-cycle leg is the progress watchdog (two compares
	// on the healthy path); the windowed leg scans the engine-visible flits
	// for the age watermark and feeds the storm baselines. Both run at a
	// sequential point after every staged side effect has been replayed, so
	// the detectors see identical state on the sequential and sharded
	// engines — and like telemetry they read state and never write it back.
	if m := e.mon; m != nil {
		m.ObserveCycle(c, e.coll.TotalEjected(), e.pool.Outstanding())
		if m.WindowDue(c) {
			e.observeDiagWindow(c)
		}
	}
}

// observeDiagWindow gathers the windowed detector sample: the oldest flit
// visible to the engine — injection-queue heads, input latches and link
// stages (router-internal buffers are design-private and excluded; a flit
// starving inside one still ages on the latches around it) — plus the
// whole-run deflection and retransmission totals. Allocation-free.
func (e *Engine) observeDiagWindow(c uint64) {
	var oldest *flit.Flit
	node := int32(-1)
	for u, env := range e.envs {
		if f := env.injection.front(); f != nil && (oldest == nil || f.InjectionCycle < oldest.InjectionCycle) {
			oldest, node = f, int32(u)
		}
		for b := env.InMask; b != 0; b &= b - 1 {
			if f := env.In[bits.TrailingZeros8(b)]; f != nil && (oldest == nil || f.InjectionCycle < oldest.InjectionCycle) {
				oldest, node = f, int32(u)
			}
		}
		for b := env.tile.linkMask[env.slot]; b != 0; b &= b - 1 {
			if f := e.linkStage[u][bits.TrailingZeros8(b)]; f != nil && (oldest == nil || f.InjectionCycle < oldest.InjectionCycle) {
				oldest, node = f, int32(u)
			}
		}
	}
	s := diag.WindowSample{
		Cycle:       c,
		OldestNode:  node,
		Deflected:   e.coll.Total("totalDeflected"),
		Retransmits: e.retransmits,
	}
	if oldest != nil {
		s.OldestAge = c - oldest.InjectionCycle
		s.OldestPacket = oldest.PacketID
		s.OldestFlit = oldest.ID
	}
	e.mon.ObserveWindow(s)
}

// gauges scans the network for the instantaneous state the sampler and the
// telemetry both report: O(nodes), so only on a cycle one of them is due.
func (e *Engine) gauges() metrics.SimGauges {
	g := metrics.SimGauges{InFlightFlits: e.pool.Outstanding(), QueuedFlits: e.QueuedFlits()}
	for _, env := range e.envs {
		g.BufferedFlits += env.creditOccupancy()
	}
	return g
}

// total reads the running total a telemetry counter row names as its source:
// the engine's own, or one of the collector's whole-run totals.
func (e *Engine) total(source string) uint64 {
	switch source {
	case "cycle":
		return e.cycle
	case "retransmits":
		return e.retransmits
	case "routerSteps":
		return e.steps.executed
	case "routerStepsSkipped":
		return e.steps.skipped
	}
	return e.coll.Total(source)
}

// publish hands the telemetry every series: counter totals, network gauges,
// the shard execution profile and the latency-histogram snapshot.
func (e *Engine) publish(c uint64, g metrics.SimGauges) {
	var busy, wait []time.Duration
	if e.sharded != nil {
		busy, wait = e.sharded.busy, e.sharded.wait
	}
	e.telemetry.OnPublish(c, e.total, g, busy, wait)
	if h := e.telemetry.Latency(); h != nil {
		e.coll.PublishLatency(h)
	}
}

// FlushTelemetry forces a final publication of every telemetry series — the
// run usually ends between publish intervals, which would otherwise leave
// every series up to one interval stale; after it the counters equal the
// run's totals exactly. No-op without telemetry.
func (e *Engine) FlushTelemetry() {
	if e.telemetry != nil {
		e.publish(e.cycle, e.gauges())
	}
}

// ShardProfile is the execution profile of one shard of the parallel cycle
// engine, accumulated over the run so far.
type ShardProfile struct {
	// Shard is the shard index; Nodes the number of mesh nodes in its tile.
	Shard int
	Nodes int
	// RouterPhase is the cumulative time the shard's goroutine spent in its
	// tile's phases — the whole per-node cycle: router steps, link landing
	// and launch, ejection, credit ticks. BarrierWait is the rest of the
	// parallel phases' wall time, measured from the coordinator's release to
	// the moment it has seen every tile arrive: wake-up latency after the
	// release, then idling for the slowest tile. RouterPhase + BarrierWait is
	// the same for every shard; the one with the smallest wait is the
	// bottleneck tile.
	RouterPhase time.Duration
	BarrierWait time.Duration
}

// ShardProfiles returns the per-shard execution profile of the sharded
// backend, or nil for a sequential engine. Allocates; call at end of run,
// not per cycle.
func (e *Engine) ShardProfiles() []ShardProfile {
	sb := e.sharded
	if sb == nil {
		return nil
	}
	out := make([]ShardProfile, len(sb.tiles))
	for i, t := range sb.tiles {
		out[i] = ShardProfile{
			Shard:       i,
			Nodes:       len(t.nodes),
			RouterPhase: sb.busy[i],
			BarrierWait: sb.wait[i],
		}
	}
	return out
}

// Reset rewires the engine for a fresh run without reallocating its bulk
// structures (Envs, link stages, credit pipelines, the event wheel, the
// reassemblers, the input-buffer storage and the flit free list all
// survive). The new config must use the same Mesh, BufferDepth and
// CreditDelay as the original — those shaped the credit wiring at
// construction time — and routers are rebuilt from scratch via the factory,
// since router-internal state (pipeline registers, mode controllers) is
// design-specific; a router takes its buffers from Env.QueueStore again.
//
// Every flit the pool carved is free again afterwards, wherever the
// discarded run left it (flit.Pool.Reclaim); the pool's outstanding count
// restarts at zero.
func (e *Engine) Reset(cfg Config, factory RouterFactory) error {
	if cfg.Mesh != e.mesh {
		return fmt.Errorf("sim: Reset requires the same Mesh the engine was built with")
	}
	if cfg.Stats == nil {
		return fmt.Errorf("sim: Stats is required")
	}
	if factory == nil {
		return fmt.Errorf("sim: router factory is required")
	}
	if cfg.CreditDelay == 0 {
		cfg.CreditDelay = 1
	}
	if cfg.BufferDepth != e.bufferDepth || cfg.CreditDelay != e.creditDelay {
		return fmt.Errorf("sim: Reset requires BufferDepth=%d CreditDelay=%d (got %d, %d)",
			e.bufferDepth, e.creditDelay, cfg.BufferDepth, cfg.CreditDelay)
	}
	if got := ResolveShards(cfg.Shards, e.mesh.Width, e.mesh.Height); got != len(e.tiles) {
		return fmt.Errorf("sim: Reset requires Shards resolving to %d (got %d)", len(e.tiles), got)
	}
	e.coll = cfg.Stats
	e.source = cfg.Source
	e.pending, _ = cfg.Source.(PendingSource)
	e.sink = cfg.Sink
	e.rec = cfg.Events
	e.telemetry = cfg.Telemetry
	e.mon = cfg.Diag
	e.preCycle = cfg.PreCycle
	e.cycle = 0
	e.retransmits = 0
	e.steps = routerSteps{}
	if e.sharded != nil {
		e.sharded.resetProfile()
	}
	e.wheel.reset()
	e.shared = e.shared[:0]
	e.wireCollectors()
	for i, env := range e.envs {
		env.reset()
		clear(e.linkStage[i])
		e.routers[i] = factory(env)
	}
	// Nothing of the discarded run is readable any more — latches, link
	// stages, queues and the wheel are empty, its routers are gone and the
	// new ones read only what they write into their queue store — so every
	// flit is free again.
	e.pool.Reclaim()
	for _, t := range e.tiles {
		clear(t.linkMask)
		clear(t.creditTick)
		if t.pool != e.pool {
			t.pool.Reclaim()
		}
	}
	if e.sharded != nil {
		e.sharded.settlePools()
	}
	e.deriveSets()
	return nil
}

// Run advances the engine by n cycles. With a run-health monitor attached it
// honors stop requests (diag.Interrupt, Monitor.RequestStop) at cycle
// boundaries — the graceful-shutdown path; the check is two atomic loads per
// cycle and steers nothing else, so results stay bit-identical.
func (e *Engine) Run(n uint64) { e.run(n, nil) }

// RunUntil advances the engine until pred returns true (checked after every
// cycle) or maxCycles elapse; it reports whether pred fired. Like Run it
// stops early on a stop request.
func (e *Engine) RunUntil(pred func() bool, maxCycles uint64) bool {
	return e.run(maxCycles, pred)
}

// run is the one cycle loop. It owns the sharded engine's worker scope: the
// tile workers start here and are joined before it returns, whichever way it
// returns, so no goroutine outlives the call.
func (e *Engine) run(n uint64, pred func() bool) bool {
	if sb := e.sharded; sb != nil && !sb.live && n > 0 {
		sb.start()
		defer sb.stop()
	}
	for i := uint64(0); i < n; i++ {
		if e.mon.StopRequested() {
			return false
		}
		e.Step()
		if pred != nil && pred() {
			return true
		}
	}
	return false
}

// QueuedFlits returns the total number of flits waiting in injection queues
// (drain checks in closed-loop runs).
func (e *Engine) QueuedFlits() int {
	total := 0
	for _, env := range e.envs {
		total += env.injectionLen()
	}
	return total
}

// SourceAdapter wraps a Bernoulli injector as a Source. It must be used by
// pointer: the returned slice aliases internal scratch that the next
// Generate call reuses (the engine consumes it within the same cycle).
type SourceAdapter struct {
	B       *traffic.Bernoulli
	scratch [1]*traffic.PacketSpec
}

// Generate implements Source.
func (s *SourceAdapter) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	if spec := s.B.Generate(node, cycle); spec != nil {
		s.scratch[0] = spec
		return s.scratch[:]
	}
	return nil
}
