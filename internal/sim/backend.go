package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dxbar/internal/energy"
	"dxbar/internal/flit"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
)

// backend executes the router phase (SA/ST for every node) of one cycle.
// Two implementations exist behind this interface: the sequential backend
// steps every router on the calling goroutine; the sharded backend fans the
// mesh's tiles out over worker goroutines and reconciles their staged side
// effects at a barrier. Both leave the engine in the exact same state after
// every cycle — the sharded engine's determinism contract is bit-identity
// with the sequential one.
type backend interface {
	// routerPhase steps every router for cycle c and applies all router
	// side effects (latches, credits, meter, stats, events, retransmits)
	// to the engine's master state before returning.
	routerPhase(c uint64)
	// shardCount reports the number of parallel shards (1 for sequential).
	shardCount() int
	// profile returns the cumulative per-shard router-phase and barrier-wait
	// times (nil for the sequential backend). The returned slices are live —
	// callers on the coordinating goroutine read them between cycles.
	profile() (busy, wait []time.Duration)
	// resetProfile zeroes the profiler accumulators (Engine.Reset — a reused
	// engine must not leak the previous run's times into the next one).
	resetProfile()
}

// DefaultRebalanceInterval is the default number of cycles between dynamic
// shard-rebalancing checks (Config.RebalanceInterval = 0). Long enough that
// each window's busy times average over thousands of router phases, short
// enough that a shifting hotspot is chased within a fraction of a typical
// measurement run.
const DefaultRebalanceInterval = 1024

// rebalanceThreshold is the minimum window imbalance ratio (max/mean
// per-shard router-phase time) that triggers a boundary migration. Below it
// the partition is considered balanced: migrating a row or column has a
// rewiring cost and jitters the profile, so the engine only moves work when
// at least one shard is clearly hotter than the mean.
const rebalanceThreshold = 1.15

// resolveRebalanceInterval maps Config.RebalanceInterval onto the backend's
// check period: 0 = DefaultRebalanceInterval, negative = disabled.
func resolveRebalanceInterval(n int) uint64 {
	switch {
	case n == 0:
		return DefaultRebalanceInterval
	case n < 0:
		return 0
	}
	return uint64(n)
}

// ResolveShards maps a Config.Shards request onto an effective shard count
// for a width×height mesh: 0 or 1 selects the sequential engine, a negative
// value auto-sizes to GOMAXPROCS, and any larger request is resolved to the
// tile count of the boundary-minimizing 2D grid (topology.Grid2D) — the
// largest feasible factorization at most the request, where every tile owns
// at least one column and one row.
func ResolveShards(n, width, height int) int {
	if n == 0 || n == 1 {
		return 1
	}
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	gx, gy := topology.Grid2D(width, height, n)
	return gx * gy
}

// seqBackend is the single-threaded router phase: every router steps on the
// calling goroutine in node order, writing directly to the engine's master
// meter, collector and recorder.
type seqBackend struct {
	e *Engine
}

func (b seqBackend) shardCount() int { return 1 }

func (b seqBackend) profile() (busy, wait []time.Duration) { return nil, nil }
func (b seqBackend) resetProfile()                         {}

func (b seqBackend) routerPhase(c uint64) {
	e := b.e
	e.steps.add(e.stepNodes(e.allNodes, c), len(e.allNodes))
}

// routerSteps counts router-steps executed and skipped by the activity-driven
// router phase. Each backend owns its own (the engine for the sequential one,
// every shard for the sharded one, folded into the engine's at the barrier):
// RunMany steps several engines on several goroutines, so a counter shared
// between engines would be a contended cache line on the hottest loop.
type routerSteps struct {
	executed, skipped uint64
}

// add records one router phase over total nodes of which stepped were stepped.
func (s *routerSteps) add(stepped, total int) {
	s.executed += uint64(stepped)
	s.skipped += uint64(total - stepped)
}

// stepNodes is the activity-driven router phase over a list of nodes, the one
// loop both backends run (the sequential one over every node, a shard worker
// over its tile). A node whose awake flag is clear costs one byte test. An
// awake one is stepped and checked exactly as the engine always has, and goes
// to sleep only when its router reported quiescent and the engine's own
// per-node inputs — the injection deque and the spec ring — are empty too (a
// non-empty queue is work the router may pick up on any later cycle).
// Whatever delivers the next input sets the flag again (land loop, pushSpec,
// pushFrontInjection), always from the engine's sequential phases, so a shard
// worker only ever touches its own nodes' flags. It returns the number of
// routers stepped.
func (e *Engine) stepNodes(nodes []int, c uint64) (stepped int) {
	for _, n := range nodes {
		if e.awake[n] == 0 && !e.stepAll {
			continue
		}
		stepped++
		quiescent := e.routers[n].Step(c)
		env := e.envs[n]
		checkConsumed(env, n, c)
		if quiescent && env.injection.len() == 0 && env.pendingSpecs.len() == 0 {
			e.awake[n] = 0
		}
	}
	return stepped
}

// checkConsumed panics if a router left an input latch occupied — the
// Router contract requires every latched flit to be consumed during Step.
// A router that consumes its inputs through InMask clears the mask, making
// the check one byte test; a router that scans In directly leaves the mask
// set and pays the full latch scan here (the mask is reset either way).
func checkConsumed(env *Env, node int, c uint64) {
	if env.InMask == 0 {
		return
	}
	for p := 0; p < flit.NumLinkPorts; p++ {
		if env.In[p] != nil {
			panic(fmt.Sprintf("sim: router %d left input %s unconsumed at cycle %d: %v",
				node, flit.Port(p), c, env.In[p]))
		}
	}
	env.InMask = 0
}

// stagedCredit is one deferred ReturnCredit call (sharded mode).
type stagedCredit struct {
	env  *Env
	port flit.Port
}

// stagedRetx is one retransmission a router scheduled during the parallel
// router phase, parked per-env until the barrier inserts it into the
// engine's event wheel in node order (the wheel's slot order is delivery
// order at the retransmit cycle, so insertion order must match the
// sequential engine's).
type stagedRetx struct {
	f     *flit.Flit
	delay uint64
}

// shard owns one tile of the mesh inside the sharded backend: the tile's
// node list plus the scratch state its worker may write during the router
// phase without touching another shard's memory. Everything staged here is
// either commutative (meter and collector counters) or replayed in node
// order at the barrier (events, retransmits), which is what preserves
// bit-identity with the sequential engine.
type shard struct {
	id int
	// nodes lists the tile's node indices in ascending order. Rebalancing
	// rewrites it between cycles; capacity is preallocated to the whole mesh
	// so migrations never allocate.
	nodes []int

	// meter and coll are the shard-local scratch the tile's routers write
	// through their Env; the barrier absorbs both into the master.
	meter *energy.Meter
	coll  *stats.Collector

	// creditReturns stages upstream credit returns. A returned credit
	// enters the counter's delay pipeline and is invisible until the
	// engine ticks the pipelines after the link phase, so applying returns
	// at the barrier instead of mid-phase is observationally identical —
	// staging exists to keep one shard from writing a neighbour shard's
	// counter concurrently.
	creditReturns []stagedCredit

	// retx counts retransmissions staged across the shard's envs this
	// cycle, so the barrier can skip the env scan entirely in the common
	// case of none.
	retx int

	// steps counts this cycle's router-steps, folded into the engine's
	// totals (and zeroed) at the barrier.
	steps routerSteps
}

// shardedBackend runs the router phase tile-parallel over a 2D tile grid.
// Each cycle it spawns one goroutine per extra shard (shard 0 runs inline on
// the caller), barriers on a WaitGroup, then merges the staged side effects:
//
//  1. per-env event stages drain into the master recorder, and staged
//     retransmissions enter the event wheel, both in ascending node order —
//     exactly the order the sequential engine would have produced;
//  2. staged credit returns are applied (order-insensitive: returns ride
//     the credit delay pipeline and only become visible at Tick);
//  3. shard scratch meters and collectors are absorbed into the masters
//     (order-insensitive: pure counter sums).
//
// Because every cross-shard effect is staged and replayed in a
// partition-independent order, the *shape* of the partition never leaks into
// results — which is what makes dynamic rebalancing safe: the backend may
// migrate boundary rows and columns between tiles at any barrier and stay
// bit-identical to the sequential engine.
//
// Goroutine spawn per cycle costs well under a microsecond against router
// phases that run hundreds of microseconds on the large meshes sharding
// targets, reuses pooled goroutine stacks (no steady-state allocation), and
// leaves the engine with no background goroutines to manage — an idle or
// abandoned engine holds no resources beyond its memory.
type shardedBackend struct {
	e      *Engine
	shards []*shard
	wg     sync.WaitGroup

	// Execution profiler. Each worker times its own router phase and writes
	// only its own slot (busy accumulates, finish is per-cycle scratch); the
	// coordinator folds finish times into the barrier-wait accumulators after
	// wg.Wait, whose happens-before edge makes the cross-goroutine reads
	// safe. The profiler observes the phase without feeding any simulation
	// state, so it cannot perturb bit-identity, and its cost — two time.Now
	// calls per shard per cycle — is noise against router phases that run for
	// tens of microseconds; it is therefore always on. It doubles as the
	// input signal for dynamic rebalancing below.
	busy   []time.Duration
	wait   []time.Duration
	finish []time.Time

	// cycle carries the current cycle to the workers; it is written before
	// the spawns (a happens-before edge) and read-only during the phase.
	cycle uint64
	// workers[i] runs shard i+1 for the current cycle. They are pre-bound
	// zero-argument closures because `go f()` on one spawns without heap
	// allocation, whereas a go statement with arguments allocates a wrapper
	// closure every call — which would break the engine's zero-alloc
	// steady state.
	workers []func()

	// Partition state. The mesh is divided into gy horizontal bands of rows;
	// band j spans rows [ycuts[j], ycuts[j+1]) and is divided into gx column
	// ranges of its own: tile (i, j) — shard j*gx+i — spans columns
	// [xcuts[j][i], xcuts[j][i+1]). Bands keep private x-cuts so column
	// migrations in one band never disturb another; every tile stays a
	// rectangle, so a node's owning shard follows from its coordinates and
	// the cuts alone throughout a run.
	gx, gy int
	ycuts  []int
	xcuts  [][]int
	// nodeCounts mirrors len(shards[i].nodes) for telemetry (published as the
	// dxbar_shard_nodes gauge without touching shard internals).
	nodeCounts []int

	// Dynamic rebalancing: every interval cycles the backend compares the
	// shards' router-phase times over the window just ended and, when the
	// hottest shard exceeds rebalanceThreshold times the mean, migrates one
	// boundary row or column from it toward its coolest neighbour.
	// interval <= 0 disables the checks (Engine.RebalanceShards still forces
	// passes manually).
	interval   uint64
	lastBusy   []time.Duration
	winBusy    []time.Duration
	rebalances uint64
	migrated   uint64
}

func newShardedBackend(e *Engine, n, rebalanceInterval int) *shardedBackend {
	m := e.mesh
	gx, gy := m.Grid2D(n)
	count := gx * gy
	b := &shardedBackend{
		e:          e,
		shards:     make([]*shard, count),
		busy:       make([]time.Duration, count),
		wait:       make([]time.Duration, count),
		finish:     make([]time.Time, count),
		gx:         gx,
		gy:         gy,
		ycuts:      topology.SplitEven(m.Height, gy),
		xcuts:      make([][]int, gy),
		nodeCounts: make([]int, count),
		lastBusy:   make([]time.Duration, count),
		winBusy:    make([]time.Duration, count),
	}
	b.interval = resolveRebalanceInterval(rebalanceInterval)
	for j := 0; j < gy; j++ {
		b.xcuts[j] = topology.SplitEven(m.Width, gx)
	}
	for i := range b.shards {
		b.shards[i] = &shard{id: i, nodes: make([]int, 0, m.Nodes())}
	}
	for j := 0; j < gy; j++ {
		for i := 0; i < gx; i++ {
			b.rebuildShard(i, j)
		}
	}
	for i := 1; i < len(b.shards); i++ {
		s := b.shards[i]
		b.workers = append(b.workers, func() {
			b.runShard(s, b.cycle)
			b.wg.Done()
		})
	}
	return b
}

// rebuildShard regenerates tile (i, j)'s node list from its rectangle and
// rewires the migrated envs to the owning shard's scratch collectors. It
// never allocates: node capacity is the whole mesh, and the env stages /
// retransmit buffers are per-env, so they follow the node wherever it goes.
func (b *shardedBackend) rebuildShard(i, j int) {
	s := b.shards[j*b.gx+i]
	w := b.e.mesh.Width
	s.nodes = s.nodes[:0]
	for y := b.ycuts[j]; y < b.ycuts[j+1]; y++ {
		for x := b.xcuts[j][i]; x < b.xcuts[j][i+1]; x++ {
			n := y*w + x
			s.nodes = append(s.nodes, n)
			// At construction the scratch collectors do not exist yet —
			// wireCollectors runs right after and wires every env. During a
			// mid-run migration they do, and only the env's ownership
			// changes.
			if s.meter != nil {
				env := b.e.envs[n]
				env.shard = s
				env.meter = s.meter
				env.coll = s.coll
			}
		}
	}
	b.nodeCounts[s.id] = len(s.nodes)
}

func (b *shardedBackend) shardCount() int { return len(b.shards) }

func (b *shardedBackend) routerPhase(c uint64) {
	b.cycle = c
	b.wg.Add(len(b.workers))
	for _, w := range b.workers {
		go w()
	}
	b.runShard(b.shards[0], c)
	b.wg.Wait()
	b.settleWaits()
	b.merge(c)
	if b.interval > 0 && (c+1)%b.interval == 0 {
		b.rebalance(false)
	}
}

func (b *shardedBackend) runShard(s *shard, c uint64) {
	e := b.e
	start := time.Now()
	s.steps.add(e.stepNodes(s.nodes, c), len(s.nodes))
	end := time.Now()
	b.busy[s.id] += end.Sub(start)
	b.finish[s.id] = end
}

// settleWaits charges each shard the time it spent idle at the barrier this
// cycle: the gap between its own finish and the slowest shard's. The slowest
// shard's wait is zero by construction — a persistently zero-wait shard is
// the bottleneck tile.
func (b *shardedBackend) settleWaits() {
	last := b.finish[0]
	for _, t := range b.finish[1:] {
		if t.After(last) {
			last = t
		}
	}
	for i, t := range b.finish {
		b.wait[i] += last.Sub(t)
	}
}

func (b *shardedBackend) profile() (busy, wait []time.Duration) { return b.busy, b.wait }

func (b *shardedBackend) resetProfile() {
	for i := range b.busy {
		b.busy[i] = 0
		b.wait[i] = 0
		b.lastBusy[i] = 0
	}
	b.rebalances = 0
	b.migrated = 0
}

// merge applies every staged side effect of the finished router phase to
// the engine's master state. It runs on the coordinating goroutine after
// the barrier, so it needs no synchronization beyond the WaitGroup's
// happens-before edge.
func (b *shardedBackend) merge(c uint64) {
	e := b.e

	retx := 0
	for _, s := range b.shards {
		retx += s.retx
		s.retx = 0
		e.steps.executed += s.steps.executed
		e.steps.skipped += s.steps.skipped
		s.steps = routerSteps{}
	}
	e.retransmits += uint64(retx)
	// Replay per-env stages in ascending node order. The env scan is O(N),
	// so skip it when there is nothing to replay (tracing off and no
	// retransmissions scheduled — the overwhelmingly common cycle).
	if e.rec != nil || retx > 0 {
		for _, env := range e.envs {
			env.rec.DrainTo(e.rec)
			for _, rx := range env.pendingRetx {
				e.wheel.schedule(c, c+rx.delay, rx.f)
			}
			env.pendingRetx = env.pendingRetx[:0]
		}
	}

	for _, s := range b.shards {
		for _, cr := range s.creditReturns {
			cr.env.applyReturn(cr.port)
		}
		s.creditReturns = s.creditReturns[:0]
		e.meter.Absorb(s.meter)
		e.coll.AbsorbRouterPhase(s.coll)
	}
}

// Migration kinds of one rebalancing move, ordered by preference when a
// forced pass finds no profitable candidate.
const (
	moveColWest  = iota // hot tile's westmost column -> western neighbour
	moveColEast         // hot tile's eastmost column -> eastern neighbour
	moveRowNorth        // hot band's top row -> band above (all its tiles)
	moveRowSouth        // hot band's bottom row -> band below
	moveNone
)

// rebalance runs one rebalancing pass: it reads the per-shard router-phase
// profile over the window since the last pass and migrates one boundary
// column (between the hottest tile and its in-band neighbour) or one
// boundary row (between the hottest tile's band and an adjacent band) from
// hot to cold. It runs on the coordinating goroutine between cycles, so the
// partition is stable for the whole of every router phase. force skips the
// imbalance threshold and, when no candidate is profitable, executes the
// first feasible move anyway (tests force deterministic migrations with it).
// It reports whether a migration happened. Bit-identity is unaffected either
// way: the partition only decides which worker steps which node, never what
// the step computes.
func (b *shardedBackend) rebalance(force bool) bool {
	var total, max time.Duration
	hot := 0
	for i, cum := range b.busy {
		w := cum - b.lastBusy[i]
		b.lastBusy[i] = cum
		b.winBusy[i] = w
		total += w
		if w > b.winBusy[hot] {
			hot = i
		}
	}
	max = b.winBusy[hot]
	if !force && (total == 0 || float64(max)*float64(len(b.shards)) <= rebalanceThreshold*float64(total)) {
		return false
	}

	// Per-node busy rates decide where work should flow. A column move
	// helps when the hot tile's rate exceeds its in-band neighbour's; a row
	// move compares whole bands, because shifting a y-cut migrates a full
	// mesh row across every tile pair of the two bands.
	rate := func(id int) float64 {
		if b.nodeCounts[id] == 0 {
			return 0
		}
		return float64(b.winBusy[id]) / float64(b.nodeCounts[id])
	}
	bandRate := func(j int) float64 {
		var busy time.Duration
		nodes := 0
		for i := 0; i < b.gx; i++ {
			busy += b.winBusy[j*b.gx+i]
			nodes += b.nodeCounts[j*b.gx+i]
		}
		if nodes == 0 {
			return 0
		}
		return float64(busy) / float64(nodes)
	}

	hi, hj := hot%b.gx, hot/b.gx
	tileWidth := b.xcuts[hj][hi+1] - b.xcuts[hj][hi]
	bandHeight := b.ycuts[hj+1] - b.ycuts[hj]

	// Candidate moves, scored by the rate gap work would flow down. A forced
	// pass keeps the first feasible move even at zero gain (kind order is the
	// tie-break); an unforced pass requires a strictly positive gap.
	best, bestGain := moveNone, 0.0
	consider := func(kind int, gain float64) {
		if gain > bestGain || (force && best == moveNone) {
			best, bestGain = kind, gain
		}
	}
	if hi > 0 && tileWidth > 1 {
		consider(moveColWest, rate(hot)-rate(hot-1))
	}
	if hi < b.gx-1 && tileWidth > 1 {
		consider(moveColEast, rate(hot)-rate(hot+1))
	}
	if hj > 0 && bandHeight > 1 {
		consider(moveRowNorth, bandRate(hj)-bandRate(hj-1))
	}
	if hj < b.gy-1 && bandHeight > 1 {
		consider(moveRowSouth, bandRate(hj)-bandRate(hj+1))
	}
	if best == moveNone || (!force && bestGain <= 0) {
		return false
	}

	switch best {
	case moveColWest:
		b.xcuts[hj][hi]++
		b.migrated += uint64(bandHeight)
		b.rebuildShard(hi-1, hj)
		b.rebuildShard(hi, hj)
	case moveColEast:
		b.xcuts[hj][hi+1]--
		b.migrated += uint64(bandHeight)
		b.rebuildShard(hi, hj)
		b.rebuildShard(hi+1, hj)
	case moveRowNorth:
		b.ycuts[hj]++
		b.migrated += uint64(b.e.mesh.Width)
		for i := 0; i < b.gx; i++ {
			b.rebuildShard(i, hj-1)
			b.rebuildShard(i, hj)
		}
	case moveRowSouth:
		b.ycuts[hj+1]--
		b.migrated += uint64(b.e.mesh.Width)
		for i := 0; i < b.gx; i++ {
			b.rebuildShard(i, hj)
			b.rebuildShard(i, hj+1)
		}
	}
	b.rebalances++
	return true
}
