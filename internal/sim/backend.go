package sim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dxbar/internal/buffer"
	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
)

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

// routerSteps counts router-steps executed and skipped by the activity-driven
// router phase. Every tile owns its own, folded into the engine's after the
// tile phase: RunMany steps several engines on several goroutines, so a
// counter shared between engines would be a contended cache line on the
// hottest loop.
type routerSteps struct {
	executed, skipped uint64
}

// add records one router phase over total nodes of which stepped were stepped.
func (s *routerSteps) add(stepped, total int) {
	s.executed += uint64(stepped)
	s.skipped += uint64(total - stepped)
}

// absorb folds t into s and zeroes t.
func (s *routerSteps) absorb(t *routerSteps) {
	s.executed += t.executed
	s.skipped += t.skipped
	*t = routerSteps{}
}

// tile is the unit the per-node work of a cycle runs over: a list of nodes
// plus everything Engine.tilePhase may write on their behalf without touching
// another tile's memory. The sequential engine is one tile that owns every
// node and writes straight through to the engine's collector, recorder
// and pool; the sharded engine has one per shard, each writing scratch state
// the barrier folds back (see shardedBackend.merge).
type tile struct {
	id int
	// nodes lists the tile's node indices in ascending order, fixed at
	// construction; envs are their Envs, in the same order — the slab the
	// engine's per-node pointers point into (newTile).
	nodes []int
	envs  []Env
	// chunks is the free list the nodes' spec queues take their chunks from
	// and give them back to.
	chunks chunkList

	// staged marks a tile of the sharded engine: effects that must reach the
	// engine in node order (completed packets, retransmissions, events) are
	// parked in the lists below instead of applied. On the sequential engine's
	// single tile, node order is simply the order things happen in.
	staged bool

	// coll, rec and pool are what the tile's phase writes through: the
	// engine's own on the sequential tile, scratch instances on a sharded one
	// (rec then holds only the tile's ejection events; router events go to the
	// per-node stages, see Engine.wireCollectors).
	coll *stats.Collector
	rec  *events.Recorder
	pool *flit.Pool

	// steps counts the tile's router-steps since the engine last folded them.
	steps routerSteps

	// Per-node byte flags, indexed by position in nodes (bind). awake[i] != 0:
	// the node's router must be stepped this cycle — set wherever an input
	// reaches the node (a landing flit, pushSpec, retransmit delivery) and for
	// every node on construction, Reset and Restore; cleared in tilePhase alone.
	// linkMask[i] has bit p set while a flit is on the link out of port p
	// (Engine.linkStage), creditTick[i] while the credit counter of port p has
	// returns in flight (set by the upstream ReturnCredit). Bytes, not bits:
	// whoever delivers an input writes a flag with a plain store, and the phase
	// reads them eight to a load (gather64). All three stay below 0x80.
	awake, linkMask, creditTick []uint8
	// stepped is the set of nodes stepped this cycle, inflight the set with
	// linkMask != 0: bitsets over positions in nodes, written by this tile's
	// phase only. Derived state, never serialized (Engine.deriveSets).
	stepped, inflight []uint64

	// Effects of the current cycle that cross the tile's boundary or must be
	// replayed in node order, emptied by the barrier's merge — so between
	// cycles, where snapshots are taken, every list is empty. landings and
	// creditReturns are only ever appended for links whose far end belongs to
	// another tile (Env.crossMask); retx and done are in ascending node order
	// because the tile walks its nodes in that order, and retxAt/doneAt are
	// the merge's cursors into them.
	landings      []stagedLanding
	creditReturns []stagedCredit
	retx          []stagedRetx
	done          []flit.Packet
	retxAt        int
	doneAt        int
}

// stagedLanding is a flit that finished its link traversal into a node of
// another tile: env.In[port] is written by the barrier, because a node's input
// latches, InMask and awake flag are only ever written by the goroutine that
// owns its tile — or by the coordinator while no tile is running.
type stagedLanding struct {
	env  *Env
	port flit.Port
	f    *flit.Flit
}

// stagedCredit is one deferred ReturnCredit call whose upstream counter
// belongs to another tile.
type stagedCredit struct {
	env  *Env
	port flit.Port
}

// stagedRetx is one retransmission a router of the given node scheduled
// during a sharded tile phase, parked until the barrier inserts it into the
// engine's event wheel in node order (the wheel's slot order is delivery
// order at the retransmit cycle, so insertion order must match the sequential
// engine's).
type stagedRetx struct {
	node  int
	f     *flit.Flit
	delay uint64
}

// partition lists the nodes of each tile for a resolved shard count: every
// node in one tile for the sequential engine, otherwise the boundary-
// minimizing grid of near-equal rectangles (topology.Grid2D,
// topology.SplitEven) — tile (i, j), shard j*gx+i, owns columns [xcuts[i],
// xcuts[i+1]) of rows [ycuts[j], ycuts[j+1]), listed row-major and therefore
// ascending. The partition is fixed for the engine's lifetime.
func partition(m *topology.Mesh, shards int) [][]int {
	gx, gy := 1, 1
	if shards > 1 {
		gx, gy = m.Grid2D(shards)
	}
	xcuts, ycuts := topology.SplitEven(m.Width, gx), topology.SplitEven(m.Height, gy)
	parts := make([][]int, gx*gy)
	for j := 0; j < gy; j++ {
		for i := 0; i < gx; i++ {
			nodes := make([]int, 0, (xcuts[i+1]-xcuts[i])*(ycuts[j+1]-ycuts[j]))
			for y := ycuts[j]; y < ycuts[j+1]; y++ {
				for x := xcuts[i]; x < xcuts[i+1]; x++ {
					nodes = append(nodes, y*m.Width+x)
				}
			}
			parts[j*gx+i] = nodes
		}
	}
	return parts
}

// newTile builds the tile owning nodes (ascending) and everything per node it
// owns, each kind carved from one slab of the tile's own: the Envs (their
// reassemblers included), the link-stage rows, one spec chunk per node to
// start the free list, the input-buffer storage, and the flags and sets — the
// last in whole cache lines (the sets' spare capacity is the padding). A
// tile's memory is thus a handful of allocations whatever its size, and two
// tiles' workers never write the same line. The tile writes through pool (the
// engine's own for the sequential engine's single tile).
func newTile(e *Engine, id int, nodes []int, pool *flit.Pool) *tile {
	k := len(nodes)
	t := &tile{id: id, nodes: nodes, pool: pool, staged: pool != e.pool}
	pad := (k + 63) &^ 63
	flags := make([]uint8, 3*pad)
	t.awake, t.linkMask, t.creditTick = flags[:pad], flags[pad:2*pad], flags[2*pad:]
	t.stepped = make([]uint64, pad/64, (pad/64+7)&^7)
	t.inflight = make([]uint64, pad/64, (pad/64+7)&^7)
	t.envs = make([]Env, k)
	links := make([]*flit.Flit, k*flit.NumLinkPorts)
	t.chunks.carve(k)
	var store []buffer.Entry
	per := 0
	if e.bufferDepth > 0 {
		per = flit.NumLinkPorts * buffer.RingLen(e.bufferDepth)
		store = make([]buffer.Entry, k*per)
	}
	for i, node := range nodes {
		env := &t.envs[i]
		env.init(e, node)
		env.tile, env.slot, env.wake = t, i, &t.awake[i]
		env.queueStore = store[i*per : (i+1)*per : (i+1)*per]
		e.envs[node] = env
		e.linkStage[node] = links[i*flit.NumLinkPorts : (i+1)*flit.NumLinkPorts : (i+1)*flit.NumLinkPorts]
	}
	return t
}

// gather64 returns the set of non-zero bytes among flags[:64], bit i for
// flags[i]. Every flag must be below 0x80.
func gather64(flags []uint8) (set uint64) {
	_ = flags[63]
	for k := 0; k < 64; k += 8 {
		x := binary.LittleEndian.Uint64(flags[k:])
		x = (x + 0x7f7f7f7f7f7f7f7f) & 0x8080808080808080 // bit 7 of every non-zero byte
		set |= (x >> 7) * 0x0102040810204080 >> 56 << k   // those eight bits, packed
	}
	return set
}

// tilePhase is one tile's whole cycle: everything in Engine.Step that is
// per-node work. The sequential engine runs it once over every node; the
// sharded engine runs one per tile concurrently, with no synchronization
// between them until all are done. Every walk visits a set's members, not the
// tile's nodes, so a cycle costs what is active in it:
//
//  1. Router phase (SA/ST) over the awake flags, gathered into stepped. A
//     stepped node first materializes queued packet specs into flits from the
//     tile's pool when its injection deque runs low, then steps, and goes to
//     sleep only when its router reported quiescent and the engine's own
//     per-node inputs — the injection deque and the spec queue — are empty too
//     (a non-empty queue is work the router may pick up on any later cycle).
//     Whatever delivers the next input sets the flag again.
//  2. Link phase, three walks: land the flits that spent this cycle on the
//     wires (the inflight set), launch the ones the routers just switched,
//     ejecting at Local (only a stepped router can have driven an output, so
//     the walk is over stepped, and it leaves the next cycle's inflight set
//     behind), tick the credit pipelines (the creditTick flags, gathered).
//     Ports are visited in ascending bit order and nodes in ascending order,
//     which fixes the order of ejections and therefore of Eject events and
//     Sink deliveries. Three walks, not one doing all three per node, because
//     that is what is faster at the figures' 8×8 (DESIGN.md §5c).
//
// Safety of running tiles concurrently rests on ownership: everything written
// here belongs to one of the tile's own nodes (latches, link stage, flags,
// queues, reassembler, downstream credit counters), to the tile (sets,
// scratch collector, pool, stages), or is a per-node row of the
// master collector (LinkEvent). The two writes that would reach a neighbour —
// landing a flit and returning a credit — are staged when the neighbour is
// another tile's (Env.crossMask) and replayed by the barrier.
func (e *Engine) tilePhase(t *tile, c uint64) {
	envs := t.envs
	stepped := 0
	for j := range t.stepped {
		w := gather64(t.awake[j<<6:])
		if e.stepAll {
			w = ^uint64(0) >> uint(max(0, 64*(j+1)-len(envs)))
		}
		t.stepped[j] = w
		stepped += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			i := j<<6 | bits.TrailingZeros64(w)
			env := &envs[i]
			if env.pendingSpecs.len() > 0 {
				env.topUpInjection()
			}
			quiescent := e.routers[env.Node].Step(c)
			checkConsumed(env, env.Node, c)
			if quiescent && env.injection.len() == 0 && env.pendingSpecs.len() == 0 {
				t.awake[i] = 0
			}
		}
	}
	t.steps.add(stepped, len(envs))

	linkStage := e.linkStage
	for j, w := range t.inflight {
		for ; w != 0; w &= w - 1 {
			i := j<<6 | bits.TrailingZeros64(w)
			m := t.linkMask[i]
			t.linkMask[i] = 0
			env := &envs[i]
			row := linkStage[env.Node]
			for b := m; b != 0; b &= b - 1 {
				p := bits.TrailingZeros8(b)
				f := row[p]
				row[p] = nil
				if env.crossMask&(1<<uint(p)) != 0 {
					t.landings = append(t.landings, stagedLanding{env: env.nbrEnv[p], port: env.nbrIn[p], f: f})
				} else {
					e.land(env.nbrEnv[p], env.nbrIn[p], f, c)
				}
			}
		}
	}
	launched := 0
	for j, w := range t.stepped {
		var flying uint64
		for ; w != 0; w &= w - 1 {
			i := j<<6 | bits.TrailingZeros64(w)
			env := &envs[i]
			m, u := env.outMask, env.Node
			if m == 0 {
				continue
			}
			env.outMask = 0
			if m&(1<<uint(flit.Local)) != 0 {
				f := env.out[flit.Local]
				env.out[flit.Local] = nil
				e.eject(t, env, f, c)
				if m &^= 1 << uint(flit.Local); m == 0 {
					continue
				}
			}
			row := linkStage[u]
			for b := m; b != 0; b &= b - 1 {
				p := flit.Port(bits.TrailingZeros8(b))
				f := env.out[p]
				env.out[p] = nil
				f.Hops++
				// The master collector, not the tile's scratch: link-use rows
				// are per node, so concurrent tiles write disjoint counters.
				e.coll.LinkEvent(u, p, c)
				row[p] = f
			}
			launched += bits.OnesCount8(m)
			t.linkMask[i] = m
			flying |= w & -w
		}
		t.inflight[j] = flying
	}
	for j := range t.stepped {
		for w := gather64(t.creditTick[j<<6:]); w != 0; w &= w - 1 {
			i := j<<6 | bits.TrailingZeros64(w)
			t.creditTick[i] = envs[i].tickCredits(t.creditTick[i])
		}
	}
	t.coll.LinkTraversals(c, launched)
}

// land latches f on input port q of nb for the next cycle's router phase and
// wakes the node.
func (e *Engine) land(nb *Env, q flit.Port, f *flit.Flit, c uint64) {
	if nb.In[q] != nil {
		panic(latchCollision{node: nb.Node, port: q, cycle: c})
	}
	nb.In[q] = f
	nb.InMask |= 1 << uint(q)
	*nb.wake = 1
}

// latchCollision is land's panic value: formatting is deferred to Error so
// that land stays small enough to inline into the link phase.
type latchCollision struct {
	node  int
	port  flit.Port
	cycle uint64
}

func (l latchCollision) Error() string {
	return fmt.Sprintf("sim: input latch collision at node %d port %s cycle %d", l.node, l.port, l.cycle)
}

// eject ends f's network life at env's node, on behalf of tile t.
func (e *Engine) eject(t *tile, env *Env, f *flit.Flit, c uint64) {
	node := env.Node
	if int(f.Dst) != node {
		panic(fmt.Sprintf("sim: flit %v ejected at wrong node %d", f, node))
	}
	t.coll.EjectedFlit(c)
	t.rec.Record(c, events.Eject, node, flit.Local, f.PacketID, f.ID, int32(c-f.InjectionCycle))
	pkt, done := env.reasm.Accept(f, c)
	// Reassembly has folded the flit's counters into the packet, so the flit
	// returns to the pool here.
	t.pool.Put(f)
	if !done {
		return
	}
	if t.staged {
		t.done = append(t.done, pkt)
		return
	}
	e.deliver(pkt, c)
}

// deliver records a completed packet and hands it to the sink. The coherence
// substrate behind Sink is single-threaded and order-sensitive, so this runs
// on the coordinating goroutine only, in ascending order of destination node.
func (e *Engine) deliver(pkt flit.Packet, c uint64) {
	e.coll.PacketDone(pkt)
	if e.sink != nil {
		e.sink.Deliver(pkt, c)
	}
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

// A goroutine waiting at the cycle barrier (shardedBackend.await) polls the
// counter it waits on for up to barrierSpin, then polls between up to
// barrierYields runtime.Gosched calls, then parks on a condition variable.
// Each stage is there for a measured reason (DESIGN.md §5c has the numbers).
// Parking every cycle, which this barrier replaced, is a sleep/wake through
// the scheduler: tens of microseconds on a virtual machine, more than the
// coordinator's whole serial section at 32×32. Yielding alone is cheap but
// lets two waiters trade processors through the scheduler's global run queue,
// after which each tile's working set sits in the other core's cache — time
// inside the tile phases doubled. The spin touches one cache line and keeps
// every goroutine where its data is.
//
// The spin stage is skipped when the tiles outnumber the processors: there a
// waiter's processor is what another tile is waiting for, and a yield hands
// it over at once, so the run makes progress on any GOMAXPROCS, 1 included.
// And every stage is bounded, so a coordinator busy in a RunUntil predicate
// finds its workers parked, not burning CPU.
const (
	barrierSpin   = 100 * time.Microsecond
	barrierYields = 1024
)

// shardedBackend runs the tile phases of a cycle concurrently, one tile per
// shard of a 2D grid over the mesh, and reconciles what they staged.
//
// Workers live exactly as long as one Run or RunUntil call: start launches
// one goroutine per tile but the first (which runs inline on the coordinating
// goroutine), stop joins them, and an engine that is not inside a run owns no
// goroutine — an idle or abandoned engine holds nothing but memory. A bare
// Step outside a run executes the tiles one after the other on the caller.
// Either way the cycle has the same shape, and exactly one barrier:
//
//	coordinator: PreCycle, retransmit delivery, generation   (Engine.Step)
//	release ────────────────────────────────────────────────
//	every tile:  tilePhase — router steps, land, launch/eject, credit ticks
//	arrive  ────────────────────────────────────────────────
//	coordinator: merge, observers                            (merge, Step)
//
// The partition is computed once, in newShardedBackend, and never changes.
// Because every effect that crosses a tile boundary is staged and replayed in
// a partition-independent order (see merge), its shape never leaks into
// results: any shard count is bit-identical to the sequential engine.
type shardedBackend struct {
	e     *Engine
	tiles []*tile

	// Barrier. The coordinator publishes the cycle and bumps release to start
	// a tile phase; each worker bumps arrived when its tile is done. Both
	// sides wait in await: polling, then parking on a condition variable of
	// mu; the waking side takes mu around its Signal/Broadcast, so a waiter
	// that checked the counter and is about to park cannot miss the wake-up
	// (spin is whether await may use its spin stage). The atomics are also the
	// happens-before edges that make the workers' writes visible to merge and
	// the coordinator's (cycle, quit, generated specs) to the workers.
	release atomic.Uint64
	arrived atomic.Int32
	spin    bool
	mu      sync.Mutex
	wake    sync.Cond // workers, for release to advance
	done    sync.Cond // coordinator, for arrived to reach len(workers)
	wg      sync.WaitGroup
	// workers[i] runs tile i+1 for the duration of a run scope. They are
	// pre-bound zero-argument closures because `go f()` on one starts without
	// heap allocation, whereas a go statement with arguments allocates a
	// wrapper closure every call — entering a run must allocate nothing.
	workers []func()
	// live is true inside a run scope; gen0 is release's value when the scope
	// started (each worker counts releases from it); cycle and quit carry the
	// coordinator's instructions across a release.
	live  bool
	gen0  uint64
	cycle uint64
	quit  bool

	// Execution profiler, always on (two time.Now calls per tile per cycle
	// plus two for the phase, against phases of tens of microseconds); it
	// observes without feeding any simulation state, so it cannot perturb
	// bit-identity. Whoever runs a tile adds the phase's duration to its busy
	// slot; after the barrier the coordinator charges every shard
	// phase-wall-time minus its own busy time as wait — release-to-start
	// latency, the gap to the slowest tile and the coordinator's own wake-up
	// all included — so per shard busy + wait is exactly the time the engine
	// spent in parallel phases. serial is the rest of a run scope: everything
	// the coordinator did between one phase's end and the next one's release
	// (mark).
	busy   []time.Duration
	wait   []time.Duration
	spent  []time.Duration // this phase's busy time per tile
	serial time.Duration
	mark   time.Time

	// ejections lists the tiles' ejection-event stages for events.DrainMerged
	// (nil entries when tracing is off).
	ejections []*events.Recorder
}

// newShardedBackend runs the engine's tiles (partition, newTile) on the
// barrier. Ownership and Env.crossMask are facts by the time it runs;
// Engine.wireCollectors, which runs right after construction and again on
// Reset, only swaps what the tiles write through.
func newShardedBackend(e *Engine) *shardedBackend {
	count := len(e.tiles)
	b := &shardedBackend{
		e:         e,
		tiles:     e.tiles,
		busy:      make([]time.Duration, count),
		wait:      make([]time.Duration, count),
		spent:     make([]time.Duration, count),
		ejections: make([]*events.Recorder, count),
	}
	b.wake.L, b.done.L = &b.mu, &b.mu
	b.settlePools()
	for _, t := range b.tiles[1:] {
		b.workers = append(b.workers, func() { b.work(t) })
	}
	return b
}

// settlePools reconciles every tile's flit pool with the engine's (see
// flit.Pool.Settle), which grows a slab at a time when it cannot cover a
// refill. A tile materializes at most a few flits per node per cycle, so
// InjectionSlack per node — refilled at half that — rarely runs dry within a
// cycle; a tile pool that does carves a slab of its own, and trimming hands
// its surplus on to the engine's pool.
func (b *shardedBackend) settlePools() {
	for _, t := range b.tiles {
		b.e.pool.Settle(t.pool, InjectionSlack*len(t.nodes))
	}
}

// start opens a run scope: it launches the workers, which then wait at the
// barrier for the first release.
func (b *shardedBackend) start() {
	b.gen0 = b.release.Load()
	b.quit = false
	b.spin = len(b.tiles) <= runtime.GOMAXPROCS(0)
	b.wg.Add(len(b.workers))
	for _, w := range b.workers {
		go w()
	}
	b.live = true
	b.mark = time.Now()
}

// stop closes the run scope: it releases the workers one last time with quit
// set and returns once every one of them has left its loop.
func (b *shardedBackend) stop() {
	b.quit = true
	b.releaseWorkers()
	b.wg.Wait()
	b.live = false
	b.serial += time.Since(b.mark)
}

// work is a worker goroutine's whole life: one tile phase per release until
// the scope ends.
func (b *shardedBackend) work(t *tile) {
	defer b.wg.Done()
	for gen := b.gen0 + 1; ; gen++ {
		b.await(func() bool { return b.release.Load() >= gen }, &b.wake)
		if b.quit {
			return
		}
		b.runTile(t, b.cycle)
		if b.arrived.Add(1) == int32(len(b.workers)) {
			b.mu.Lock()
			b.done.Signal()
			b.mu.Unlock()
		}
	}
}

func (b *shardedBackend) allArrived() bool { return b.arrived.Load() == int32(len(b.workers)) }

func (b *shardedBackend) releaseWorkers() {
	b.arrived.Store(0)
	b.release.Add(1)
	b.mu.Lock()
	b.wake.Broadcast()
	b.mu.Unlock()
}

// await blocks until ready reports true, which the goroutine that makes it
// true follows with a Signal or Broadcast on parked under mu. See barrierSpin
// for the stages.
func (b *shardedBackend) await(ready func() bool, parked *sync.Cond) {
	if b.spin {
		for deadline := time.Now().Add(barrierSpin); time.Now().Before(deadline); {
			for i := 0; i < 256; i++ {
				if ready() {
					return
				}
			}
		}
	}
	for i := 0; i < barrierYields; i++ {
		if ready() {
			return
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	for !ready() {
		parked.Wait()
	}
	b.mu.Unlock()
}

// runTile is tilePhase under the profiler's clock.
func (b *shardedBackend) runTile(t *tile, c uint64) {
	start := time.Now()
	b.e.tilePhase(t, c)
	b.spent[t.id] = time.Since(start)
}

// phase runs the tile phases of cycle c — on the run scope's workers, or one
// after the other on the caller outside a scope — then merges what they
// staged into the engine's master state.
func (b *shardedBackend) phase(c uint64) {
	t0 := time.Now()
	if b.live {
		b.serial += t0.Sub(b.mark)
		b.cycle = c
		b.releaseWorkers()
		b.runTile(b.tiles[0], c)
		b.await(b.allArrived, &b.done)
	} else {
		for _, t := range b.tiles {
			b.runTile(t, c)
		}
	}
	b.mark = time.Now()
	wall := b.mark.Sub(t0)
	for i, d := range b.spent {
		b.busy[i] += d
		b.wait[i] += wall - d
	}
	b.merge(c)
}

func (b *shardedBackend) resetProfile() {
	for i := range b.busy {
		b.busy[i] = 0
		b.wait[i] = 0
	}
	b.serial = 0
}

// merge applies everything the finished tile phases staged to the engine's
// master state. It runs on the coordinating goroutine after the barrier — the
// arrived counter is its happens-before edge — and leaves every stage empty.
// Each category is either replayed in the order the sequential engine
// produces it, or provably indifferent to order:
//
//   - Events: the sequential cycle records every router's events node by node,
//     then every ejection node by node. Router events sit in per-node stages,
//     drained in node order; ejection events sit in per-tile stages, each in
//     node order, merged by node.
//   - Retransmissions enter the event wheel merged by scheduling node — slot
//     order is delivery order, so it must match.
//   - Completed packets reach the collector and the Sink merged by
//     destination node, the order the sequential engine ejects in.
//   - Boundary landings each fill a distinct, empty input latch: any order.
//   - Cross-tile credit returns, collector counters, pool balances
//     and router-step counts are sums: any order. A return is applied with
//     Credits.ReturnLate because the owning tile has already ticked the
//     counter this cycle; the sequential engine returns, then ticks.
func (b *shardedBackend) merge(c uint64) {
	e := b.e
	retx, done := 0, 0
	for _, t := range b.tiles {
		e.steps.absorb(&t.steps)
		retx += len(t.retx)
		done += len(t.done)
	}
	if e.rec != nil {
		for _, env := range e.envs {
			env.rec.DrainTo(e.rec)
		}
		events.DrainMerged(e.rec, b.ejections)
	}
	if retx > 0 {
		e.retransmits += uint64(retx)
		b.mergeByNode(func(t *tile) int {
			if t.retxAt == len(t.retx) {
				return -1
			}
			return t.retx[t.retxAt].node
		}, func(t *tile) {
			rx := t.retx[t.retxAt]
			t.retxAt++
			e.wheel.schedule(c, c+rx.delay, rx.f)
		})
	}
	for _, t := range b.tiles {
		for _, l := range t.landings {
			e.land(l.env, l.port, l.f, c)
		}
		t.landings = t.landings[:0]
		for _, cr := range t.creditReturns {
			cr.env.applyLateReturn(cr.port)
		}
		t.creditReturns = t.creditReturns[:0]
		e.coll.AbsorbTile(t.coll)
	}
	b.settlePools()
	if done > 0 {
		b.mergeByNode(func(t *tile) int {
			if t.doneAt == len(t.done) {
				return -1
			}
			return int(t.done[t.doneAt].Dst)
		}, func(t *tile) {
			t.doneAt++
			e.deliver(t.done[t.doneAt-1], c)
		})
	}
	for _, t := range b.tiles {
		t.retx, t.retxAt = t.retx[:0], 0
		t.done, t.doneAt = t.done[:0], 0
	}
}

// mergeByNode consumes the tiles' staged lists in ascending node order: a
// k-way merge of lists that are each ascending already, one node's entries
// staying in the order they were staged. head reports the node of a tile's
// next entry (negative when it has none left), take consumes that entry.
func (b *shardedBackend) mergeByNode(head func(*tile) int, take func(*tile)) {
	for {
		var next *tile
		least := 0
		for _, t := range b.tiles {
			if n := head(t); n >= 0 && (next == nil || n < least) {
				next, least = t, n
			}
		}
		if next == nil {
			return
		}
		take(next)
	}
}
