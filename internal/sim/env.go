package sim

import (
	"fmt"
	"math/bits"

	"dxbar/internal/buffer"
	"dxbar/internal/energy"
	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// Env is a router's complete view of the network: its input latches, output
// latches, downstream credit counters, injection queue and the shared
// meter/collector. The engine owns and wires Envs; router implementations
// receive one at construction.
type Env struct {
	engine *Engine
	// Node is this router's node index.
	Node int
	// wake is the node's awake flag in its tile: a landing writes both lines.
	wake *uint8
	// In holds the flit latched on each cardinal input port this cycle
	// (nil = none). The router must consume every entry during Step. InMask
	// mirrors it (bit p set = In[p] != nil, maintained by the engine's land
	// loop) so gather loops visit only occupied latches; a router that
	// consumes In through the mask clears it.
	In     [flit.NumLinkPorts]*flit.Flit
	InMask uint8

	// out holds the flits launched this cycle; outMask mirrors it as a
	// bitmask (bit p set = out[p] != nil) so the engine's link phase can skip
	// idle routers with one load instead of five.
	out     [flit.NumPorts]*flit.Flit
	outMask uint8

	// portMask caches the node's cardinal link bitmask; blockedMask tracks
	// output ports whose downstream credits are exhausted (bit maintained at
	// Consume time in Send and at maturation time in tickCredits, the only
	// two places Available changes mid-run). The counters with returns in
	// flight are flagged in the owning tile's creditTick byte.
	portMask    uint8
	blockedMask uint8
	// crossMask marks the cardinal ports whose neighbour belongs to another
	// tile of the sharded engine (always 0 on the sequential one): a flit
	// landing through such a port, or a credit returned up it, is staged for
	// the barrier instead of written into the neighbour. Fixed with the
	// partition at construction (newShardedBackend), never serialized.
	crossMask uint8

	// neighbors caches the node reached through each cardinal output port
	// (-1 = no link), so look-ahead sends skip the mesh arithmetic.
	neighbors [flit.NumLinkPorts]int32

	// downCredits[p] tracks free buffer space at the neighbour reached
	// through output port p (nil when bufferless or no link).
	downCredits [flit.NumLinkPorts]*buffer.Credits
	// upCredits[p] is the neighbour counter replenished when a flit that
	// arrived through input port p frees its slot (nil when bufferless or no
	// link); upTick/upBit locate the bit to set in that neighbour's
	// creditTick flag. Plain data instead of a closure keeps ReturnCredit
	// direct-call inlinable on the hot path.
	upCredits [flit.NumLinkPorts]*buffer.Credits
	upTick    [flit.NumLinkPorts]*uint8
	upBit     [flit.NumLinkPorts]uint8

	// nbrEnv[p] is the Env reached through output port p (nil when the link
	// does not exist), and nbrIn[p] the input-port index there — the land
	// loop's per-link lookups resolved once at wiring time instead of two
	// dependent slice indexes per landed flit per cycle.
	nbrEnv [flit.NumLinkPorts]*Env
	nbrIn  [flit.NumLinkPorts]flit.Port

	injection flitDeque
	// pendingSpecs holds generated packets not yet materialized into flits
	// (see specQueue / topUpInjection), in chunks of the tile's chunk list.
	pendingSpecs specQueue
	bufferDepth  int
	creditDelay  int

	// reasm reassembles the packets ejected here; queueStore is the storage
	// of the router's input buffers (QueueStore).
	reasm      flit.Reassembler
	queueStore []buffer.Entry

	// tile is the tile that owns this node for the engine's lifetime (the
	// sequential engine's only one, or a shard's) and slot its position there
	// (newTile); meter, coll and rec are
	// what the node's router writes through: the engine's masters on the
	// sequential engine, the owning tile's scratch meter/collector and a
	// per-env event stage on the sharded one (see Engine.wireCollectors).
	// Routers never see the difference.
	tile  *tile
	slot  int
	meter *energy.Meter
	coll  *stats.Collector
	rec   *events.Recorder
}

// init sets up a node's Env in place, in its tile's slab (newTile).
func (env *Env) init(e *Engine, node int) {
	env.engine, env.Node = e, node
	env.bufferDepth, env.creditDelay = e.bufferDepth, e.creditDelay
	env.portMask = e.mesh.PortMask(node)
	for p := flit.North; p <= flit.West; p++ {
		env.neighbors[p] = int32(e.mesh.Neighbor(node, p))
	}
}

// QueueStore returns the storage for this node's input buffers: room for
// NumLinkPorts queues of the engine's BufferDepth (buffer.RingLen(BufferDepth)
// entries each) — or equally for twice as many queues of half that depth —
// carved from the owning tile's slab and kept across Engine.Reset. A router
// carves its queues from it (buffer.InitQueues) instead of allocating them.
// Empty when the engine is bufferless.
func (env *Env) QueueStore() []buffer.Entry { return env.queueStore }

// Neighbor returns the node reached through cardinal output port p (-1 when
// the link does not exist) — a cached-array load, for router hot paths.
func (env *Env) Neighbor(p flit.Port) int { return int(env.neighbors[p]) }

// createCredits instantiates this node's downstream credit counters (first
// wiring pass — must run for every env before wireCredits).
func (env *Env) createCredits() {
	if env.bufferDepth <= 0 {
		return
	}
	m := env.engine.mesh
	slab := env.engine.creditSlab
	for p := flit.North; p <= flit.West; p++ {
		if m.HasPort(env.Node, p) {
			env.downCredits[p] = &slab[env.Node*flit.NumLinkPorts+int(p)]
		}
	}
}

// wireCredits connects the upstream credit-return closures (second wiring
// pass — every env's counters exist by now).
func (env *Env) wireCredits() {
	if env.bufferDepth <= 0 {
		return
	}
	m := env.engine.mesh
	for p := flit.North; p <= flit.West; p++ {
		nb := m.Neighbor(env.Node, p)
		if nb == -1 {
			continue
		}
		// A flit arriving on my input port p came through the neighbour's
		// opposite output port; returning a credit must replenish *that*
		// counter.
		counter := env.engine.envs[nb].downCredits[p.Opposite()]
		if counter != nil {
			env.upCredits[p] = counter
			env.upBit[p] = uint8(1) << uint(p.Opposite())
		}
	}
}

// Mesh returns the topology.
func (env *Env) Mesh() *topology.Mesh { return env.engine.mesh }

// Meter returns the energy meter this router records into (the engine's in
// sequential mode, the owning tile's scratch in sharded mode — absorbed into
// the engine's at every cycle barrier).
func (env *Env) Meter() *energy.Meter { return env.meter }

// Stats returns the statistics collector this router records into (the
// engine's, or the shard's scratch — see Meter).
func (env *Env) Stats() *stats.Collector { return env.coll }

// Events returns the flight recorder this router records into — nil when
// runtime event tracing is off, which every recorder method tolerates, so
// routers record unconditionally. In sharded mode this is the env's private
// stage, drained into the master recorder in node order at the barrier.
func (env *Env) Events() *events.Recorder { return env.rec }

// DiagFaultManifest notifies the run-health monitor that this node's
// injected fault manifested at the given cycle — the start of the BIST
// detection-latency window. No-op without a monitor; safe from the router
// phase (shard workers write disjoint per-node state).
func (env *Env) DiagFaultManifest(cycle uint64) {
	env.engine.mon.FaultManifested(env.Node, cycle)
}

// DiagFaultDetected notifies the run-health monitor that this node's fault
// was detected, closing the latency window opened by DiagFaultManifest.
func (env *Env) DiagFaultDetected(cycle uint64) {
	env.engine.mon.FaultDetected(env.Node, cycle)
}

// HasLink reports whether output port p leads to a neighbour (Local always
// exists).
func (env *Env) HasLink(p flit.Port) bool {
	if p == flit.Local {
		return true
	}
	return env.engine.mesh.HasPort(env.Node, p)
}

// CanSend reports whether the router may launch a flit through output port
// p this cycle: the port must exist, be free, and (for credited designs)
// have a downstream credit. Local ejection never needs credits.
func (env *Env) CanSend(p flit.Port) bool {
	if !env.HasLink(p) || env.out[p] != nil {
		return false
	}
	if p == flit.Local {
		return true
	}
	if c := env.downCredits[p]; c != nil {
		return c.CanSend()
	}
	return true
}

// Send launches f through output port p (the flit's ST completes this
// cycle; LT happens next cycle). It consumes a downstream credit on
// credited links and computes the flit's look-ahead route for the next
// router via the caller-provided route (already stored in f.Route).
func (env *Env) Send(p flit.Port, f *flit.Flit) {
	if p != flit.Local && env.portMask&(1<<uint(p)) == 0 {
		panic(fmt.Sprintf("sim: node %d sending through missing port %s", env.Node, p))
	}
	if env.out[p] != nil {
		panic(fmt.Sprintf("sim: node %d output %s already driven", env.Node, p))
	}
	if p != flit.Local {
		if c := env.downCredits[p]; c != nil {
			c.Consume()
			if !c.CanSend() {
				env.blockedMask |= 1 << uint(p)
			}
		}
	}
	env.out[p] = f
	env.outMask |= 1 << uint(p)
}

// SendableMask returns the bitmask of output ports the router may launch
// through this cycle — bit p set means CanSend(p) — over all five ports.
// Routers compute it once at the start of their Step and clear bits as they
// send, replacing a CanSend call (link test, latch test, credit test) per
// arbitration attempt with one bit test.
func (env *Env) SendableMask() uint8 {
	m := env.portMask &^ (env.outMask | env.blockedMask)
	if env.out[flit.Local] == nil {
		m |= 1 << uint(flit.Local)
	}
	return m
}

// FreeOutMask returns the bitmask of output ports that exist and are still
// undriven this cycle (bit p set = HasLink(p) and latch p empty, plus Local) —
// the credit-blind companion of SendableMask for deflection paths, which may
// use a link regardless of downstream buffer space.
func (env *Env) FreeOutMask() uint8 {
	m := env.portMask &^ env.outMask
	if env.out[flit.Local] == nil {
		m |= 1 << uint(flit.Local)
	}
	return m
}

// ReturnCredit hands one credit back to the upstream neighbour feeding
// input port p (call when a flit that arrived through p frees its buffer
// slot, or immediately when it bypasses buffering entirely). When that
// neighbour belongs to another tile of the sharded engine the return is
// staged for the cycle barrier: the counter is the neighbour's to write.
func (env *Env) ReturnCredit(p flit.Port) {
	c := env.upCredits[p]
	if c == nil {
		return
	}
	if env.crossMask&(1<<uint(p)) != 0 {
		env.tile.creditReturns = append(env.tile.creditReturns, stagedCredit{env: env, port: p})
		return
	}
	c.Return()
	*env.upTick[p] |= env.upBit[p]
}

// applyLateReturn performs a staged credit return for input port p at the
// barrier, after the owning tile has already run the counter's tickCredits
// for this cycle — so it leaves the counter and the owner's masks as Return
// followed by that tick would have (see buffer.Credits.ReturnLate).
func (env *Env) applyLateReturn(p flit.Port) {
	c, owner := env.upCredits[p], env.nbrEnv[p] // links are two-way: the feeder of input p
	c.ReturnLate()
	if c.CanSend() {
		owner.blockedMask &^= env.upBit[p]
	}
	if c.HasPending() {
		*env.upTick[p] |= env.upBit[p]
	}
}

// DownstreamCredits exposes the credit counter for output port p (nil when
// bufferless); routers use it for availability checks in tests.
func (env *Env) DownstreamCredits(p flit.Port) *buffer.Credits {
	if !p.IsCardinal() {
		return nil
	}
	return env.downCredits[p]
}

// InjectionHead returns the oldest waiting injection flit (nil if none).
func (env *Env) InjectionHead() *flit.Flit {
	return env.injection.front()
}

// ConsumeInjection removes the injection-queue head; the router calls it
// after successfully switching the head flit. The flit's network entry time
// is stamped for statistics.
func (env *Env) ConsumeInjection(cycle uint64) *flit.Flit {
	if env.injection.len() == 0 {
		panic("sim: ConsumeInjection on empty queue")
	}
	f := env.injection.popFront()
	f.EnqueueCycle = cycle
	env.rec.Record(cycle, events.Inject, env.Node, flit.Local,
		f.PacketID, f.ID, int32(cycle-f.InjectionCycle))
	return f
}

// ScheduleRetransmit asks the engine to re-enqueue f at its source after
// delay cycles (see Engine.ScheduleRetransmit). In sharded mode the wheel
// insertion is staged on the owning tile and replayed in node order at the
// barrier, so the wheel's delivery order matches the sequential engine's;
// the Retransmit event is recorded into the env's stage at call time so it
// stays interleaved with the router's other events.
func (env *Env) ScheduleRetransmit(f *flit.Flit, delay uint64) {
	t := env.tile
	if !t.staged {
		env.engine.ScheduleRetransmit(f, delay)
		return
	}
	if delay == 0 {
		delay = 1
	}
	env.rec.Record(env.engine.cycle, events.Retransmit, int(f.Src), flit.Invalid,
		f.PacketID, f.ID, int32(delay))
	t.retx = append(t.retx, stagedRetx{node: env.Node, f: f, delay: delay})
}

// pushFrontInjection (a delivered retransmission) and pushSpec (a generated
// packet) are the two ways work enters a node from its own PE; both wake the
// node's router (see Engine.tilePhase). They run on the coordinating
// goroutine before the tile phases are released, never concurrently with them.
func (env *Env) pushFrontInjection(f *flit.Flit) {
	env.injection.pushFront(f)
	*env.wake = 1
}

func (env *Env) pushSpec(s *traffic.PacketSpec) {
	env.pendingSpecs.pushBack(&env.tile.chunks, queued(s))
	*env.wake = 1
}

func (env *Env) injectionLen() int { return env.injection.len() + env.pendingSpecs.flits }

// InjectionSlack is the minimum number of materialized flits topUpInjection
// keeps at the front of the injection deque while specs are pending. Routers
// inject at most one flit per cycle, so any value >= 1 preserves behaviour;
// a little slack keeps the top-up loop off most cycles. New primes the flit
// pool with this many flits per node.
const InjectionSlack = 8

// topUpInjection materializes queued packet specs (whole packets, FIFO)
// until the injection deque holds at least InjectionSlack flits or no specs
// remain. It runs at the head of the node's router step, out of the owning
// tile's pool, and gives spent chunks back to the tile's list — routers only
// ever pop already-materialized flits.
func (env *Env) topUpInjection() {
	t := env.tile
	for env.injection.len() < InjectionSlack && env.pendingSpecs.len() > 0 {
		q := env.pendingSpecs.popFront(&t.chunks)
		spec := q.spec(env.Node)
		for i := uint16(0); i < spec.NumFlits; i++ {
			env.injection.pushBack(spec.MaterializeFlit(t.pool, i))
		}
	}
}

// creditOccupancy returns the number of downstream buffer slots this node's
// flow control currently holds: for each credited output link, the credits
// consumed and not yet usable again (occupied slots plus credits riding the
// return pipeline). 0 when bufferless.
func (env *Env) creditOccupancy() int {
	total := 0
	for _, c := range env.downCredits {
		if c != nil {
			total += env.bufferDepth - c.Available()
		}
	}
	return total
}

// tickCredits ticks the credit pipelines flagged in m (the node's creditTick
// byte) and returns the ones still carrying returns.
func (env *Env) tickCredits(m uint8) (still uint8) {
	for b := m; b != 0; b &= b - 1 {
		p := bits.TrailingZeros8(b)
		c := env.downCredits[p]
		c.Tick()
		if c.CanSend() {
			env.blockedMask &^= uint8(1) << uint(p)
		}
		if c.HasPending() {
			still |= uint8(1) << uint(p)
		}
	}
	return still
}

// reset clears all per-run state: latches, the injection queue (its spec
// chunks go back to the tile's list), the reassembler and the credit counters
// (Engine.Reset). The credit wiring itself is topology-bound and survives.
func (env *Env) reset() {
	for p := range env.In {
		env.In[p] = nil
	}
	for p := range env.out {
		env.out[p] = nil
	}
	env.outMask = 0
	env.blockedMask = 0
	env.InMask = 0
	env.injection.clear()
	env.pendingSpecs.clear(&env.tile.chunks)
	env.reasm.Reset()
	for _, c := range env.downCredits {
		if c != nil {
			c.Reset()
		}
	}
}
