package sim

import (
	"io"
	"math/bits"

	"dxbar/internal/flit"
	"dxbar/internal/snapshot"
	"dxbar/internal/traffic"
)

// RouterState is implemented by router designs with persistent cross-cycle
// state (buffers, steering pointers, arbiter rotations, event latches).
// Designs whose routers are pure functions of their latched inputs —
// Flit-Bless, SCARAB — simply don't implement it and serialize as absent.
type RouterState interface {
	State(s *snapshot.Stream, pool *flit.Pool, nodes int) error
}

// SharedState is network-wide design state owned by no single node (the AFC
// mode controller). Routers register theirs through Env.RegisterShared at
// construction; the engine serializes each exactly once, in registration
// order — which is node order, hence deterministic.
type SharedState interface {
	State(s *snapshot.Stream) error
}

// sourceState is implemented by traffic sources whose generation stream
// depends on mutable state (the Bernoulli injector's RNG position and packet
// ID counter). A source that doesn't implement it is assumed stateless. cycle
// is the snapshot's cycle, the bound on how far the source can have advanced.
type sourceState interface {
	State(s *snapshot.Stream, cycle uint64) error
}

// State implements sourceState by delegating to the wrapped injector.
func (s *SourceAdapter) State(st *snapshot.Stream, cycle uint64) error { return s.B.State(st, cycle) }

// RegisterShared registers network-wide design state for serialization (see
// SharedState). Registering the same state from every node is fine — only the
// first registration sticks.
func (env *Env) RegisterShared(s SharedState) {
	for _, x := range env.engine.shared {
		if x == s {
			return
		}
	}
	env.engine.shared = append(env.engine.shared, s)
}

// Snapshot serializes the engine's complete simulation state — every flit in
// flight (latches, link stages, injection deques, router buffers, the
// retransmit wheel), the credit pipelines, the source RNG position, the
// stats/energy accumulators and the optional recorder/monitor state — as one
// versioned, CRC-trailed stream.
//
// It must be called between cycles (after Step returns), where the engine's
// transient state is provably empty: output latches drained by the link
// phase, shard-staged side effects replayed at the barrier. The sharded
// backend's partition is deliberately not captured — it only decides which
// worker steps which node, never results, so a snapshot taken on either
// backend restores into either backend.
func (e *Engine) Snapshot(out io.Writer) error {
	s := snapshot.NewWriter(out)
	if err := e.state(s); err != nil {
		return err
	}
	return s.Close()
}

// Restore overwrites this engine's state from a Snapshot stream. The engine
// must be freshly built (New) or freshly Reset — restore assumes every queue,
// latch and accumulator is empty, exactly the state a failed restore leaves
// untouched — and must have the network shape the snapshot was taken from
// (mesh size, buffer depth, credit delay, router design); observation-layer
// differences — tracing on or off, shard count, diagnostics — are allowed,
// because they never influence results. On error the engine must be discarded
// or Reset before use.
func (e *Engine) Restore(data []byte) error {
	s, err := snapshot.NewReader(data)
	if err != nil {
		return err
	}
	if err := e.state(s); err != nil {
		return err
	}
	return s.Close()
}

// state is the engine's codec: every section of the stream, in order, once
// for both directions.
func (e *Engine) state(s *snapshot.Stream) error {
	nodes := len(e.envs)

	s.Tag("ENGW")
	s.U64(&e.cycle)
	s.U64(&e.retransmits)
	bufferDepth, creditDelay, snapNodes := e.bufferDepth, e.creditDelay, nodes
	snapshot.Int(s, &bufferDepth)
	snapshot.Int(s, &creditDelay)
	snapshot.Int(s, &snapNodes)
	if snapNodes != nodes {
		return s.Failf("sim: snapshot has %d nodes, engine has %d", snapNodes, nodes)
	}
	if bufferDepth != e.bufferDepth || creditDelay != e.creditDelay {
		return s.Failf("sim: snapshot BufferDepth=%d CreditDelay=%d, engine has %d, %d",
			bufferDepth, creditDelay, e.bufferDepth, e.creditDelay)
	}

	s.Tag("SRC ")
	ss, ok := e.source.(sourceState)
	has := ok
	if s.Bool(&has); has != ok {
		return s.Failf("sim: snapshot source-state presence %v, engine source %v", has, ok)
	}
	if ok {
		if err := ss.State(s, e.cycle); err != nil {
			return err
		}
	}

	s.Tag("CRED")
	for i := range e.creditSlab {
		if err := e.creditSlab[i].State(s); err != nil {
			return err
		}
	}

	s.Tag("ENVS")
	for _, env := range e.envs {
		if s.U8(&env.InMask); env.InMask&^env.portMask != 0 {
			return s.Failf("sim: snapshot input mask %#x out of range at node %d", env.InMask, env.Node)
		}
		if err := e.latchState(s, env.In[:], env.InMask, nodes); err != nil {
			return err
		}
		tick := &env.tile.creditTick[env.slot]
		s.U8(&env.blockedMask)
		s.U8(tick)
		if blocked, pending := env.creditMasks(); env.blockedMask != blocked || *tick != pending {
			return s.Failf("sim: snapshot credit masks out of range at node %d", env.Node)
		}
		if err := env.injection.state(s, e.pool, nodes); err != nil {
			return err
		}
		if err := env.pendingSpecs.state(s, nodes); err != nil {
			return err
		}
	}

	s.Tag("LINK")
	for u, env := range e.envs {
		mask := &env.tile.linkMask[env.slot]
		if s.U8(mask); *mask&^env.portMask != 0 {
			return s.Failf("sim: snapshot link mask %#x out of range at node %d", *mask, u)
		}
		if err := e.latchState(s, e.linkStage[u], *mask, nodes); err != nil {
			return err
		}
	}
	if s.Loading() {
		// The awake flags and the inflight sets are derived state and not in
		// the stream: every router steps once after a restore and reports its
		// quiescence afresh.
		e.deriveSets()
	}

	if err := e.wheelState(s, nodes); err != nil {
		return err
	}

	s.Tag("RASM")
	for _, env := range e.envs {
		if err := env.reasm.State(s, nodes); err != nil {
			return err
		}
	}

	s.Tag("RTRS")
	for i, rt := range e.routers {
		rs, stateful := rt.(RouterState)
		has := stateful
		if s.Bool(&has); has != stateful {
			return s.Failf("sim: snapshot router-state presence %v at node %d, engine router %v (different design?)", has, i, stateful)
		}
		if stateful {
			if err := rs.State(s, e.pool, nodes); err != nil {
				return err
			}
		}
	}

	s.Tag("SHST")
	if nsh := s.Len(len(e.shared), 1<<16); nsh != len(e.shared) {
		return s.Failf("sim: snapshot has %d shared states, engine has %d", nsh, len(e.shared))
	}
	for _, sh := range e.shared {
		if err := sh.State(s); err != nil {
			return err
		}
	}

	if err := e.coll.State(s); err != nil {
		return err
	}
	if err := e.meter.State(s); err != nil {
		return err
	}

	// A nil recorder or monitor on the restoring side decodes its section and
	// discards it — restoring with tracing off (or rewinding with a different
	// trace config) is legal.
	s.Tag("TRCE")
	has = e.rec != nil
	if s.Bool(&has); has {
		if err := e.rec.State(s); err != nil {
			return err
		}
	}
	s.Tag("MONI")
	has = e.mon != nil
	if s.Bool(&has); has {
		if err := e.mon.State(s); err != nil {
			return err
		}
	}

	s.Tag("DONE")
	return s.Err()
}

// creditMasks derives the node's two credit bitmasks from its downstream
// counters: the output ports whose credits are exhausted (blockedMask) and
// those with returns in flight (the creditTick flag). The stream carries both
// masks; a load holds them to the counters, since a router trusting a clear
// blocked bit would spend a credit it does not have.
func (env *Env) creditMasks() (blocked, pending uint8) {
	for p, c := range env.downCredits {
		if c != nil && !c.CanSend() {
			blocked |= 1 << p
		}
		if c != nil && c.HasPending() {
			pending |= 1 << p
		}
	}
	return blocked, pending
}

// CheckHeld holds a router's count of flits buffered from input port p to
// what the upstream counter of p says the router holds — credits spent and
// not yet returned, less the flit on the link and the flit latched at p — so
// a checkpoint cannot hand a router more flits than its neighbour paid for.
// Ports that carry no credits (bufferless designs, mesh edges) pass.
func (env *Env) CheckHeld(s *snapshot.Stream, p flit.Port, buffered int) error {
	c := env.upCredits[p]
	if c == nil {
		return nil
	}
	held := c.Outstanding()
	if env.In[p] != nil {
		held--
	}
	if env.engine.linkStage[env.nbrEnv[p].Node][p.Opposite()] != nil { // links are two-way
		held--
	}
	if held != buffered {
		return s.Failf("sim: snapshot input %d of node %d buffers %d flits, its upstream credits say %d", p, env.Node, buffered, held)
	}
	return nil
}

// latchState moves the flits of the latches whose bits are set in mask;
// loading fills those latches from the pool.
func (e *Engine) latchState(s *snapshot.Stream, latch []*flit.Flit, mask uint8, nodes int) error {
	for b := mask; b != 0; b &= b - 1 {
		p := bits.TrailingZeros8(b)
		if s.Loading() {
			latch[p] = e.pool.Get()
		}
		if err := flit.State(s, latch[p], nodes); err != nil {
			return err
		}
	}
	return nil
}

// wheelState moves the retransmit wheel as (offset, flits) pairs in ascending
// offset order — offset k means due at cycle+k — so the encoding is
// independent of the wheel's current capacity and head position. Offsets are
// held to the schedulers' horizon (wheelHorizon): a forged one can neither
// grow the wheel without bound nor overflow its sizing.
func (e *Engine) wheelState(s *snapshot.Stream, nodes int) error {
	s.Tag("WHEL")
	w := &e.wheel
	nonEmpty := 0
	for _, slot := range w.slots {
		if len(slot) > 0 {
			nonEmpty++
		}
	}
	n := s.Len(nonEmpty, 1<<20)
	horizon := e.wheelHorizon()
	prev := int64(-1)
	for i := 0; i < n; i++ {
		var k uint64
		var slot []*flit.Flit
		if !s.Loading() { // the next non-empty slot, in due order
			for k = uint64(prev + 1); len(w.slots[(e.cycle+k)&w.mask]) == 0; k++ {
			}
			slot = w.slots[(e.cycle+k)&w.mask]
		}
		s.U64(&k)
		cnt := s.Len(len(slot), 1<<20)
		if int64(k) <= prev {
			return s.Failf("sim: snapshot wheel offsets not ascending (%d after %d)", k, prev)
		}
		if cnt == 0 {
			return s.Failf("sim: snapshot wheel slot at offset %d is empty", k)
		}
		if k > horizon {
			return s.Failf("sim: snapshot wheel offset %d beyond the retransmit horizon of %d cycles", k, horizon)
		}
		prev = int64(k)
		for j := 0; j < cnt; j++ {
			if s.Loading() {
				f := e.pool.Get()
				if err := flit.State(s, f, nodes); err != nil {
					return err
				}
				w.schedule(e.cycle, e.cycle+k, f)
			} else if err := flit.State(s, slot[j], nodes); err != nil {
				return err
			}
		}
	}
	return s.Err()
}

// state moves the injection deque front to back; loading refills an empty
// deque with flits drawn from the pool.
func (q *flitDeque) state(s *snapshot.Stream, pool *flit.Pool, nodes int) error {
	n := s.Len(q.n, 1<<24)
	for i := 0; i < n; i++ {
		if s.Loading() {
			q.pushBack(pool.Get())
		}
		if err := flit.State(s, q.buf[(q.head+i)&(len(q.buf)-1)], nodes); err != nil {
			return err
		}
	}
	return s.Err()
}

// state moves the queued packet specs front to back; loading refills an empty
// deque.
func (q *specDeque) state(s *snapshot.Stream, nodes int) error {
	n := s.Len(q.n, 1<<24)
	for i := 0; i < n; i++ {
		var p traffic.PacketSpec
		if !s.Loading() {
			p = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		if err := p.State(s, nodes); err != nil {
			return err
		}
		if s.Loading() {
			q.pushBack(p)
		}
	}
	return s.Err()
}
