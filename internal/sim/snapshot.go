package sim

import (
	"fmt"
	"io"
	"math/bits"

	"dxbar/internal/diag"
	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/snapshot"
	"dxbar/internal/traffic"
)

// RouterState is implemented by router designs with persistent cross-cycle
// state (buffers, steering pointers, arbiter rotations, event latches).
// Designs whose routers are pure functions of their latched inputs —
// Flit-Bless, SCARAB — simply don't implement it and serialize as absent.
type RouterState interface {
	SaveState(w *snapshot.Writer)
	LoadState(r *snapshot.Reader, pool *flit.Pool, nodes int) error
}

// SharedState is network-wide design state owned by no single node (the AFC
// mode controller). Routers register theirs through Env.RegisterShared at
// construction; the engine serializes each exactly once, in registration
// order — which is node order, hence deterministic.
type SharedState interface {
	SaveState(w *snapshot.Writer)
	LoadState(r *snapshot.Reader) error
}

// sourceState is implemented by traffic sources whose generation stream
// depends on mutable state (the Bernoulli injector's RNG position and packet
// ID counter). A source that doesn't implement it is assumed stateless.
type sourceState interface {
	SaveState(w *snapshot.Writer)
	LoadState(r *snapshot.Reader) error
}

// SaveState implements sourceState by delegating to the wrapped injector.
func (s *SourceAdapter) SaveState(w *snapshot.Writer) { s.B.SaveState(w) }

// LoadState implements sourceState by delegating to the wrapped injector.
func (s *SourceAdapter) LoadState(r *snapshot.Reader) error { return s.B.LoadState(r) }

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

// linkMaskLimit bounds every port bitmask in the stream: InMask, linkMask,
// blockedMask and creditTick only ever carry cardinal-port bits.
const linkMaskLimit = 1 << flit.NumLinkPorts

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
	w := snapshot.NewWriter(out)
	nodes := len(e.envs)

	w.Tag("ENGW")
	w.U64(e.cycle)
	w.U64(e.retransmits)
	w.Int(e.bufferDepth)
	w.Int(e.creditDelay)
	w.Int(nodes)

	w.Tag("SRC ")
	if ss, ok := e.source.(sourceState); ok {
		w.Bool(true)
		ss.SaveState(w)
	} else {
		w.Bool(false)
	}

	w.Tag("CRED")
	for i := range e.creditSlab {
		e.creditSlab[i].SaveState(w)
	}

	w.Tag("ENVS")
	for _, env := range e.envs {
		w.U8(env.InMask)
		for b := env.InMask; b != 0; b &= b - 1 {
			flit.Save(w, env.In[bits.TrailingZeros8(b)])
		}
		w.U8(env.blockedMask)
		w.U8(env.tile.creditTick[env.slot])
		w.U32(uint32(env.injection.len()))
		for i := 0; i < env.injection.len(); i++ {
			flit.Save(w, env.injection.buf[(env.injection.head+i)&(len(env.injection.buf)-1)])
		}
		w.U32(uint32(env.pendingSpecs.len()))
		for i := 0; i < env.pendingSpecs.len(); i++ {
			traffic.SaveSpec(w, env.pendingSpecs.buf[(env.pendingSpecs.head+i)&(len(env.pendingSpecs.buf)-1)])
		}
	}

	w.Tag("LINK")
	for u, env := range e.envs {
		mask := env.tile.linkMask[env.slot]
		w.U8(mask)
		for b := mask; b != 0; b &= b - 1 {
			flit.Save(w, e.linkStage[u][bits.TrailingZeros8(b)])
		}
	}

	// The wheel is stored as (offset, flits) pairs in ascending offset order —
	// offset k means due at cycle+k — so the encoding is independent of the
	// wheel's current capacity and head position.
	w.Tag("WHEL")
	nonEmpty := 0
	for k := 0; k < len(e.wheel.slots); k++ {
		if len(e.wheel.slots[(e.cycle+uint64(k))&e.wheel.mask]) > 0 {
			nonEmpty++
		}
	}
	w.U32(uint32(nonEmpty))
	for k := 0; k < len(e.wheel.slots); k++ {
		slot := e.wheel.slots[(e.cycle+uint64(k))&e.wheel.mask]
		if len(slot) == 0 {
			continue
		}
		w.U64(uint64(k))
		w.U32(uint32(len(slot)))
		for _, f := range slot {
			flit.Save(w, f)
		}
	}

	w.Tag("RASM")
	for _, ra := range e.reasm {
		ra.SaveState(w)
	}

	w.Tag("RTRS")
	for _, rt := range e.routers {
		if rs, ok := rt.(RouterState); ok {
			w.Bool(true)
			rs.SaveState(w)
		} else {
			w.Bool(false)
		}
	}

	w.Tag("SHST")
	w.U32(uint32(len(e.shared)))
	for _, s := range e.shared {
		s.SaveState(w)
	}

	e.coll.SaveState(w)
	e.meter.SaveState(w)

	w.Tag("TRCE")
	if e.rec != nil {
		w.Bool(true)
		e.rec.SaveState(w)
	} else {
		w.Bool(false)
	}

	w.Tag("MONI")
	if e.mon != nil {
		w.Bool(true)
		e.mon.SaveState(w)
	} else {
		w.Bool(false)
	}

	w.Tag("DONE")
	return w.Close()
}

// Restore overwrites this engine's state from a Snapshot stream. The engine
// must be freshly built (New) or freshly Reset — restore assumes every queue,
// latch and accumulator is empty, exactly the state a failed restore leaves
// untouched — and must have the network shape the snapshot was taken from
// (mesh size, buffer depth, credit delay, router design); observation-layer
// differences — tracing on or off, shard count, diagnostics — are allowed,
// because they never influence results. On error the engine must be discarded
// or Reset before use.
func (e *Engine) Restore(data []byte) error { return e.loadState(data) }

func (e *Engine) loadState(data []byte) error {
	r, err := snapshot.NewReader(data)
	if err != nil {
		return err
	}
	nodes := len(e.envs)

	r.Expect("ENGW")
	cycle := r.U64()
	retransmits := r.U64()
	bufferDepth := r.Int()
	creditDelay := r.Int()
	snapNodes := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if snapNodes != nodes {
		return fmt.Errorf("sim: snapshot has %d nodes, engine has %d", snapNodes, nodes)
	}
	if bufferDepth != e.bufferDepth || creditDelay != e.creditDelay {
		return fmt.Errorf("sim: snapshot BufferDepth=%d CreditDelay=%d, engine has %d, %d",
			bufferDepth, creditDelay, e.bufferDepth, e.creditDelay)
	}
	e.cycle = cycle
	e.retransmits = retransmits

	r.Expect("SRC ")
	hasSrc := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	ss, ok := e.source.(sourceState)
	if hasSrc != ok {
		return fmt.Errorf("sim: snapshot source-state presence %v, engine source %v", hasSrc, ok)
	}
	if hasSrc {
		if err := ss.LoadState(r); err != nil {
			return err
		}
	}

	r.Expect("CRED")
	for i := range e.creditSlab {
		if err := e.creditSlab[i].LoadState(r); err != nil {
			return err
		}
	}

	r.Expect("ENVS")
	for _, env := range e.envs {
		mask := r.U8()
		if r.Err() == nil && uint(mask) >= linkMaskLimit {
			return fmt.Errorf("sim: snapshot input mask %#x out of range at node %d", mask, env.Node)
		}
		for b := mask; b != 0; b &= b - 1 {
			p := bits.TrailingZeros8(b)
			f := e.pool.Get()
			if err := flit.Load(r, f, nodes); err != nil {
				return err
			}
			env.In[p] = f
		}
		env.InMask = mask
		blocked := r.U8()
		tick := r.U8()
		if r.Err() == nil && (uint(blocked) >= linkMaskLimit || uint(tick) >= linkMaskLimit) {
			return fmt.Errorf("sim: snapshot credit masks out of range at node %d", env.Node)
		}
		env.blockedMask = blocked
		env.tile.creditTick[env.slot] = tick
		ninj := r.Len(1 << 24)
		if err := r.Err(); err != nil {
			return err
		}
		for i := 0; i < ninj; i++ {
			f := e.pool.Get()
			if err := flit.Load(r, f, nodes); err != nil {
				return err
			}
			env.injection.pushBack(f)
		}
		nspec := r.Len(1 << 24)
		if err := r.Err(); err != nil {
			return err
		}
		for i := 0; i < nspec; i++ {
			spec, err := traffic.LoadSpec(r, nodes)
			if err != nil {
				return err
			}
			env.pendingSpecs.pushBack(spec)
		}
	}

	r.Expect("LINK")
	for u, env := range e.envs {
		mask := r.U8()
		if r.Err() == nil && uint(mask) >= linkMaskLimit {
			return fmt.Errorf("sim: snapshot link mask %#x out of range at node %d", mask, u)
		}
		for b := mask; b != 0; b &= b - 1 {
			p := bits.TrailingZeros8(b)
			f := e.pool.Get()
			if err := flit.Load(r, f, nodes); err != nil {
				return err
			}
			e.linkStage[u][p] = f
		}
		env.tile.linkMask[env.slot] = mask
	}
	// The awake flags and the inflight sets are derived state and not in the
	// stream: every router steps once after a restore and reports its
	// quiescence afresh.
	e.deriveSets()

	r.Expect("WHEL")
	nslots := r.Len(1 << 20)
	if err := r.Err(); err != nil {
		return err
	}
	prevOffset := int64(-1)
	for s := 0; s < nslots; s++ {
		k := r.U64()
		cnt := r.Len(1 << 20)
		if err := r.Err(); err != nil {
			return err
		}
		if int64(k) <= prevOffset {
			return fmt.Errorf("sim: snapshot wheel offsets not ascending (%d after %d)", k, prevOffset)
		}
		prevOffset = int64(k)
		if cnt == 0 {
			return fmt.Errorf("sim: snapshot wheel slot at offset %d is empty", k)
		}
		for i := 0; i < cnt; i++ {
			f := e.pool.Get()
			if err := flit.Load(r, f, nodes); err != nil {
				return err
			}
			e.wheel.schedule(e.cycle, e.cycle+k, f)
		}
	}

	r.Expect("RASM")
	for _, ra := range e.reasm {
		if err := ra.LoadState(r, nodes); err != nil {
			return err
		}
	}

	r.Expect("RTRS")
	for i, rt := range e.routers {
		has := r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		rs, stateful := rt.(RouterState)
		if has != stateful {
			return fmt.Errorf("sim: snapshot router-state presence %v at node %d, engine router %v (different design?)", has, i, stateful)
		}
		if has {
			if err := rs.LoadState(r, e.pool, nodes); err != nil {
				return err
			}
		}
	}

	r.Expect("SHST")
	nsh := r.Len(1 << 16)
	if err := r.Err(); err != nil {
		return err
	}
	if nsh != len(e.shared) {
		return fmt.Errorf("sim: snapshot has %d shared states, engine has %d", nsh, len(e.shared))
	}
	for _, s := range e.shared {
		if err := s.LoadState(r); err != nil {
			return err
		}
	}

	if err := e.coll.LoadState(r); err != nil {
		return err
	}
	if err := e.meter.LoadState(r); err != nil {
		return err
	}

	r.Expect("TRCE")
	hasRec := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasRec {
		// A nil destination decodes and discards — restoring with tracing off
		// (or rewinding with a different trace config) is legal.
		if err := events.LoadState(r, e.rec); err != nil {
			return err
		}
	}

	r.Expect("MONI")
	hasMon := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasMon {
		if err := diag.LoadState(r, e.mon); err != nil {
			return err
		}
	}

	r.Expect("DONE")
	return r.Close()
}
