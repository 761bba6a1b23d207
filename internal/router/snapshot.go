package router

import (
	"dxbar/internal/flit"
	"dxbar/internal/snapshot"
)

// state moves one buffered-baseline FIFO oldest-first, including each entry's
// absolute eligibility cycle (the pipeline-delay timestamp a restored run must
// honour exactly). Loading refills the emptied queue from slot 0 with flits
// drawn from the pool.
func (q *entryQueue) state(s *snapshot.Stream, pool *flit.Pool, nodes int) error {
	n := s.Len(q.count, fifoDepth)
	if s.Loading() {
		*q = entryQueue{count: n}
		for i := 0; i < n; i++ {
			q.entries[i].f = pool.Get()
		}
	}
	for i := 0; i < n; i++ {
		e := &q.entries[(q.headIdx+i)&(fifoDepth-1)]
		if err := flit.State(s, e.f, nodes); err != nil {
			return err
		}
		s.U64(&e.ready)
	}
	return s.Err()
}

// State moves the buffered baseline's persistent state: the input FIFO
// contents with eligibility timestamps, the split-input steering pointers,
// and both allocators' rotation pointers. The bank's derived state — the
// entries' request masks, the non-empty mask, the count — is not in the
// stream.
func (b *Buffered) State(s *snapshot.Stream, pool *flit.Pool, nodes int) error {
	s.Tag("BUFD")
	nq := int(b.bank.nq)
	for p := 0; p < flit.NumLinkPorts; p++ {
		if n := s.Len(nq, nq); n != nq {
			return s.Failf("router: snapshot FIFO bank width %d != configured %d", n, nq)
		}
		for i := p * nq; i < (p+1)*nq; i++ {
			if err := b.bank.q[i].state(s, pool, nodes); err != nil {
				return err
			}
		}
		nf := int(b.bank.next[p])
		snapshot.Int(s, &nf)
		if nf < 0 || nf >= nq {
			return s.Failf("router: snapshot FIFO steering pointer %d out of range", nf)
		}
		b.bank.next[p] = uint8(nf)
	}
	return b.allocState(s)
}

// allocState rebuilds the bank's derived state after a load, holds each
// input's FIFOs to the credits its upstream neighbour has spent on them
// (sim.Env.CheckHeld), then moves both allocators (the branchy reference
// and its bit-parallel twin both persist, so a restored run is bit-identical
// under either Config.ReferenceArbitration setting).
func (b *Buffered) allocState(s *snapshot.Stream) error {
	if s.Loading() {
		b.bank.rebuild(b.table, b.env.Node)
	}
	for p := flit.North; p <= flit.West; p++ {
		i := uint8(p) << (b.bank.nq - 1)
		n := b.bank.q[i].count
		if b.bank.nq == 2 {
			n += b.bank.q[i+1].count
		}
		if err := b.env.CheckHeld(s, p, n); err != nil {
			return err
		}
	}
	if err := b.alloc.State(s); err != nil {
		return err
	}
	return b.fast.State(s)
}

// State moves the AFC router's persistent state (the shared mode controller is
// engine-level shared state, moved once, not per router).
func (a *AFC) State(s *snapshot.Stream, pool *flit.Pool, nodes int) error {
	s.Tag("AFCR")
	for i := range a.buf.bank.q[:flit.NumLinkPorts] { // one FIFO per input
		if err := a.buf.bank.q[i].state(s, pool, nodes); err != nil {
			return err
		}
	}
	return a.buf.allocState(s)
}

// State moves the network-wide AFC mode controller: the mode state machine,
// the live flit census, and the decision window.
func (c *AFCController) State(s *snapshot.Stream) error {
	s.Tag("AFCC")
	netFlits, deflections, injections := c.netFlits.Load(), c.windowDeflections.Load(), c.windowInjections.Load()
	snapshot.Int(s, &c.mode)
	s.Bool(&c.draining)
	snapshot.Int(s, &c.next)
	snapshot.Int(s, &netFlits)
	s.U64(&c.windowStart)
	snapshot.Int(s, &deflections)
	snapshot.Int(s, &injections)
	s.U64(&c.lastTick)
	s.Bool(&c.started)
	s.U64(&c.ModeSwitches)
	if c.mode != afcModeBufferless && c.mode != afcModeBuffered {
		return s.Failf("router: snapshot AFC mode %d invalid", c.mode)
	}
	if c.next != afcModeBufferless && c.next != afcModeBuffered {
		return s.Failf("router: snapshot AFC next mode %d invalid", c.next)
	}
	if netFlits < 0 {
		return s.Failf("router: snapshot AFC flit census %d negative", netFlits)
	}
	c.netFlits.Store(netFlits)
	c.windowDeflections.Store(deflections)
	c.windowInjections.Store(injections)
	return s.Err()
}
