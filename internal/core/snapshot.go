package core

import (
	"dxbar/internal/buffer"
	"dxbar/internal/flit"
	"dxbar/internal/sim"
	"dxbar/internal/snapshot"
)

// What the paper-core routers persist across cycles — and what they don't.
// Both crossbar fabrics are Reset and re-faulted from the detector at the top
// of every Step, so crossbar kill state is re-derived on the first post-
// restore cycle and never serialized; the detectors themselves are pure
// functions of (fault plan, cycle). What survives a cycle boundary is the
// buffer contents, the fairness counter, and the one-shot event latches that
// keep the flight recorder from re-reporting fault transitions.

// buffersState moves the per-input FIFOs, each held to the credits its
// upstream neighbour has spent on it (sim.Env.CheckHeld).
func buffersState(s *snapshot.Stream, env *sim.Env, buffers []*buffer.FIFO, pool *flit.Pool, nodes int) error {
	for p, b := range buffers {
		if err := b.State(s, pool, nodes); err != nil {
			return err
		}
		if err := env.CheckHeld(s, flit.Port(p), b.Len()); err != nil {
			return err
		}
	}
	return nil
}

func (f *fairness) state(s *snapshot.Stream) {
	snapshot.Int(s, &f.count)
	s.U64(&f.flips)
}

// State moves the DXbar router's persistent state. Loading re-derives the
// occupied-buffer bitmask from the restored FIFOs rather than trusting the
// stream.
func (d *DXbar) State(s *snapshot.Stream, pool *flit.Pool, nodes int) error {
	s.Tag("DXBR")
	if err := buffersState(s, d.env, d.buffers[:], pool, nodes); err != nil {
		return err
	}
	for p, b := range d.buffers {
		if s.Loading() && b.Len() > 0 {
			d.bufMask |= 1 << uint(p)
		}
	}
	d.fair.state(s)
	s.Bool(&d.manifestSeen)
	s.Bool(&d.detectedSeen)
	return s.Err()
}

// State moves the unified router's persistent state.
func (u *Unified) State(s *snapshot.Stream, pool *flit.Pool, nodes int) error {
	s.Tag("UNIF")
	if err := buffersState(s, u.env, u.buffers[:], pool, nodes); err != nil {
		return err
	}
	u.fair.state(s)
	// The allocator's arbitration is age-based (stateless between cycles);
	// only its swap counter persists.
	s.U64(&u.alloc.swaps)
	s.Bool(&u.manifestSeen)
	s.U64(&u.lastSwaps)
	return s.Err()
}
