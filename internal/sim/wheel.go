package sim

import "dxbar/internal/flit"

// eventWheel is a ring-buffer timing wheel for retransmit events, replacing
// the per-cycle map[uint64][]*flit.Flit the engine used to churn: slot
// cycle&mask holds the flits due at that cycle, and emptied slots keep their
// backing arrays, so steady-state scheduling and dispatch never allocate.
//
// The wheel spans [now, now+len) cycles; scheduling further out grows the
// wheel (a rare event — the only scheduler is the SCARAB NACK path, whose
// delay is bounded by the mesh diameter + 1).
type eventWheel struct {
	slots   [][]*flit.Flit
	mask    uint64
	pending int
}

// newEventWheel returns a wheel covering at least `size` future cycles
// (rounded up to a power of two).
func newEventWheel(size int) eventWheel {
	n := 1
	for n < size {
		n <<= 1
	}
	return eventWheel{slots: make([][]*flit.Flit, n), mask: uint64(n - 1)}
}

// schedule enqueues f for dispatch at cycle `at` (strictly greater than
// `now`). It grows the wheel when `at` lies beyond the current horizon.
func (w *eventWheel) schedule(now, at uint64, f *flit.Flit) {
	if at-now >= uint64(len(w.slots)) {
		w.grow(now, at)
	}
	idx := at & w.mask
	w.slots[idx] = append(w.slots[idx], f)
	w.pending++
}

// take returns the flits due at `cycle` in scheduling order and empties the
// slot for reuse. The returned slice is valid until the slot's cycle comes
// around again — callers consume it immediately.
func (w *eventWheel) take(cycle uint64) []*flit.Flit {
	if w.pending == 0 {
		return nil
	}
	idx := cycle & w.mask
	s := w.slots[idx]
	w.slots[idx] = s[:0]
	w.pending -= len(s)
	return s
}

// grow rebuilds the wheel large enough to reach `at` from `now`. A slot's
// due cycle is recoverable because the wheel spans exactly one period: slot
// i holds the unique cycle ≡ i (mod len) within [now, now+len).
func (w *eventWheel) grow(now, at uint64) {
	oldLen := uint64(len(w.slots))
	n := len(w.slots) * 2
	for uint64(n) <= at-now {
		n *= 2
	}
	next := eventWheel{slots: make([][]*flit.Flit, n), mask: uint64(n - 1)}
	for i, slot := range w.slots {
		if len(slot) == 0 {
			continue
		}
		due := now + ((uint64(i) - now) & (oldLen - 1))
		for _, f := range slot {
			next.schedule(now, due, f)
		}
	}
	*w = next
}

// wheelHorizon is the furthest ahead the engine's schedulers put a flit:
// SCARAB's NACK round trip, at most the mesh diameter + 1 cycles
// (Scarab.drop). A snapshot's wheel offsets are held to it.
func (e *Engine) wheelHorizon() uint64 { return uint64(e.mesh.Width + e.mesh.Height - 1) }

// reset empties every slot, keeping the backing arrays (Engine.Reset).
func (w *eventWheel) reset() {
	for i := range w.slots {
		w.slots[i] = w.slots[i][:0]
	}
	w.pending = 0
}
