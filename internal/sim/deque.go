package sim

import (
	"dxbar/internal/flit"
	"dxbar/internal/traffic"
)

// flitDeque is a growable ring deque backing the per-node injection queue.
// Generation pushes at the back, retransmissions push at the front, routers
// pop the front — all allocation-free once the ring has grown to the queue's
// high-water mark (the old slice-based queue reallocated on every front
// push).
type flitDeque struct {
	buf  []*flit.Flit
	head int
	n    int
}

func (q *flitDeque) len() int { return q.n }

// front returns the oldest element without removing it (nil when empty).
func (q *flitDeque) front() *flit.Flit {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

func (q *flitDeque) pushBack(f *flit.Flit) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = f
	q.n++
}

func (q *flitDeque) pushFront(f *flit.Flit) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = f
	q.n++
}

func (q *flitDeque) popFront() *flit.Flit {
	f := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return f
}

// clear empties the deque, dropping references so flits can be collected or
// repooled (Engine.Reset).
func (q *flitDeque) clear() {
	for i := range q.buf {
		q.buf[i] = nil
	}
	q.head, q.n = 0, 0
}

// grow doubles the ring (capacity stays a power of two for mask indexing).
func (q *flitDeque) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 16
	}
	next := make([]*flit.Flit, size)
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = next
	q.head = 0
}

// specDeque is a growable ring of packet specs awaiting materialization.
// Generated packets are queued as compact specs and turned into pooled flits
// only when the injection deque runs low (Env.topUpInjection), so the live
// flit population is bounded by the in-network capacity plus a small slack —
// not by the injection backlog, which grows without bound above saturation.
type specDeque struct {
	buf  []traffic.PacketSpec
	head int
	n    int
	// flits is the total flit count across queued specs (injectionLen and
	// the engine's drain condition count unmaterialized flits too).
	flits int
}

func (q *specDeque) len() int { return q.n }

func (q *specDeque) pushBack(s traffic.PacketSpec) {
	if q.n == len(q.buf) {
		q.growSpec()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = s
	q.n++
	q.flits += int(s.NumFlits)
}

func (q *specDeque) popFront() traffic.PacketSpec {
	s := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.flits -= int(s.NumFlits)
	return s
}

func (q *specDeque) clear() {
	q.head, q.n, q.flits = 0, 0, 0
}

func (q *specDeque) growSpec() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 16
	}
	next := make([]traffic.PacketSpec, size)
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = next
	q.head = 0
}
