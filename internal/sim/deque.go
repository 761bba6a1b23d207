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

// queuedSpec is a generated packet waiting in its node's backlog: a
// traffic.PacketSpec without Src, which is the node whose queue holds it (the
// Source contract) — 24 bytes where the spec is 48.
type queuedSpec struct {
	ID, Cycle uint64
	Dst       int32
	NumFlits  uint16
	Kind      flit.Kind
}

func queued(s *traffic.PacketSpec) queuedSpec {
	return queuedSpec{ID: s.ID, Cycle: s.Cycle, Dst: int32(s.Dst), NumFlits: s.NumFlits, Kind: s.Kind}
}

// spec rebuilds the packet spec of a queued spec at node src.
func (q *queuedSpec) spec(src int) traffic.PacketSpec {
	return traffic.PacketSpec{ID: q.ID, Src: src, Dst: int(q.Dst), NumFlits: q.NumFlits, Kind: q.Kind, Cycle: q.Cycle}
}

// specChunkLen is the number of queued specs a chunk holds, and specChunkSlab
// the number of chunks a tile's free list grows by when it runs dry.
const (
	specChunkLen  = 32
	specChunkSlab = 64
)

// specChunk is one link of a node's backlog list; next shares a cache line
// with the first specs, which are what a push to a fresh chunk writes.
type specChunk struct {
	next  *specChunk
	specs [specChunkLen]queuedSpec
}

// chunkList is a tile's free list of spec chunks: the nodes' backlogs take
// chunks from it as they grow and give them back as they drain, so the
// backlog costs what it holds, not the high-water mark of every node's own
// storage. Chunks come from slabs that are never freed (Engine.Reset keeps
// the list): one chunk per node at construction, then specChunkSlab at a
// time. Only the tile's owner touches it — the coordinator pushing generated
// packets before the tiles are released, the tile's worker popping them.
type chunkList struct {
	free *specChunk
	// held counts the chunks carved for the tile, in use or free.
	held int
}

// carve adds a slab of n chunks to the list, first chunk first.
func (l *chunkList) carve(n int) {
	slab := make([]specChunk, n)
	for i := n - 1; i >= 0; i-- {
		l.put(&slab[i])
	}
	l.held += n
}

func (l *chunkList) get() *specChunk {
	if l.free == nil {
		l.carve(specChunkSlab)
	}
	c := l.free
	l.free, c.next = c.next, nil
	return c
}

func (l *chunkList) put(c *specChunk) {
	c.next = l.free
	l.free = c
}

// specQueue is a node's backlog of packet specs awaiting materialization: a
// linked list of chunks from the tile's chunkList. A drained queue keeps its
// last chunk, so a backlog that stays within one chunk — every node's, below
// saturation — never touches the list. Generated packets are queued as
// compact specs and turned into pooled flits only when the injection deque
// runs low (Env.topUpInjection), so the live flit population is bounded by the
// in-network capacity plus a small slack — not by the injection backlog, which
// grows without bound above saturation.
type specQueue struct {
	// head.specs[lo] is the front; tail.specs[hi] the next free slot.
	head, tail *specChunk
	lo, hi     int
	n          int
	// flits is the total flit count across queued specs (injectionLen and
	// the engine's drain condition count unmaterialized flits too).
	flits int
}

func (q *specQueue) len() int { return q.n }

func (q *specQueue) pushBack(l *chunkList, s queuedSpec) {
	switch {
	case q.tail == nil:
		q.head = l.get()
		q.tail = q.head
	case q.hi == specChunkLen:
		c := l.get()
		q.tail.next, q.tail, q.hi = c, c, 0
	}
	q.tail.specs[q.hi] = s
	q.hi++
	q.n++
	q.flits += int(s.NumFlits)
}

// popFront removes the front spec, giving its chunk back to l once the chunk
// is spent and another follows it.
func (q *specQueue) popFront(l *chunkList) queuedSpec {
	c := q.head
	s := c.specs[q.lo]
	q.lo++
	q.n--
	q.flits -= int(s.NumFlits)
	switch {
	case q.n == 0: // c is the tail too: the next push starts it over
		q.lo, q.hi = 0, 0
	case q.lo == specChunkLen:
		q.head, q.lo = c.next, 0
		l.put(c)
	}
	return s
}

// clear empties the queue, giving every chunk back to l.
func (q *specQueue) clear(l *chunkList) {
	for c := q.head; c != nil; {
		next := c.next
		l.put(c)
		c = next
	}
	*q = specQueue{}
}
