package buffer

import (
	"dxbar/internal/flit"
	"dxbar/internal/snapshot"
)

// State moves the queue oldest-first: the count, held to the depth, then each
// flit, followed by its eligibility cycle when timed. Want and Route are not
// in the stream; the caller rebuilds them from its routing table. The ring
// phase is not captured either: loading refills the emptied ring from slot 0
// with flits drawn from the pool, which is behaviourally identical and keeps
// the byte stream canonical regardless of how the ring happened to be rotated.
func (q *Queue) State(s *snapshot.Stream, pool *flit.Pool, nodes int, timed bool) error {
	n := s.Len(q.count, q.depth)
	if s.Loading() {
		clear(q.ring)
		q.head, q.count = 0, n
		for i := 0; i < n; i++ {
			q.ring[i].F = pool.Get()
		}
	}
	for i := 0; i < n; i++ {
		e := q.At(i)
		if err := flit.State(s, e.F, nodes); err != nil {
			return err
		}
		if timed {
			s.U64(&e.Ready)
		}
	}
	return s.Err()
}

// State moves one credit counter — the available count, the pending sum and
// the delay pipeline slots — validating the flow-control invariants on the
// way: the pipeline length matches the configured delay, counts are
// non-negative, and available + pending never exceeds capacity.
func (c *Credits) State(s *snapshot.Stream) error {
	snapshot.Int(s, &c.available)
	snapshot.Int(s, &c.pendingCnt)
	// A delay-1 counter has no pipeline array: its one slot is pendingCnt,
	// written from, and loaded into, a copy of it.
	slots := c.inflight
	if slots == nil {
		slots = []int{c.pendingCnt}
	}
	if n := s.Len(len(slots), len(slots)); n != len(slots) {
		return s.Failf("buffer: snapshot credit delay %d != configured %d", n, len(slots))
	}
	sum := 0
	for i := range slots {
		snapshot.Int(s, &slots[i])
		if v := slots[i]; v < 0 || v > c.max {
			return s.Failf("buffer: snapshot credit pipeline slot out of range")
		}
		sum += slots[i]
	}
	if c.available < 0 || c.pendingCnt != sum || c.available > c.max-sum {
		return s.Failf("buffer: snapshot credits violate flow control (avail=%d pending=%d max=%d)", c.available, c.pendingCnt, c.max)
	}
	return s.Err()
}
