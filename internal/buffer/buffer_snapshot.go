package buffer

import (
	"dxbar/internal/flit"
	"dxbar/internal/snapshot"
)

// State moves the FIFO contents oldest-first. The ring phase (head position)
// is not captured: loading refills an empty (fresh or Reset) FIFO from slot 0
// with flits drawn from the pool, which is behaviourally identical and keeps
// the byte stream canonical regardless of how the ring happened to be rotated.
func (f *FIFO) State(s *snapshot.Stream, pool *flit.Pool, nodes int) error {
	n := s.Len(f.count, len(f.slots))
	if s.Loading() {
		clear(f.slots)
		f.head, f.count = 0, n
		for i := 0; i < n; i++ {
			f.slots[i] = pool.Get()
		}
	}
	for i := 0; i < n; i++ {
		if err := flit.State(s, f.slots[(f.head+i)%len(f.slots)], nodes); err != nil {
			return err
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
	if n := s.Len(len(c.inflight), len(c.inflight)); n != len(c.inflight) {
		return s.Failf("buffer: snapshot credit delay %d != configured %d", n, len(c.inflight))
	}
	sum := 0
	for i := range c.inflight {
		snapshot.Int(s, &c.inflight[i])
		if v := c.inflight[i]; v < 0 || v > c.max {
			return s.Failf("buffer: snapshot credit pipeline slot out of range")
		}
		sum += c.inflight[i]
	}
	if c.available < 0 || c.pendingCnt != sum || c.available > c.max-sum {
		return s.Failf("buffer: snapshot credits violate flow control (avail=%d pending=%d max=%d)", c.available, c.pendingCnt, c.max)
	}
	return s.Err()
}
