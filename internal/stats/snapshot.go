package stats

import "dxbar/internal/snapshot"

// state moves the latency histogram sparsely: only non-zero buckets, as
// strictly ascending (index, count) pairs.
func (h *Histogram) state(s *snapshot.Stream) error {
	nz := 0
	for _, c := range h.counts {
		if c != 0 {
			nz++
		}
	}
	n := s.Len(nz, histBuckets)
	if s.Loading() {
		h.counts = [histBuckets]uint64{}
	}
	prev, sum := -1, uint64(0)
	for i := 0; i < n; i++ {
		var idx uint32
		var c uint64
		if !s.Loading() { // the next non-zero bucket
			for idx = uint32(prev + 1); h.counts[idx] == 0; idx++ {
			}
			c = h.counts[idx]
		}
		s.U32(&idx)
		s.U64(&c)
		if int(idx) <= prev || idx >= histBuckets || c == 0 {
			return s.Failf("stats: snapshot histogram buckets malformed")
		}
		prev = int(idx)
		h.counts[idx] = c
		sum += c
	}
	s.U64(&h.total)
	s.U64(&h.max)
	if h.total != sum {
		return s.Failf("stats: snapshot histogram total %d != bucket sum %d", h.total, sum)
	}
	return s.Err()
}

// State moves the collector: the measurement window, the counter block in
// enum order (latencyMax, which is outside the block, keeps its place in the
// stream before hopSum), the per-node drop array, the latency histogram, and —
// when enabled — the time-series ring (normalized oldest-first) and the
// link-utilization matrix (sparse, non-zero cells only). It restores into a
// collector built with the same configuration (node count, window, sampling
// and utilization options): structural mismatches — a snapshot with a time
// series against a collector without one — are configuration drift and
// surface as errors.
func (c *Collector) State(s *snapshot.Stream) error {
	s.Tag("STAT")
	s.U64(&c.start)
	s.U64(&c.end)
	for i := range c.n {
		if counter(i) == hopSum {
			s.U64(&c.latencyMax)
		}
		s.U64(&c.n[i])
	}
	if n := s.Len(len(c.droppedByNode), len(c.droppedByNode)); n != len(c.droppedByNode) {
		return s.Failf("stats: snapshot node count %d != configured %d", n, len(c.droppedByNode))
	}
	for i := range c.droppedByNode {
		s.U64(&c.droppedByNode[i])
	}
	if err := c.latHist.state(s); err != nil {
		return err
	}

	hasTS := c.ts != nil
	if s.Bool(&hasTS); hasTS != (c.ts != nil) {
		return s.Failf("stats: snapshot time-series presence mismatch")
	}
	if ts := c.ts; hasTS {
		s.U64(&ts.interval)
		s.U64(&ts.next)
		s.U64(&ts.lastGen)
		s.U64(&ts.lastEject)
		size := s.Len(ts.size, len(ts.ring))
		if s.Loading() { // refill the ring from slot 0
			ts.head, ts.size = 0, size
		}
		for i := 0; i < size; i++ {
			x := &ts.ring[(ts.head+i)%len(ts.ring)]
			s.U64(&x.Cycle)
			s.U64(&x.InjectedFlits)
			s.U64(&x.EjectedFlits)
			snapshot.Int(s, &x.InFlightFlits)
			snapshot.Int(s, &x.QueuedFlits)
			snapshot.Int(s, &x.BufferedFlits)
		}
	}

	hasUtil := c.linkUse != nil
	if s.Bool(&hasUtil); hasUtil != (c.linkUse != nil) {
		return s.Failf("stats: snapshot link-utilization presence mismatch")
	}
	if hasUtil {
		return c.utilState(s)
	}
	return s.Err()
}

// utilState moves the link-utilization matrix sparsely: only non-zero cells,
// as (node, port, count) triples in strictly ascending cell order.
func (c *Collector) utilState(s *snapshot.Stream) error {
	ports, nz := 0, 0
	if len(c.linkUse) > 0 {
		ports = len(c.linkUse[0])
	}
	for _, row := range c.linkUse {
		for _, v := range row {
			if v != 0 {
				nz++
			}
		}
		if s.Loading() {
			clear(row)
		}
	}
	n := s.Len(nz, len(c.linkUse)*ports)
	prev := -1
	for i := 0; i < n; i++ {
		var node, port uint32
		var v uint64
		if !s.Loading() { // the next non-zero cell
			cell := prev + 1
			for c.linkUse[cell/ports][cell%ports] == 0 {
				cell++
			}
			node, port = uint32(cell/ports), uint32(cell%ports)
			v = c.linkUse[node][port]
		}
		s.U32(&node)
		s.U32(&port)
		s.U64(&v)
		if int(node) >= len(c.linkUse) || int(port) >= ports || v == 0 {
			return s.Failf("stats: snapshot link-utilization cell out of range")
		}
		cell := int(node)*ports + int(port)
		if cell <= prev {
			return s.Failf("stats: snapshot link-utilization cells not ascending")
		}
		prev = cell
		c.linkUse[node][port] = v
	}
	return s.Err()
}
