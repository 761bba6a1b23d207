package stats

import (
	"fmt"

	"dxbar/internal/snapshot"
)

// saveHistogram serializes the latency histogram sparsely: only non-zero
// buckets, as strictly ascending (index, count) pairs.
func saveHistogram(w *snapshot.Writer, h *Histogram) {
	nz := 0
	for _, c := range h.counts {
		if c != 0 {
			nz++
		}
	}
	w.U32(uint32(nz))
	for i, c := range h.counts {
		if c != 0 {
			w.U32(uint32(i))
			w.U64(c)
		}
	}
	w.U64(h.total)
	w.U64(h.max)
}

func loadHistogram(r *snapshot.Reader, h *Histogram) error {
	n := r.Len(histBuckets)
	if err := r.Err(); err != nil {
		return err
	}
	h.counts = [histBuckets]uint64{}
	prev := -1
	var sum uint64
	for i := 0; i < n; i++ {
		idx := int(r.U32())
		c := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if idx <= prev || idx >= histBuckets || c == 0 {
			return fmt.Errorf("stats: snapshot histogram buckets malformed")
		}
		prev = idx
		h.counts[idx] = c
		sum += c
	}
	h.total = r.U64()
	h.max = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if h.total != sum {
		return fmt.Errorf("stats: snapshot histogram total %d != bucket sum %d", h.total, sum)
	}
	return nil
}

// SaveState serializes the collector: the measurement window, the counter
// block in enum order (latencyMax, which is outside the block, keeps its place
// in the stream before hopSum), the per-node drop array, the latency
// histogram, and — when enabled — the time-series ring (normalized
// oldest-first) and the link-utilization matrix (sparse, non-zero cells only).
func (c *Collector) SaveState(w *snapshot.Writer) {
	w.Tag("STAT")
	w.U64(c.start)
	w.U64(c.end)
	for i, v := range c.n {
		if counter(i) == hopSum {
			w.U64(c.latencyMax)
		}
		w.U64(v)
	}
	w.U32(uint32(len(c.droppedByNode)))
	for _, v := range c.droppedByNode {
		w.U64(v)
	}
	saveHistogram(w, &c.latHist)

	w.Bool(c.ts != nil)
	if ts := c.ts; ts != nil {
		w.U64(ts.interval)
		w.U64(ts.next)
		w.U64(ts.lastGen)
		w.U64(ts.lastEject)
		w.U32(uint32(ts.size))
		for i := 0; i < ts.size; i++ {
			s := &ts.ring[(ts.head+i)%len(ts.ring)]
			w.U64(s.Cycle)
			w.U64(s.InjectedFlits)
			w.U64(s.EjectedFlits)
			w.Int(s.InFlightFlits)
			w.Int(s.QueuedFlits)
			w.Int(s.BufferedFlits)
		}
	}

	w.Bool(c.linkUse != nil)
	if c.linkUse != nil {
		nz := 0
		for _, row := range c.linkUse {
			for _, v := range row {
				if v != 0 {
					nz++
				}
			}
		}
		w.U32(uint32(nz))
		for n, row := range c.linkUse {
			for p, v := range row {
				if v != 0 {
					w.U32(uint32(n))
					w.U32(uint32(p))
					w.U64(v)
				}
			}
		}
	}
}

// LoadState restores a collector built with the same configuration (node
// count, window, sampling and utilization options). Structural mismatches —
// a snapshot with a time-series against a collector without one — are
// configuration drift and surface as errors.
func (c *Collector) LoadState(r *snapshot.Reader) error {
	r.Expect("STAT")
	c.start = r.U64()
	c.end = r.U64()
	for i := range c.n {
		if counter(i) == hopSum {
			c.latencyMax = r.U64()
		}
		c.n[i] = r.U64()
	}
	n := r.Len(len(c.droppedByNode))
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(c.droppedByNode) {
		return fmt.Errorf("stats: snapshot node count %d != configured %d", n, len(c.droppedByNode))
	}
	for i := 0; i < n; i++ {
		c.droppedByNode[i] = r.U64()
	}
	if err := loadHistogram(r, &c.latHist); err != nil {
		return err
	}

	hasTS := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasTS != (c.ts != nil) {
		return fmt.Errorf("stats: snapshot time-series presence mismatch")
	}
	if ts := c.ts; hasTS {
		ts.interval = r.U64()
		ts.next = r.U64()
		ts.lastGen = r.U64()
		ts.lastEject = r.U64()
		size := r.Len(len(ts.ring))
		if err := r.Err(); err != nil {
			return err
		}
		ts.head = 0
		ts.size = size
		for i := 0; i < size; i++ {
			s := &ts.ring[i]
			s.Cycle = r.U64()
			s.InjectedFlits = r.U64()
			s.EjectedFlits = r.U64()
			s.InFlightFlits = r.Int()
			s.QueuedFlits = r.Int()
			s.BufferedFlits = r.Int()
		}
	}

	hasUtil := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasUtil != (c.linkUse != nil) {
		return fmt.Errorf("stats: snapshot link-utilization presence mismatch")
	}
	if hasUtil {
		for _, row := range c.linkUse {
			for p := range row {
				row[p] = 0
			}
		}
		ports := 0
		if len(c.linkUse) > 0 {
			ports = len(c.linkUse[0])
		}
		nz := r.Len(len(c.linkUse) * ports)
		if err := r.Err(); err != nil {
			return err
		}
		prev := -1
		for i := 0; i < nz; i++ {
			node := int(r.U32())
			port := int(r.U32())
			v := r.U64()
			if err := r.Err(); err != nil {
				return err
			}
			if node >= len(c.linkUse) || port >= ports || v == 0 {
				return fmt.Errorf("stats: snapshot link-utilization cell out of range")
			}
			cell := node*ports + port
			if cell <= prev {
				return fmt.Errorf("stats: snapshot link-utilization cells not ascending")
			}
			prev = cell
			c.linkUse[node][port] = v
		}
	}
	return r.Err()
}
