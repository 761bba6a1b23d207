package router

import (
	"math/bits"

	"dxbar/internal/flit"
	"dxbar/internal/routing"
)

// fifoDepth is the per-FIFO capacity (4 flits, paper §III.A). The ring index
// wraps with a mask, so it must be a power of two.
const fifoDepth = 4

var _ = [1]struct{}{}[fifoDepth&(fifoDepth-1)] // compile-time: power of two

// bufEntry is a buffered flit plus what its buffer write computed for it: the
// cycle it becomes eligible for switch allocation (the extra cycle models the
// baseline's RC pipeline stage) and the RC result itself — want, the output
// ports it requests at this router. The routing table is immutable and faults
// live inside crossbars, never in links, so want cannot go stale while the
// flit waits; it is derived state, never serialized (inputBank.rebuild).
type bufEntry struct {
	f     *flit.Flit
	ready uint64
	want  uint8
}

// entryQueue is a small fixed-capacity ring FIFO of bufEntry (the baseline
// needs the eligibility timestamp, which buffer.FIFO deliberately does not
// carry). Capacity is fifoDepth: credit flow control guarantees a FIFO never
// holds more (inputBank.write checks), so the ring allocates nothing.
type entryQueue struct {
	entries [fifoDepth]bufEntry
	headIdx int
	count   int
}

func (q *entryQueue) push(e bufEntry) {
	q.entries[(q.headIdx+q.count)&(fifoDepth-1)] = e
	q.count++
}
func (q *entryQueue) head() *bufEntry { return &q.entries[q.headIdx] }
func (q *entryQueue) pop() *flit.Flit {
	f := q.entries[q.headIdx].f
	q.entries[q.headIdx] = bufEntry{}
	q.headIdx = (q.headIdx + 1) & (fifoDepth - 1)
	q.count--
	return f
}

// inputBank is the input stage of the FIFO-input routers (Buffered 4/8, AFC's
// buffered mode): nq serial FIFOs per link input, held by value. Its buffer
// write is also the RC stage — the entry carries its output-request mask from
// then on — so building the allocator's request matrix reads one byte per
// eligible head instead of recomputing routes every waiting cycle.
//
// Serialized: the queue contents and next. Derived, rebuilt by rebuild after
// a load: every entry's want, nonEmpty and count. alt is per-cycle scratch.
type inputBank struct {
	// q[p<<(nq-1) | k] is FIFO k of input p.
	q  [2 * flit.NumLinkPorts]entryQueue
	nq uint8 // FIFOs per input: 1, or 2 for the split (Buffered 8) design
	// next is the FIFO of a split input the next arrival is steered to: the
	// split design alternates, and falls back to the other FIFO only when
	// the preferred one is full. Always 0 for nq == 1.
	next [flit.NumLinkPorts]uint8
	// nonEmpty has bit i set while q[i] holds a flit; count is the total held.
	nonEmpty uint8
	count    int
	// alt[p] marks the outputs that requests asked for on behalf of a split
	// input's second FIFO, so pop knows which head a grant belongs to.
	alt [flit.NumLinkPorts]uint8
}

// write is the BW stage for an arrival on input p: steer it to a FIFO and
// store it with its eligibility cycle and RC result. It returns the FIFO's
// new depth, or -1 when every FIFO of the input is full (a credit violation).
func (b *inputBank) write(p flit.Port, e bufEntry) int {
	shift := b.nq - 1
	i := uint8(p)<<shift | b.next[p]
	if b.q[i].count == fifoDepth {
		i ^= shift
		if b.q[i].count == fifoDepth {
			return -1
		}
	}
	b.next[p] = (i ^ 1) & shift
	b.q[i].push(e)
	b.nonEmpty |= 1 << i
	b.count++
	return b.q[i].count
}

// requests is the input half of the SA stage: every eligible FIFO head asks
// for the sendable outputs of its want mask, accumulated into req[input].
// When the two heads of a split input want the same output, the older head
// gets to ask for it.
func (b *inputBank) requests(cycle uint64, sendable uint8, req *[flit.NumPorts]uint64) {
	b.alt = [flit.NumLinkPorts]uint8{}
	shift := b.nq - 1
	for m := b.nonEmpty; m != 0; m &= m - 1 {
		i := uint8(bits.TrailingZeros8(m))
		h := b.q[i].head()
		if h.ready > cycle {
			continue
		}
		w := h.want & sendable
		p := i >> shift
		if i&shift != 0 { // second FIFO: the first one's requests are already in
			if both := w & uint8(req[p]); both != 0 && !h.f.Older(b.q[i-1].head().f) {
				b.alt[p] = w &^ both
			} else {
				b.alt[p] = w
			}
		}
		req[p] |= uint64(w)
	}
}

// pop removes and returns the head that was granted output o on input p.
func (b *inputBank) pop(p flit.Port, o int) *flit.Flit {
	i := uint8(p)<<(b.nq-1) | b.alt[p]>>uint(o)&1
	q := &b.q[i]
	f := q.pop()
	if q.count == 0 {
		b.nonEmpty &^= 1 << i
	}
	b.count--
	return f
}

// rebuild recomputes the derived state from the queue contents (after a
// snapshot load): each entry's want at this node, nonEmpty and count.
func (b *inputBank) rebuild(t *routing.Table, node int) {
	b.nonEmpty, b.count = 0, 0
	for i := range b.q {
		q := &b.q[i]
		for k := range q.entries {
			if e := &q.entries[k]; e.f != nil {
				e.want = t.ProductiveMaskAt(node, int(e.f.Dst))
			}
		}
		if q.count > 0 {
			b.nonEmpty |= 1 << uint(i)
			b.count += q.count
		}
	}
}
