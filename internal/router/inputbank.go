package router

import (
	"math/bits"

	"dxbar/internal/buffer"
	"dxbar/internal/core"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
)

// inputBank is the input stage of the FIFO-input routers (Buffered 4/8, AFC's
// buffered mode): nq serial FIFOs per link input, held by value. Its buffer
// write is also the RC stage — the entry carries its output-request mask from
// then on — so building the allocator's request matrix reads one byte per
// eligible head instead of recomputing routes every waiting cycle.
//
// Serialized: the queue contents and next. Derived, rebuilt by rebuild after
// a load: every entry's route and nonEmpty. alt is per-cycle scratch.
type inputBank struct {
	// q[p<<(nq-1) | k] is FIFO k of input p.
	q  [2 * flit.NumLinkPorts]buffer.Queue
	nq uint8 // FIFOs per input: 1, or 2 for the split (Buffered 8) design
	// next is the FIFO of a split input the next arrival is steered to: the
	// split design alternates, and falls back to the other FIFO only when
	// the preferred one is full. Always 0 for nq == 1.
	next [flit.NumLinkPorts]uint8
	// nonEmpty has bit i set while q[i] holds a flit.
	nonEmpty uint8
	// alt[p] marks the outputs that requests asked for on behalf of a split
	// input's second FIFO, so pop knows which head a grant belongs to.
	alt [flit.NumLinkPorts]uint8
}

// init makes b an empty bank of nq FIFOs per link input in place, carving
// the FIFOs from store (sim.Env.QueueStore: room for NumLinkPorts queues of
// the credited depth — 4, or 8 for the split design's two 4-flit FIFOs).
func (b *inputBank) init(nq uint8, store []buffer.Entry) {
	*b = inputBank{nq: nq}
	buffer.InitQueues(b.q[:int(nq)*flit.NumLinkPorts], core.BufferDepth, store) // DXbar's 4 flits (§III.A)
}

// write is the BW stage for an arrival on input p: steer it to a FIFO and
// store it with its eligibility cycle and RC result. It returns the FIFO's
// new depth, or -1 when every FIFO of the input is full (a credit violation).
func (b *inputBank) write(p flit.Port, e buffer.Entry) int {
	shift := b.nq - 1
	i := uint8(p)<<shift | b.next[p]
	if b.q[i].Full() {
		i ^= shift
		if b.q[i].Full() {
			return -1
		}
	}
	b.next[p] = (i ^ 1) & shift
	b.nonEmpty |= 1 << i
	return b.q[i].Push(e)
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
		h := b.q[i].At(0)
		if h.Ready > cycle {
			continue
		}
		w := h.Want & sendable
		p := i >> shift
		if i&shift != 0 { // second FIFO: the first one's requests are already in
			if both := w & uint8(req[p]); both != 0 && !h.F.Older(b.q[i-1].At(0).F) {
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
	f := q.Pop()
	if q.Len() == 0 {
		b.nonEmpty &^= 1 << i
	}
	return f
}

// rebuild recomputes the derived state from the queue contents (after a
// snapshot load): each entry's route at this node and nonEmpty.
func (b *inputBank) rebuild(t *routing.Table, node int) {
	b.nonEmpty = 0
	for i := range b.q {
		q := &b.q[i]
		for k := 0; k < q.Len(); k++ {
			e := q.At(k)
			e.Want, e.Route = t.RouteAt(node, int(e.F.Dst))
		}
		if q.Len() > 0 {
			b.nonEmpty |= 1 << uint(i)
		}
	}
}
