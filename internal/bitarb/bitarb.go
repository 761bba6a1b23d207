// Package bitarb is the bit-parallel switch allocator of the FIFO-input
// routers: a 5×5 request matrix is one packed word, the transpose into
// per-output requester masks is a multiply, and every round-robin grant is
// one load from a table indexed by the rotation pointer and the 5-bit
// request mask — no per-requester branching, no scratch arrays.
//
// The scheme is the software rendition of the `nvector`/round-robin-arbiter
// request vectors of flat-crossbar hardware allocators: every output port
// owns a request vector whose bit i means "input i wants me", and its
// arbiter grants the first requester at or after its rotation pointer,
// cyclically. Grants are bit-identical to the branchy cyclic-scan arbiters
// this package replaced, which its tests keep as the oracle.
package bitarb

import "math/bits"

// Radix is the allocator's input and output count: a mesh router's four
// link ports plus its local port.
const Radix = 5

// GrantRot picks the lowest set bit of mask at or above the rotation
// pointer ptr, wrapping to the lowest set bit overall when the high part is
// empty — the rotated-priority round-robin grant. mask must already be
// confined to the arbiter width; it returns -1 when mask is 0.
func GrantRot(mask uint64, ptr int) int {
	if mask == 0 {
		return -1
	}
	// Doubly-shifted priority split: bits >= ptr first, wrapped bits after.
	if hi := mask >> uint(ptr) << uint(ptr); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(mask)
}

// rr[ptr][mask] is GrantRot(mask, ptr) for every Radix-bit mask: both
// arbiter stages grant with one load.
var rr = func() (t [Radix][1 << Radix]int8) {
	for ptr := range t {
		for mask := range t[ptr] {
			t[ptr][mask] = int8(GrantRot(uint64(mask), ptr))
		}
	}
	return t
}()

// next[i] is the rotation pointer past requester i.
var next = [Radix]uint8{1, 2, 3, 4, 0}

// rowBits has bit Radix·i set for every input i; gather's multiplier moves
// bit Radix·i of a word masked by it to bit 4·Radix+i, and no two of the
// product's partial terms share a bit, so nothing carries.
const (
	rowBits = 1 | 1<<5 | 1<<10 | 1<<15 | 1<<20
	gatherM = 1<<4 | 1<<8 | 1<<12 | 1<<16 | 1<<20
)

// gather packs bits 0, 5, 10, 15 and 20 of w into bits 0..4.
func gather(w uint32) uint32 { return (w & rowBits) * gatherM >> 20 & 31 }

// column returns the requester mask of output o in the packed request
// matrix req (see Separable.Allocate): bit i set when input i requests o.
func column(req uint32, o int) uint32 { return gather(req >> (uint(o) & 31)) }

// inputs returns the inputs with a non-empty row in req.
func inputs(req uint32) uint8 {
	return uint8(gather(req | req>>1 | req>>2 | req>>3 | req>>4))
}

// Separable is the output-first separable switch allocator of the paper's
// Buffered 4/8 baselines (its reference [14]): stage 1 grants each output
// to one requesting input (per-output round robin over the transposed
// request matrix), stage 2 grants each input one of the outputs it won
// (per-input round robin), and only the pointers of matched pairs advance.
// It is grant-for-grant identical to the branchy cyclic-scan allocator in
// the tests, which they treat as the oracle.
//
// The state is the two pointer arrays and the match counter, held by value,
// so a router holds its allocator inline.
type Separable struct {
	outPtr [Radix]uint8 // per output, rotation pointer over inputs
	inPtr  [Radix]uint8 // per input, rotation pointer over outputs
	// grants counts stage-2 matches; it is part of the snapshot stream.
	grants uint64
}

// Allocate computes a conflict-free matching for the packed request matrix
// req, whose bit Radix·i+o means input i requests output o. It returns the
// set of matched inputs and, for each matched input i, its output out[i].
func (s *Separable) Allocate(req uint32) (matched uint8, out [Radix]uint8) {
	won := req // what each input won in stage 1, packed like req
	outs := (req | req>>5 | req>>10 | req>>15 | req>>20) & (1<<Radix - 1)
	if bits.OnesCount32(req) != bits.OnesCount32(outs) {
		// Stage 1: each requested output picks one input (peek only). It is
		// skipped when no output has two requesters — 73–77 % of the calls
		// at 8×8 UR 0.3 and 40–56 % at UR 0.6 (counted on Buffered 4/8 and
		// AFC): an output's only requester wins it wherever its pointer
		// stands, so what each input won is what it asked for.
		won = 0
		for m := outs; m != 0; m &= m - 1 {
			o := bits.TrailingZeros32(m)
			w := rr[s.outPtr[o]][column(req, o)]
			won |= 1 << (uint(Radix*int(w)+o) & 31)
		}
	}
	// Stage 2: each input picks one of the outputs granted to it, and the
	// matched pair's pointers advance.
	for m := inputs(req); m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		o := rr[s.inPtr[i]][won>>(uint(Radix*i)&31)&(1<<Radix-1)]
		if o < 0 {
			continue
		}
		matched |= 1 << uint(i)
		out[i] = uint8(o)
		s.grants++
		s.inPtr[i] = next[o]
		s.outPtr[o] = next[i]
	}
	return matched, out
}
