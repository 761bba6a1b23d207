// Package bitarb is the bit-parallel arbitration core: request vectors are
// uint64 words, a round-robin grant is one find-first-set on a doubly
// shifted (rotated-priority) mask, and a whole separable switch allocation
// is a handful of word operations over contiguous state — no per-requester
// branching, no pointer chasing.
//
// The scheme is the software rendition of the `nvector`/round-robin-arbiter
// request vectors of flat-crossbar hardware allocators: every output port
// owns a request word whose bit i means "input i wants me"; the rotating
// priority pointer splits the word into a high part (requesters at or past
// the pointer) and a low part (wrapped requesters), and the grant is the
// trailing-zero count of whichever part is non-empty. That is exactly a
// cyclic scan from the pointer, so grants are bit-identical to the branchy
// arbiters this package replaced, which its tests keep as the oracle.
package bitarb

import (
	"fmt"
	"math/bits"
)

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

// Separable is the bit-parallel output-first separable switch allocator:
// stage 1 grants each output to one requesting input (per-output rotated-
// priority round robin over the transposed request matrix), stage 2 grants
// each input one of the outputs it won (per-input round robin), and only
// the pointers of matched pairs advance. It is grant-for-grant identical to
// the branchy cyclic-scan allocator in the tests, which they treat as the
// oracle (paper reference [14]: the Buffered 4/8 baselines' allocator).
//
// All state is contiguous: two pointer slices and two scratch word slices,
// no per-arbiter objects.
type Separable struct {
	numIn, numOut int
	outPtr        []int32 // per output, rotation pointer over inputs
	inPtr         []int32 // per input, rotation pointer over outputs
	outReq        []uint64
	inWon         []uint64
	grant         []int
	// grants counts stage-2 matches; it is part of the snapshot stream.
	grants uint64
}

// NewSeparable returns an allocator of the given radix (both ≤ 64).
func NewSeparable(numIn, numOut int) *Separable {
	if numIn <= 0 || numIn > 64 || numOut <= 0 || numOut > 64 {
		panic(fmt.Sprintf("bitarb: invalid separable radix %dx%d", numIn, numOut))
	}
	return &Separable{
		numIn:  numIn,
		numOut: numOut,
		outPtr: make([]int32, numOut),
		inPtr:  make([]int32, numIn),
		outReq: make([]uint64, numOut),
		inWon:  make([]uint64, numIn),
		grant:  make([]int, numIn),
	}
}

// Allocate computes a conflict-free matching for the request matrix req,
// where req[i] is input i's requested-output bitmask. It returns grant[i] =
// granted output for input i, or -1. The returned slice is the allocator's
// scratch: valid until the next Allocate call.
func (s *Separable) Allocate(req []uint64) []int {
	if len(req) != s.numIn {
		panic("bitarb: request matrix has wrong input count")
	}
	grant := s.grant
	inAny := uint64(0)
	for i, m := range req {
		grant[i] = -1
		if m != 0 {
			inAny |= 1 << uint(i)
		}
	}
	inWon := s.inWon
	if inAny&(inAny-1) == 0 {
		// Zero or one requesting input: 79 % of the calls in the closed-loop
		// splash runs, 29 % at 8×8 UR 0.3 (counted; CHANGES.md PR24). A
		// lone requester is the stage-1 winner of every output it asks
		// for, wherever those outputs' pointers stand, so what it won is
		// what it asked for and stage 2 below is the whole allocation.
		if inAny != 0 {
			i := bits.TrailingZeros64(inAny)
			inWon[i] = req[i]
		}
	} else {
		// Transpose the request matrix into per-output request words,
		// touching only the set bits.
		outReq := s.outReq
		for o := range outReq {
			outReq[o] = 0
		}
		for i, m := range req {
			inWon[i] = 0
			for ; m != 0; m &= m - 1 {
				outReq[bits.TrailingZeros64(m)] |= 1 << uint(i)
			}
		}
		// Stage 1: each output picks one input (peek only).
		for o, r := range outReq {
			if w := GrantRot(r, int(s.outPtr[o])); w >= 0 {
				inWon[w] |= 1 << uint(o)
			}
		}
	}
	// Stage 2: each input picks one of the outputs granted to it, and the
	// matched pair's pointers advance.
	for m := inAny; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		o := GrantRot(inWon[i], int(s.inPtr[i]))
		if o < 0 {
			continue
		}
		grant[i] = o
		s.grants++
		s.inPtr[i] = int32(o + 1)
		if int(s.inPtr[i]) == s.numOut {
			s.inPtr[i] = 0
		}
		s.outPtr[o] = int32(i + 1)
		if int(s.outPtr[o]) == s.numIn {
			s.outPtr[o] = 0
		}
	}
	return grant
}
