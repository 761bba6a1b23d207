package bitarb

import (
	"math/rand"
	"slices"
	"testing"
)

// lowMask returns the mask with the n low bits set (n in [0, 64]).
func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// scan is the branchy round-robin grant: the first requester of mask at or
// after ptr, cyclically over n requesters, or -1.
func scan(mask uint64, ptr, n int) int {
	for off := 0; off < n; off++ {
		if i := (ptr + off) % n; mask&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// refSeparable is the branchy output-first separable allocator Separable
// replaced, kept as its oracle: every arbiter a cyclic scan from its rotation
// pointer, the request matrix probed one bit at a time, and only a matched
// pair's pointers advanced.
type refSeparable struct {
	outPtr, inPtr    []int32
	outWinner, grant []int
}

func newRefSeparable(numIn, numOut int) *refSeparable {
	return &refSeparable{outPtr: make([]int32, numOut), inPtr: make([]int32, numIn),
		outWinner: make([]int, numOut), grant: make([]int, numIn)}
}

func (r *refSeparable) allocate(req []uint64) []int {
	numIn, numOut := len(r.inPtr), len(r.outPtr)
	// Stage 1: each output's arbiter picks one requesting input.
	for o := 0; o < numOut; o++ {
		var mask uint64
		for i := 0; i < numIn; i++ {
			if req[i]&(1<<uint(o)) != 0 {
				mask |= 1 << uint(i)
			}
		}
		r.outWinner[o] = scan(mask, int(r.outPtr[o]), numIn)
	}
	// Stage 2: each input's arbiter picks one of the outputs granted to it.
	for i := 0; i < numIn; i++ {
		var mask uint64
		for o := 0; o < numOut; o++ {
			if r.outWinner[o] == i {
				mask |= 1 << uint(o)
			}
		}
		o := scan(mask, int(r.inPtr[i]), numOut)
		r.grant[i] = o
		if o >= 0 {
			r.inPtr[i] = int32((o + 1) % numOut)
			r.outPtr[o] = int32((i + 1) % numIn)
		}
	}
	return r.grant
}

// TestGrantRotMatchesCyclicScan checks the doubly-shifted-mask grant against
// the cyclic scan for every width, pointer and a spread of masks.
func TestGrantRotMatchesCyclicScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 64; n++ {
		for ptr := 0; ptr < n; ptr++ {
			masks := []uint64{0, 1, lowMask(n), 1 << uint(n-1), 1 << uint(ptr)}
			for k := 0; k < 16; k++ {
				masks = append(masks, rng.Uint64()&lowMask(n))
			}
			for _, m := range masks {
				if got, want := GrantRot(m, ptr), scan(m, ptr, n); got != want {
					t.Fatalf("GrantRot(%#x, ptr=%d, n=%d) = %d, want %d", m, ptr, n, got, want)
				}
			}
		}
	}
}

// TestSeparableMatchesReference drives the bit-parallel allocator and the
// branchy reference in lockstep over random request matrices: grants and both
// pointer arrays must be identical every round. At the routers' 5×5 radix
// every round is followed by one matrix of the zero-/one-requester shortcut's
// whole domain — the all-zero matrix and each single input with each of its
// 31 request masks — so the shortcut is taken from whatever pointer state the
// random rounds left behind.
func TestSeparableMatchesReference(t *testing.T) {
	cases := []struct{ in, out int }{{5, 5}, {4, 5}, {8, 8}, {16, 16}, {64, 64}}
	for _, c := range cases {
		fast := NewSeparable(c.in, c.out)
		ref := newRefSeparable(c.in, c.out)
		rng := rand.New(rand.NewSource(int64(c.in*100 + c.out)))
		req := make([]uint64, c.in)
		step := func(round int) {
			t.Helper()
			fg := fast.Allocate(req)
			rg := ref.allocate(req)
			for i := range fg {
				if fg[i] != rg[i] {
					t.Fatalf("%dx%d round %d input %d: fast=%d ref=%d (req=%#x)",
						c.in, c.out, round, i, fg[i], rg[i], req)
				}
			}
			if !slices.Equal(fast.outPtr[:c.out], ref.outPtr) || !slices.Equal(fast.inPtr[:c.in], ref.inPtr) {
				t.Fatalf("%dx%d round %d: rotation pointers diverged after req=%#x", c.in, c.out, round, req)
			}
		}
		for round := 0; round < 4096; round++ {
			for i := range req {
				switch round % 5 {
				case 0:
					req[i] = 0 // idle round
				case 1:
					req[i] = lowMask(c.out) // all-contend round
				default:
					req[i] = rng.Uint64() & lowMask(c.out)
				}
			}
			step(round)
			if c.in == 5 && c.out == 5 {
				clear(req)
				req[round/32%5] = uint64(round % 32)
				step(round)
			}
		}
	}
}

// TestSeparableGrantValidity: grants form a matching (no output granted
// twice, every grant was requested).
func TestSeparableGrantValidity(t *testing.T) {
	s := NewSeparable(8, 8)
	rng := rand.New(rand.NewSource(3))
	req := make([]uint64, 8)
	for round := 0; round < 2048; round++ {
		for i := range req {
			req[i] = rng.Uint64() & lowMask(8)
		}
		grants := s.Allocate(req)
		var outUsed uint64
		for i, o := range grants {
			if o == -1 {
				continue
			}
			if req[i]&(1<<uint(o)) == 0 {
				t.Fatalf("round %d: input %d granted unrequested output %d", round, i, o)
			}
			if outUsed&(1<<uint(o)) != 0 {
				t.Fatalf("round %d: output %d granted twice", round, o)
			}
			outUsed |= 1 << uint(o)
		}
	}
}
