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

// pack returns the packed request matrix of rows: bit Radix·i+o set when
// rows[i] has bit o.
func pack(rows []uint64) uint32 {
	var req uint32
	for i, m := range rows {
		req |= uint32(m) << uint(Radix*i)
	}
	return req
}

// refSeparable is the branchy output-first separable allocator Separable
// replaced, kept as its oracle: every arbiter a cyclic scan from its rotation
// pointer, the request matrix probed one bit at a time, and only a matched
// pair's pointers advanced.
type refSeparable struct {
	outPtr, inPtr    []uint8
	outWinner, grant []int
}

func newRefSeparable(numIn, numOut int) *refSeparable {
	return &refSeparable{outPtr: make([]uint8, numOut), inPtr: make([]uint8, numIn),
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
			r.inPtr[i] = uint8((o + 1) % numOut)
			r.outPtr[o] = uint8((i + 1) % numIn)
		}
	}
	return r.grant
}

// grantSlice unpacks Allocate's result into one output per input, -1 for an
// unmatched one.
func grantSlice(matched uint8, out [Radix]uint8) []int {
	g := make([]int, Radix)
	for i := range g {
		g[i] = -1
		if matched>>uint(i)&1 != 0 {
			g[i] = int(out[i])
		}
	}
	return g
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

// TestGrantTableMatchesGrantRot checks every entry of the arbiters' lookup
// table against GrantRot.
func TestGrantTableMatchesGrantRot(t *testing.T) {
	for ptr := 0; ptr < Radix; ptr++ {
		for mask := 0; mask < 1<<Radix; mask++ {
			if got, want := int(rr[ptr][mask]), GrantRot(uint64(mask), ptr); got != want {
				t.Fatalf("rr[%d][%05b] = %d, GrantRot = %d", ptr, mask, got, want)
			}
		}
	}
}

// TestPackedTransposeMatchesBitwise checks the multiply transpose and the
// requesting-input set against a bit-by-bit reading of every 25-bit request
// matrix.
func TestPackedTransposeMatchesBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("walks all 2^25 matrices")
	}
	for req := uint32(0); req < 1<<(Radix*Radix); req++ {
		var in uint8
		for i := 0; i < Radix; i++ {
			if req>>uint(Radix*i)&(1<<Radix-1) != 0 {
				in |= 1 << uint(i)
			}
		}
		if got := inputs(req); got != in {
			t.Fatalf("inputs(%#07x) = %05b, want %05b", req, got, in)
		}
		for o := 0; o < Radix; o++ {
			var col uint32
			for i := 0; i < Radix; i++ {
				col |= req >> uint(Radix*i+o) & 1 << uint(i)
			}
			if got := column(req, o); got != col {
				t.Fatalf("column(%#07x, %d) = %05b, want %05b", req, o, got, col)
			}
		}
	}
}

// TestSeparableMatchesReference drives the table allocator and the branchy
// reference in lockstep over random request matrices: grants and both
// pointer arrays must be identical every round. Every round is followed by
// two matrices of the stage-1 skip's domain — no output with two requesters —
// so the skip is taken from whatever pointer state the random rounds left
// behind: one walking the one-requester matrices (the all-zero matrix and
// each single input with each of its 31 request masks), one handing each
// output to a random input or to none.
func TestSeparableMatchesReference(t *testing.T) {
	var fast Separable
	ref := newRefSeparable(Radix, Radix)
	rng := rand.New(rand.NewSource(Radix*100 + Radix))
	spread := rand.New(rand.NewSource(Radix))
	req := make([]uint64, Radix)
	step := func(round int) {
		t.Helper()
		fg := grantSlice(fast.Allocate(pack(req)))
		if rg := ref.allocate(req); !slices.Equal(fg, rg) {
			t.Fatalf("round %d: fast=%v ref=%v (req=%#x)", round, fg, rg, req)
		}
		if !slices.Equal(fast.outPtr[:], ref.outPtr) || !slices.Equal(fast.inPtr[:], ref.inPtr) {
			t.Fatalf("round %d: rotation pointers diverged after req=%#x", round, req)
		}
	}
	for round := 0; round < 4096; round++ {
		for i := range req {
			switch round % 5 {
			case 0:
				req[i] = 0 // idle round
			case 1:
				req[i] = lowMask(Radix) // all-contend round
			default:
				req[i] = rng.Uint64() & lowMask(Radix)
			}
		}
		step(round)
		clear(req)
		req[round/32%Radix] = uint64(round % 32)
		step(round)
		clear(req)
		for o := 0; o < Radix; o++ {
			if i := spread.Intn(Radix + 1); i < Radix {
				req[i] |= 1 << uint(o)
			}
		}
		step(round)
	}
}

// TestSeparableGrantValidity: grants form a matching (no output granted
// twice, every grant was requested) and the match counter counts them.
func TestSeparableGrantValidity(t *testing.T) {
	var s Separable
	rng := rand.New(rand.NewSource(3))
	req := make([]uint64, Radix)
	total := uint64(0)
	for round := 0; round < 2048; round++ {
		for i := range req {
			req[i] = rng.Uint64() & lowMask(Radix)
		}
		var outUsed uint64
		for i, o := range grantSlice(s.Allocate(pack(req))) {
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
			total++
		}
	}
	if s.grants != total {
		t.Fatalf("match counter %d, grants %d", s.grants, total)
	}
}
