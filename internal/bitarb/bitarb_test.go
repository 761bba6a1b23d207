package bitarb

import (
	"bytes"
	"math/rand"
	"testing"

	"dxbar/internal/arbiter"
	"dxbar/internal/snapshot"
)

// TestGrantRotMatchesCyclicScan checks the doubly-shifted-mask grant against
// a naive cyclic scan for every width, pointer and a spread of masks.
func TestGrantRotMatchesCyclicScan(t *testing.T) {
	scan := func(mask uint64, ptr, n int) int {
		for off := 0; off < n; off++ {
			i := (ptr + off) % n
			if mask&(1<<uint(i)) != 0 {
				return i
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 64; n++ {
		for ptr := 0; ptr < n; ptr++ {
			masks := []uint64{0, 1, LowMask(n), 1 << uint(n-1), 1 << uint(ptr)}
			for k := 0; k < 16; k++ {
				masks = append(masks, rng.Uint64()&LowMask(n))
			}
			for _, m := range masks {
				if got, want := GrantRot(m, ptr), scan(m, ptr, n); got != want {
					t.Fatalf("GrantRot(%#x, ptr=%d, n=%d) = %d, want %d", m, ptr, n, got, want)
				}
			}
		}
	}
}

// TestRoundRobinMatchesReference drives the O(1) arbiter and the branchy
// reference in lockstep over random request streams at several widths.
func TestRoundRobinMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 16, 33, 64} {
		fast := NewRoundRobin(n)
		ref := arbiter.NewRoundRobin(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for step := 0; step < 4096; step++ {
			mask := rng.Uint64() & LowMask(n)
			if step%7 == 0 {
				mask = 0 // empty request vector
			}
			g, r := fast.Grant(mask), ref.Grant(mask)
			if g != r {
				t.Fatalf("n=%d step=%d mask=%#x: fast=%d ref=%d", n, step, mask, g, r)
			}
			// Peek must agree with the reference's Peek too.
			pm := rng.Uint64() & LowMask(n)
			if fp, rp := fast.Peek(pm), ref.Peek(pm); fp != rp {
				t.Fatalf("n=%d step=%d peek mask=%#x: fast=%d ref=%d", n, step, pm, fp, rp)
			}
		}
	}
}

// TestRoundRobinSingleRequester: with one bit set the winner is that bit
// regardless of pointer position, and the pointer lands one past it.
func TestRoundRobinSingleRequester(t *testing.T) {
	r := NewRoundRobin(8)
	for i := 0; i < 8; i++ {
		if g := r.Grant(1 << uint(i)); g != i {
			t.Fatalf("single requester %d granted %d", i, g)
		}
	}
	if r.Grants() != 8 {
		t.Fatalf("grants = %d, want 8", r.Grants())
	}
}

// TestRoundRobinEmpty: an empty request vector grants nothing and leaves all
// state untouched.
func TestRoundRobinEmpty(t *testing.T) {
	r := NewRoundRobin(5)
	r.Grant(0b00100) // ptr now 3
	for i := 0; i < 10; i++ {
		if g := r.Grant(0); g != -1 {
			t.Fatalf("empty mask granted %d", g)
		}
	}
	if g := r.Grant(0b11111); g != 3 {
		t.Fatalf("pointer moved on empty grants: next winner %d, want 3", g)
	}
	if r.Grants() != 2 {
		t.Fatalf("grants = %d, want 2", r.Grants())
	}
}

// TestRoundRobinAllContendFullPeriod: with every requester persistently
// contending, one full period visits each requester exactly once, in rotating
// order, for any width — the rotation-fairness guarantee.
func TestRoundRobinAllContendFullPeriod(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 64} {
		r := NewRoundRobin(n)
		all := LowMask(n)
		for period := 0; period < 3; period++ {
			seen := make([]bool, n)
			for k := 0; k < n; k++ {
				g := r.Grant(all)
				if g != k {
					t.Fatalf("n=%d period=%d grant %d = %d, want strict rotation", n, period, k, g)
				}
				if seen[g] {
					t.Fatalf("n=%d requester %d granted twice in one period", n, g)
				}
				seen[g] = true
			}
		}
		// Fairness accounting: in strict rotation the winner always sits at
		// the pointer, so no grant ever wraps.
		if r.Wraps() != 0 {
			t.Fatalf("n=%d wraps = %d, want 0", n, r.Wraps())
		}
		if r.Grants() != uint64(3*n) {
			t.Fatalf("n=%d grants = %d, want %d", n, r.Grants(), 3*n)
		}
	}
}

// refSeparable adapts a mask request matrix to the branchy reference
// allocator's [][]bool interface.
type refSeparable struct {
	s   *arbiter.Separable
	req [][]bool
}

func newRefSeparable(numIn, numOut int) *refSeparable {
	r := &refSeparable{s: arbiter.NewSeparable(numIn, numOut), req: make([][]bool, numIn)}
	for i := range r.req {
		r.req[i] = make([]bool, numOut)
	}
	return r
}

func (r *refSeparable) allocate(req []uint64) []int {
	for i := range r.req {
		for o := range r.req[i] {
			r.req[i][o] = req[i]&(1<<uint(o)) != 0
		}
	}
	return r.s.Allocate(r.req)
}

// pointerBytes is an allocator's rotation pointers as its State writes them:
// per output, then per input (bitarb appends its match counter), after the
// stream header and without the CRC trailer.
func pointerBytes(t *testing.T, s interface{ State(*snapshot.Stream) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	if err := s.State(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[:buf.Len()-4]
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
			if fp, rp := pointerBytes(t, fast), pointerBytes(t, ref.s); !bytes.Equal(fp[:len(rp)], rp) {
				t.Fatalf("%dx%d round %d: rotation pointers diverged after req=%#x", c.in, c.out, round, req)
			}
		}
		for round := 0; round < 4096; round++ {
			for i := range req {
				switch round % 5 {
				case 0:
					req[i] = 0 // idle round
				case 1:
					req[i] = LowMask(c.out) // all-contend round
				default:
					req[i] = rng.Uint64() & LowMask(c.out)
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
			req[i] = rng.Uint64() & LowMask(8)
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
