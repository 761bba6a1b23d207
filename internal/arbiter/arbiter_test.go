package arbiter

import (
	"testing"
	"testing/quick"
)

func TestRoundRobinEmptyMask(t *testing.T) {
	r := NewRoundRobin(4)
	if got := r.Grant(0); got != -1 {
		t.Errorf("Grant(0) = %d, want -1", got)
	}
}

func TestRoundRobinRotation(t *testing.T) {
	r := NewRoundRobin(4)
	full := uint64(0b1111)
	want := []int{0, 1, 2, 3, 0, 1}
	for i, w := range want {
		if got := r.Grant(full); got != w {
			t.Fatalf("grant %d = %d, want %d", i, got, w)
		}
	}
}

func TestRoundRobinSkipsNonRequesters(t *testing.T) {
	r := NewRoundRobin(4)
	if got := r.Grant(0b1010); got != 1 {
		t.Fatalf("first grant = %d, want 1", got)
	}
	if got := r.Grant(0b1010); got != 3 {
		t.Fatalf("second grant = %d, want 3", got)
	}
	if got := r.Grant(0b1010); got != 1 {
		t.Fatalf("third grant = %d, want 1 (wrap)", got)
	}
}

func TestRoundRobinPeekDoesNotAdvance(t *testing.T) {
	r := NewRoundRobin(4)
	if r.Peek(0b1111) != 0 || r.Peek(0b1111) != 0 {
		t.Error("Peek must not advance the pointer")
	}
	r.Commit(2)
	if got := r.Peek(0b1111); got != 3 {
		t.Errorf("after Commit(2), Peek = %d, want 3", got)
	}
}

func TestRoundRobinPanicsOnBadWidth(t *testing.T) {
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() { recover() }()
			NewRoundRobin(n)
			t.Errorf("NewRoundRobin(%d) must panic", n)
		}()
	}
}

// Property: a round-robin arbiter starves no one — under a persistent full
// request mask, every requester wins exactly once per n grants.
func TestRoundRobinFairnessProperty(t *testing.T) {
	f := func(width uint8, rounds uint8) bool {
		n := int(width)%16 + 1
		r := NewRoundRobin(n)
		counts := make([]int, n)
		total := (int(rounds)%8 + 1) * n
		for i := 0; i < total; i++ {
			counts[r.Grant((1<<uint(n))-1)]++
		}
		for _, c := range counts {
			if c != total/n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func req(n, m int, pairs ...[2]int) [][]bool {
	r := make([][]bool, n)
	for i := range r {
		r[i] = make([]bool, m)
	}
	for _, p := range pairs {
		r[p[0]][p[1]] = true
	}
	return r
}

func TestSeparableSimpleMatching(t *testing.T) {
	s := NewSeparable(5, 5)
	// Disjoint requests: all granted.
	g := s.Allocate(req(5, 5, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}))
	want := []int{1, 2, 3, -1, -1}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("grant[%d] = %d, want %d (all %v)", i, g[i], want[i], g)
		}
	}
}

func TestSeparableConflictGivesOneWinner(t *testing.T) {
	s := NewSeparable(5, 5)
	g := s.Allocate(req(5, 5, [2]int{0, 2}, [2]int{1, 2}, [2]int{3, 2}))
	winners := 0
	for i, o := range g {
		if o == 2 {
			winners++
		} else if o != -1 {
			t.Fatalf("input %d granted unrequested output %d", i, o)
		}
	}
	if winners != 1 {
		t.Fatalf("output 2 granted to %d inputs, want 1", winners)
	}
}

// Property: Separable never double-books an output, never grants an
// unrequested pair, and is maximal on single-request inputs with distinct
// outputs.
func TestSeparableMatchingProperty(t *testing.T) {
	s := NewSeparable(5, 5)
	f := func(raw [5]uint8) bool {
		r := make([][]bool, 5)
		for i := range r {
			r[i] = make([]bool, 5)
			for o := 0; o < 5; o++ {
				if raw[i]&(1<<uint(o)) != 0 {
					r[i][o] = true
				}
			}
		}
		g := s.Allocate(r)
		usedOut := map[int]bool{}
		for i, o := range g {
			if o == -1 {
				continue
			}
			if !r[i][o] || usedOut[o] {
				return false
			}
			usedOut[o] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSeparableRadixAccessors(t *testing.T) {
	s := NewSeparable(3, 7)
	if s.NumIn() != 3 || s.NumOut() != 7 {
		t.Error("radix accessors wrong")
	}
}

func TestSeparablePanicsOnWrongMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Allocate with wrong input count must panic")
		}
	}()
	NewSeparable(5, 5).Allocate(req(3, 5))
}
