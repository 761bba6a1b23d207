// Package arbiter provides the arbitration and switch-allocation building
// blocks used by every router design in the repository:
//
//   - RoundRobin: the classic rotating-priority arbiter used by the generic
//     baseline router's separable allocator.
//   - Separable: an output-first separable switch allocator (Becker & Dally,
//     SC'09 — reference [14] of the paper) used by the Buffered 4/8 baseline.
//   - DualInput: the paper's augmented output-first allocator for the
//     unified dual-input crossbar (§II.B.1): each input port carries two
//     candidate flits (bufferless and buffered); two V:1 arbiters in series
//     select up to two grants per input port, and the conflict-free swap
//     logic (§II.B.2) repairs physically conflicting combinations.
//
// All arbiters are deterministic state machines; none are safe for
// concurrent use (the simulator is single-threaded per network).
package arbiter

import "fmt"

// RoundRobin is an n-requester rotating-priority arbiter. The requester at
// the pointer has highest priority; after a grant the pointer moves one past
// the winner, giving every requester a bounded wait.
type RoundRobin struct {
	n   int
	ptr int
}

// NewRoundRobin returns an arbiter over n requesters. n must be in (0, 64].
func NewRoundRobin(n int) *RoundRobin {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("arbiter: invalid round-robin width %d", n))
	}
	return &RoundRobin{n: n}
}

// Grant picks the winning requester from the request bitmask (bit i set
// means requester i asks). It returns -1 if no bit is set. Grant updates the
// rotation pointer on success.
func (r *RoundRobin) Grant(mask uint64) int {
	if mask == 0 {
		return -1
	}
	for off := 0; off < r.n; off++ {
		i := (r.ptr + off) % r.n
		if mask&(1<<uint(i)) != 0 {
			r.ptr = (i + 1) % r.n
			return i
		}
	}
	return -1
}

// Peek is Grant without the pointer update (used by allocators that must
// arbitrate combinationally and commit later).
func (r *RoundRobin) Peek(mask uint64) int {
	if mask == 0 {
		return -1
	}
	for off := 0; off < r.n; off++ {
		i := (r.ptr + off) % r.n
		if mask&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// Commit moves the pointer past the given winner.
func (r *RoundRobin) Commit(winner int) {
	if winner >= 0 && winner < r.n {
		r.ptr = (winner + 1) % r.n
	}
}
