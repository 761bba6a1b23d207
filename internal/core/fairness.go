// Package core implements the paper's contribution: the DXbar dual-crossbar
// router (§II.A) and the unified dual-input single-crossbar router (§II.B),
// including age-based arbitration with the fairness counter (§II.A.2) and
// the crossbar fault tolerance of §II.C.
package core

// FairnessThreshold is the number of consecutive primary-crossbar wins
// (while flits wait in the buffers or injection port) after which priority
// flips to the waiting flits. "After testing with different traffic
// patterns, the threshold is set to four to obtain the best performance"
// (§II.A.2).
const FairnessThreshold = 4

// fairness is the per-router fairness counter: it counts consecutive cycles
// in which incoming (primary) flits won arbitration while flits were
// waiting, and flips priority once the threshold is reached. The counter
// "works only when there are flits waiting in the buffers or in the
// injection port, and it is reset every time a waiting flit wins."
type fairness struct {
	threshold int
	count     int
	flips     uint64
}

func newFairness(threshold int) fairness {
	if threshold < 1 {
		threshold = 1
	}
	return fairness{threshold: threshold}
}

// flip reports whether this cycle's allocation must prioritize the waiting
// (buffered/injection) flits over incoming flits.
func (f *fairness) flip(waitersExist bool) bool {
	return waitersExist && f.count >= f.threshold
}

// observe updates the counter after allocation: waiter wins reset it;
// primary wins with waiters present advance it. It reports whether this
// observation flipped priority (the counter just reached its threshold), so
// callers can surface the flip to statistics and the flight recorder.
func (f *fairness) observe(waitersExist, primaryWon, waiterWon bool) bool {
	if !waitersExist {
		return false
	}
	if waiterWon {
		f.count = 0
		return false
	}
	if primaryWon && f.count < f.threshold {
		// A flip cycle that failed to serve any waiter (ports busy) keeps
		// priority flipped rather than re-counting from zero, hence no
		// increment past the threshold.
		f.count++
		if f.count == f.threshold {
			f.flips++
			return true
		}
	}
	return false
}

// Flips returns how many times priority has flipped (diagnostics).
func (f *fairness) Flips() uint64 { return f.flips }
