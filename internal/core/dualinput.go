package core

import "math/bits"

// Sub-input indices for the unified dual-input crossbar: each input port
// carries up to two candidate flits per cycle.
const (
	// subBufferless is the incoming (primary, bufferless-path) candidate.
	subBufferless = 0
	// subBuffered is the buffered (secondary-path) candidate. The PE
	// injection port uses this sub-input as well (it sits on the buffered
	// side of the demultiplexer, without a buffer).
	subBuffered = 1
)

// dualRequest describes one input port's candidates for one allocation
// round of the unified crossbar.
type dualRequest struct {
	// want[s] is the bitmask of output ports sub-input s requests
	// (zero = no candidate / no request).
	want [2]uint64
	// age[s] is the age key of sub-input s's flit: lower wins. Only
	// meaningful where want[s] != 0.
	age [2]uint64
}

// dualGrant is the allocation result for one input port: the output granted
// to each sub-input, or -1.
type dualGrant [2]int

// dualInput is the paper's augmented separable output-first allocator for
// the unified dual-input crossbar (§II.B.1):
//
//   - Stage 1: the two sub-input request vectors of each input port are
//     OR-ed into one P-bit vector; each output's P:1 arbiter picks one input
//     port. Our P:1 arbiters are age-based with a class bit (the router's
//     incoming-over-buffered priority, flippable by the fairness counter),
//     matching the age-based arbitration used throughout the paper.
//   - Stage 2: per input port, two V:1 arbiters in series pick up to two
//     (sub-input, output) grants; the second arbiter is masked by the first
//     arbiter's selection so it can never pick the same sub-input (§II.B.1).
//   - Conflict-free swap (§II.B.2): the crossbar's transmission-gate
//     segmentation requires the flit entering from the low end of the input
//     line to use a lower-numbered output column than the flit entering from
//     the high end. When the two grants violate that ordering, the swap
//     logic exchanges which physical entry each flit uses, so both still
//     make forward progress. Swaps are counted for statistics.
type dualInput struct {
	numPorts, numOut int
	swaps            uint64
	outWinner        [maxDualRadix]int       // per-allocate scratch
	won              [maxDualRadix]uint64    // per-allocate scratch: outputs each port won in stage 1
	grants           [maxDualRadix]dualGrant // per-allocate scratch, aliased by the result
	// prefOut/otherOut are stage 1's per-output requester-port masks (bit p
	// of prefOut[o] = port p's preferred-class sub-input wants o).
	prefOut, otherOut [maxDualRadix]uint64
}

// maxDualRadix bounds the dual-input allocator's port and output counts: its
// scratch is held by value, so the unified router holds it inline.
const maxDualRadix = 8

// newDualInput returns an allocator for numPorts input ports and numOut
// output ports (both 5 for the paper's unified crossbar).
func newDualInput(numPorts, numOut int) *dualInput {
	d := new(dualInput)
	d.init(numPorts, numOut)
	return d
}

// init makes d a fresh allocator in place (newDualInput).
func (d *dualInput) init(numPorts, numOut int) {
	if numPorts <= 0 || numPorts > maxDualRadix || numOut <= 0 || numOut > maxDualRadix {
		panic("core: invalid dual-input allocator radix")
	}
	*d = dualInput{numPorts: numPorts, numOut: numOut}
}

// allocate computes the dual-input matching. preferBuffered flips the
// priority class between the bufferless and buffered sub-inputs (the
// fairness counter of §II.A.2 drives this). Each output is granted to at
// most one (port, sub-input); each port receives at most two grants, one
// per sub-input, on distinct outputs.
//
// Stage 1 is bit-parallel: the request matrix is transposed into per-output
// requester-port masks (touching only set bits), the class priority falls
// out of which mask is non-empty, and the age minimum scans only actual
// requesters; ties break on the lower port index.
//
// The returned slice is the allocator's own scratch: it is valid until the
// next allocate call (routers consume it within the same cycle).
func (d *dualInput) allocate(reqs []dualRequest, preferBuffered bool) []dualGrant {
	if len(reqs) != d.numPorts {
		panic("core: request slice has wrong port count")
	}
	pref, other := subBufferless, subBuffered
	if preferBuffered {
		pref, other = subBuffered, subBufferless
	}

	prefOut, otherOut := d.prefOut[:d.numOut], d.otherOut[:d.numOut]
	for o := 0; o < d.numOut; o++ {
		prefOut[o], otherOut[o] = 0, 0
	}
	for p := range reqs {
		r := &reqs[p]
		pb := uint64(1) << uint(p)
		for m := r.want[pref]; m != 0; m &= m - 1 {
			prefOut[bits.TrailingZeros64(m)] |= pb
		}
		for m := r.want[other]; m != 0; m &= m - 1 {
			otherOut[bits.TrailingZeros64(m)] |= pb
		}
	}
	outWinner := d.outWinner[:d.numOut]
	for o := 0; o < d.numOut; o++ {
		m, sub := prefOut[o], pref
		if m == 0 {
			m, sub = otherOut[o], other
		}
		if m == 0 {
			outWinner[o] = -1
			continue
		}
		// Minimum age over the set bits; ties break on the lower port index,
		// which the ascending bit scan with a strict comparison preserves.
		best := bits.TrailingZeros64(m)
		bestAge := reqs[best].age[sub]
		for mm := m & (m - 1); mm != 0; mm &= mm - 1 {
			p := bits.TrailingZeros64(mm)
			if a := reqs[p].age[sub]; a < bestAge {
				best, bestAge = p, a
			}
		}
		outWinner[o] = best
	}
	return d.stage2(reqs, pref, other)
}

// stage2 runs the per-port serial V:1 arbitration over d.outWinner.
func (d *dualInput) stage2(reqs []dualRequest, pref, other int) []dualGrant {
	grants, won := d.grants[:d.numPorts], d.won[:d.numPorts]
	for p := range grants {
		grants[p] = dualGrant{-1, -1}
		won[p] = 0
	}
	var winners uint64
	for o, p := range d.outWinner[:d.numOut] {
		if p >= 0 {
			won[p] |= 1 << uint(o)
			winners |= 1 << uint(p)
		}
	}
	for m := winners; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		grantedMask := won[p]
		r := &reqs[p]
		// First V:1 arbiter: the preferred sub-input if it can use a
		// granted output, otherwise the other one.
		s1 := pref
		m1 := r.want[s1] & grantedMask
		if m1 == 0 {
			s1 = other
			m1 = r.want[s1] & grantedMask
		}
		if m1 == 0 {
			continue // outputs were granted on stale requests; leave idle
		}
		o1 := bits.TrailingZeros64(m1)
		grants[p][s1] = o1
		// Second V:1 arbiter, in series: masked so it can only choose the
		// other sub-input, and never the output already taken.
		s2 := 1 - s1
		m2 := r.want[s2] & grantedMask &^ (1 << uint(o1))
		if m2 != 0 {
			o2 := bits.TrailingZeros64(m2)
			grants[p][s2] = o2
			// Conflict detection (§II.B.2): the low-end entry must use the
			// lower output column. Sub-input 0 enters from the low end.
			lo, hi := grants[p][0], grants[p][1]
			if lo > hi {
				// Swap logic reroutes the two flits through each other's
				// physical entry point; both grants stand.
				d.swaps++
			}
		}
	}
	return grants
}
