package core

import (
	"math/bits"

	"dxbar/internal/flit"
)

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

// dualGrant is the allocation result for one input port: the output granted
// to each sub-input, or -1.
type dualGrant [2]int8

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
//
// A round is the router's ask calls — its request gather — then one
// allocate, which consumes them. The gather also builds stage 1's input, the
// per-output requester masks, and notes whether the round has a conflict at
// all: without one, every request is granted as asked.
type dualInput struct {
	swaps uint64
	// want[p][s] and age[p][s] are the round's request of port p's
	// sub-input s: its output mask and its flit's age key (lower wins).
	want [flit.NumPorts][2]uint8
	age  [flit.NumPorts][2]uint64
	// outReq[s][o] has bit p set when port p's sub-input s wants output o.
	outReq [2][flit.NumPorts]uint8
	// ports and asked are the round's requesting ports and wanted outputs;
	// clash is non-zero once a request wants two outputs or an output is
	// wanted twice.
	ports, asked, clash uint8
	// won[p] is the outputs port p won in stage 1 (per-allocate scratch).
	won [flit.NumPorts]uint8
	// grants[p] is port p's result, valid where allocate's mask has bit p.
	grants [flit.NumPorts]dualGrant
}

// ask adds port p's sub-input s to the round: a flit of age key age wanting
// the outputs of want (non-zero, within the crossbar's outputs).
func (d *dualInput) ask(p, s int, want uint8, age uint64) {
	d.want[p][s], d.age[p][s] = want, age
	d.ports |= 1 << uint(p)
	d.clash |= want&(want-1) | want&d.asked
	d.asked |= want
	for m := want; m != 0; m &= m - 1 {
		d.outReq[s][bits.TrailingZeros8(m)] |= 1 << uint(p)
	}
}

// clear empties the round's requests.
func (d *dualInput) clear() {
	for m := d.ports; m != 0; m &= m - 1 {
		d.want[bits.TrailingZeros8(m)] = [2]uint8{}
	}
	d.outReq = [2][flit.NumPorts]uint8{}
	d.ports, d.asked, d.clash = 0, 0, 0
}

// allocate computes the dual-input matching of the round's requests and
// returns the ports it granted anything to; grants holds their results. It
// consumes the round. preferBuffered flips the priority class between the
// bufferless and buffered sub-inputs (the fairness counter of §II.A.2 drives
// this). Each output is granted to at most one (port, sub-input); each port
// receives at most two grants, one per sub-input, on distinct outputs.
//
// Stage 1 reads the per-output requester masks the gather built: the class
// priority falls out of which mask is non-empty, and the age minimum scans
// only actual requesters; ties break on the lower port index. A round
// without a conflict — every request wants one output, no output is wanted
// twice — skips both stages: each output's only requester wins it, and each
// port's arbiters then grant each sub-input the output it asked for.
func (d *dualInput) allocate(preferBuffered bool) (granted uint8) {
	if d.clash == 0 {
		for m := d.ports; m != 0; m &= m - 1 {
			p := bits.TrailingZeros8(m)
			w := d.want[p]
			d.grants[p] = dualGrant{grantOf(w[0]), grantOf(w[1])}
			if w[1] != 0 && w[0] > w[1] {
				d.swaps++ // one-hot masks order as their outputs do
			}
		}
		granted = d.ports
		d.clear()
		return granted
	}
	pref := subBufferless
	if preferBuffered {
		pref = subBuffered
	}
	d.won = [flit.NumPorts]uint8{}
	var winners uint8
	for m := d.asked; m != 0; m &= m - 1 {
		o := bits.TrailingZeros8(m)
		r, sub := d.outReq[pref][o], pref
		if r == 0 {
			r, sub = d.outReq[1-pref][o], 1-pref
		}
		// Minimum age over the set bits; ties break on the lower port index,
		// which the ascending bit scan with a strict comparison preserves.
		best := bits.TrailingZeros8(r)
		bestAge := d.age[best][sub]
		for rr := r & (r - 1); rr != 0; rr &= rr - 1 {
			p := bits.TrailingZeros8(rr)
			if a := d.age[p][sub]; a < bestAge {
				best, bestAge = p, a
			}
		}
		d.won[best] |= 1 << uint(o)
		winners |= 1 << uint(best)
	}
	granted = d.stage2(winners, pref)
	d.clear()
	return granted
}

// grantOf is the output a one-hot request mask asks for, or -1 for none.
func grantOf(want uint8) int8 {
	if want == 0 {
		return -1
	}
	return int8(bits.TrailingZeros8(want))
}

// stage2 runs the per-port serial V:1 arbitration over what the winners
// won in stage 1 (d.won) and returns the ports it granted.
func (d *dualInput) stage2(winners uint8, pref int) (granted uint8) {
	for m := winners; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		grantedMask := d.won[p]
		w := &d.want[p]
		// First V:1 arbiter: the preferred sub-input if it can use a
		// granted output, otherwise the other one.
		s1 := pref
		m1 := w[s1] & grantedMask
		if m1 == 0 {
			s1 = 1 - pref
			m1 = w[s1] & grantedMask
		}
		if m1 == 0 {
			continue // outputs were granted on stale requests; leave idle
		}
		g := dualGrant{-1, -1}
		o1 := bits.TrailingZeros8(m1)
		g[s1] = int8(o1)
		// Second V:1 arbiter, in series: masked so it can only choose the
		// other sub-input, and never the output already taken.
		s2 := 1 - s1
		if m2 := w[s2] & grantedMask &^ (1 << uint(o1)); m2 != 0 {
			g[s2] = int8(bits.TrailingZeros8(m2))
			// Conflict detection (§II.B.2): the low-end entry must use the
			// lower output column. Sub-input 0 enters from the low end.
			if g[0] > g[1] {
				// Swap logic reroutes the two flits through each other's
				// physical entry point; both grants stand.
				d.swaps++
			}
		}
		d.grants[p] = g
		granted |= 1 << uint(p)
	}
	return granted
}
