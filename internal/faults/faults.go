// Package faults implements the crossbar-fault injection methodology of
// §III.E: faults are generated randomly over the routers of the network with
// a fixed seed and a varying percentage; each affected router loses one of
// its two crossbars (primary or secondary) at a manifestation cycle, and the
// (assumed) BIST circuitry flags the fault a fixed number of router cycles
// later — five in the paper's optimistic assumption.
package faults

import (
	"fmt"
	"math/rand"
)

// CrossbarID selects which of a DXbar router's two crossbars fails.
type CrossbarID int

// The two crossbars of a dual-crossbar router.
const (
	Primary CrossbarID = iota
	Secondary
)

// String returns the crossbar name.
func (c CrossbarID) String() string {
	if c == Primary {
		return "primary"
	}
	return "secondary"
}

// DefaultDetectionDelay is the paper's assumed BIST detection latency in
// router cycles ("the number of cycles for fault detection is
// optimistically assumed to be five").
const DefaultDetectionDelay = 5

// Granularity selects how much of a crossbar a fault takes out.
type Granularity int

// Fault granularities. The paper's §III.E experiments fail whole crossbars
// ("the effect of failure of one crossbar within the router"); §I also
// frames faults as occurring "at the crosspoints connecting any input to
// output", which Crosspoint models.
const (
	// WholeCrossbar kills one entire fabric of the router.
	WholeCrossbar Granularity = iota
	// Crosspoint kills a single input→output crosspoint.
	Crosspoint
)

// String returns the granularity name.
func (g Granularity) String() string {
	if g == Crosspoint {
		return "crosspoint"
	}
	return "crossbar"
}

// Fault is one permanent fault.
type Fault struct {
	Router        int
	Crossbar      CrossbarID
	ManifestCycle uint64
	// Granularity defaults to WholeCrossbar; with Crosspoint, In and Out
	// identify the failed crosspoint.
	Granularity Granularity
	In, Out     int
}

// Plan is the set of faults injected into one simulation run.
type Plan struct {
	// DetectionDelay is the BIST latency in cycles from manifestation to
	// detection.
	DetectionDelay uint64
	byRouter       map[int]Fault
}

// NewPlan builds a fault plan: fraction ∈ [0, 1] of the n routers receive
// one failed crossbar each (chosen uniformly between primary and secondary),
// manifesting at manifestCycle. The same seed with the same fraction always
// yields the same plan ("randomly generated at different crossbars with the
// same random seed but varying percentages of faults"), and plans for
// increasing fractions are nested: the 25% faults are a subset of the 50%
// faults, and so on, because the router permutation and crossbar choices are
// drawn identically before truncation.
func NewPlan(n int, fraction float64, manifestCycle uint64, seed int64) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("faults: invalid router count %d", n)
	}
	if !(fraction >= 0 && fraction <= 1) { // NaN fails both
		return nil, fmt.Errorf("faults: fraction %v out of [0,1]", fraction)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	// Draw every router's crossbar choice up front so truncation at any
	// fraction keeps the shared prefix identical.
	choice := make([]CrossbarID, n)
	for i := range choice {
		choice[i] = CrossbarID(rng.Intn(2))
	}
	count := int(fraction*float64(n) + 0.5)
	p := &Plan{DetectionDelay: DefaultDetectionDelay, byRouter: make(map[int]Fault, count)}
	for i := 0; i < count; i++ {
		r := perm[i]
		p.byRouter[r] = Fault{Router: r, Crossbar: choice[i], ManifestCycle: manifestCycle}
	}
	return p, nil
}

// NewCrosspointPlan is NewPlan at crosspoint granularity: each affected
// router loses a single random crosspoint of one crossbar. Crosspoints on
// the four link-input rows are drawn (the injection row is spared so a
// node's PE is never structurally cut off). Nesting across fractions holds
// as for NewPlan.
func NewCrosspointPlan(n int, fraction float64, manifestCycle uint64, seed int64) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("faults: invalid router count %d", n)
	}
	if !(fraction >= 0 && fraction <= 1) {
		return nil, fmt.Errorf("faults: fraction %v out of [0,1]", fraction)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	type pick struct {
		cb      CrossbarID
		in, out int
	}
	picks := make([]pick, n)
	for i := range picks {
		picks[i] = pick{
			cb:  CrossbarID(rng.Intn(2)),
			in:  rng.Intn(4), // link-input rows only
			out: rng.Intn(5),
		}
	}
	count := int(fraction*float64(n) + 0.5)
	p := &Plan{DetectionDelay: DefaultDetectionDelay, byRouter: make(map[int]Fault, count)}
	for i := 0; i < count; i++ {
		r := perm[i]
		p.byRouter[r] = Fault{
			Router: r, Crossbar: picks[i].cb, ManifestCycle: manifestCycle,
			Granularity: Crosspoint, In: picks[i].in, Out: picks[i].out,
		}
	}
	return p, nil
}

// Empty returns a plan with no faults.
func Empty() *Plan {
	return &Plan{DetectionDelay: DefaultDetectionDelay, byRouter: map[int]Fault{}}
}

// ForRouter returns the fault affecting router r, if any.
func (p *Plan) ForRouter(r int) (Fault, bool) {
	f, ok := p.byRouter[r]
	return f, ok
}

// Count returns the number of faulty routers in the plan.
func (p *Plan) Count() int { return len(p.byRouter) }

// Detector tracks the BIST state machine for one fault: the fault is latent
// until ManifestCycle, manifest (misbehaving, undetected) for DetectionDelay
// cycles, then detected.
type Detector struct {
	fault  Fault
	delay  uint64
	active bool
}

// NewDetector returns a detector for the given fault; active=false yields a
// detector that never fires (healthy router).
func NewDetector(f Fault, delay uint64, active bool) *Detector {
	return &Detector{fault: f, delay: delay, active: active}
}

// Manifest reports whether the fault physically affects the hardware at the
// given cycle (whether or not it has been detected yet).
func (d *Detector) Manifest(cycle uint64) bool {
	return d.active && cycle >= d.fault.ManifestCycle
}

// Detected reports whether BIST has flagged the fault by the given cycle.
func (d *Detector) Detected(cycle uint64) bool {
	return d.active && cycle >= d.fault.ManifestCycle+d.delay
}

// Fault returns the detector's fault description.
func (d *Detector) Fault() Fault { return d.fault }

// Active reports whether this detector is armed at all.
func (d *Detector) Active() bool { return d.active }
