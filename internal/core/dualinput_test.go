package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dxbar/internal/flit"
)

// dualRequest is one input port's candidates in the tests' request lists:
// want[s] is sub-input s's output mask (0 = no request) and age[s] its flit's
// age key.
type dualRequest struct {
	want [2]uint8
	age  [2]uint64
}

// load asks every non-empty request of reqs, port by port.
func (d *dualInput) load(reqs []dualRequest) {
	for p := range reqs {
		for s := 0; s < 2; s++ {
			if w := reqs[p].want[s]; w != 0 {
				d.ask(p, s, w, reqs[p].age[s])
			}
		}
	}
}

// grantList unpacks an allocation's results into one grant per port, -1 on
// both sub-inputs of a port outside granted.
func (d *dualInput) grantList(granted uint8) []dualGrant {
	g := make([]dualGrant, flit.NumPorts)
	for p := range g {
		g[p] = dualGrant{-1, -1}
		if granted>>uint(p)&1 != 0 {
			g[p] = d.grants[p]
		}
	}
	return g
}

// allocateReqs runs one allocation round over reqs.
func (d *dualInput) allocateReqs(reqs []dualRequest, preferBuffered bool) []dualGrant {
	d.load(reqs)
	return d.grantList(d.allocate(preferBuffered))
}

// allocateRef is the dual-input allocation with the branchy stage 1 that
// allocate's bit-parallel one replaced, kept as its oracle, and without
// allocate's conflict-free shortcut: per output, a scan of every port, the
// preferred class beating the other, then the lower age, ties to the lower
// port index. Stage 2 is the allocator's own.
func (d *dualInput) allocateRef(reqs []dualRequest, preferBuffered bool) []dualGrant {
	pref, other := subBufferless, subBuffered
	if preferBuffered {
		pref, other = subBuffered, subBufferless
	}
	d.load(reqs)
	d.won = [flit.NumPorts]uint8{}
	var winners uint8
	for o := 0; o < flit.NumPorts; o++ {
		bit := uint8(1) << uint(o)
		bestPort, bestClass := -1, 2
		var bestAge uint64
		for p := range reqs {
			r := &reqs[p]
			class := 2
			var age uint64
			if r.want[pref]&bit != 0 {
				class, age = 0, r.age[pref]
			} else if r.want[other]&bit != 0 {
				class, age = 1, r.age[other]
			}
			if class == 2 {
				continue
			}
			if class < bestClass || (class == bestClass && age < bestAge) {
				bestPort, bestClass, bestAge = p, class, age
			}
		}
		if bestPort >= 0 {
			d.won[bestPort] |= bit
			winners |= 1 << uint(bestPort)
		}
	}
	granted := d.stage2(winners, pref)
	d.clear()
	return d.grantList(granted)
}

func TestDualInputBothSubInputsSameCycle(t *testing.T) {
	// The headline capability (paper Fig. 4(b)): I0 (bufferless) to O2 and
	// I0' (buffered) to O3, simultaneously, from the same input port.
	d := new(dualInput)
	reqs := make([]dualRequest, 5)
	reqs[0].want[subBufferless] = 1 << 2
	reqs[0].age[subBufferless] = 10
	reqs[0].want[subBuffered] = 1 << 3
	reqs[0].age[subBuffered] = 5
	g := d.allocateReqs(reqs, false)
	if g[0][subBufferless] != 2 || g[0][subBuffered] != 3 {
		t.Fatalf("grants = %v, want sub0->2 sub1->3", g[0])
	}
}

func TestDualInputIncomingPriorityOverBuffered(t *testing.T) {
	// Two ports want the same output; port 0 offers a buffered flit (older),
	// port 1 an incoming flit (younger). Without the fairness flip, the
	// incoming class wins.
	d := new(dualInput)
	reqs := make([]dualRequest, 5)
	reqs[0].want[subBuffered] = 1 << 4
	reqs[0].age[subBuffered] = 1 // older
	reqs[1].want[subBufferless] = 1 << 4
	reqs[1].age[subBufferless] = 100 // younger
	g := d.allocateReqs(reqs, false)
	if g[1][subBufferless] != 4 {
		t.Fatalf("incoming flit must win output 4, grants %v", g)
	}
	if g[0][subBuffered] != -1 {
		t.Fatalf("buffered flit must lose, grants %v", g)
	}
}

func TestDualInputFairnessFlip(t *testing.T) {
	// Same scenario with preferBuffered: the buffered class now wins.
	d := new(dualInput)
	reqs := make([]dualRequest, 5)
	reqs[0].want[subBuffered] = 1 << 4
	reqs[0].age[subBuffered] = 1
	reqs[1].want[subBufferless] = 1 << 4
	reqs[1].age[subBufferless] = 100
	g := d.allocateReqs(reqs, true)
	if g[0][subBuffered] != 4 {
		t.Fatalf("buffered flit must win under flipped priority, grants %v", g)
	}
	if g[1][subBufferless] != -1 {
		t.Fatalf("incoming flit must lose under flipped priority, grants %v", g)
	}
}

func TestDualInputAgeWithinClass(t *testing.T) {
	d := new(dualInput)
	reqs := make([]dualRequest, 5)
	reqs[2].want[subBufferless] = 1 << 0
	reqs[2].age[subBufferless] = 50
	reqs[3].want[subBufferless] = 1 << 0
	reqs[3].age[subBufferless] = 7 // older, must win
	g := d.allocateReqs(reqs, false)
	if g[3][subBufferless] != 0 || g[2][subBufferless] != -1 {
		t.Fatalf("oldest incoming flit must win, grants %v", g)
	}
}

func TestDualInputConflictSwapCounted(t *testing.T) {
	// Sub-input 0 granted a HIGHER output than sub-input 1 violates the
	// segmentation ordering and must be repaired by a counted swap.
	d := new(dualInput)
	reqs := make([]dualRequest, 5)
	reqs[1].want[subBufferless] = 1 << 4
	reqs[1].age[subBufferless] = 3
	reqs[1].want[subBuffered] = 1 << 2
	reqs[1].age[subBuffered] = 9
	g := d.allocateReqs(reqs, false)
	if g[1][subBufferless] != 4 || g[1][subBuffered] != 2 {
		t.Fatalf("both sub-inputs must be granted, grants %v", g)
	}
	if d.swaps != 1 {
		t.Fatalf("swaps = %d, want 1", d.swaps)
	}
	// The non-conflicting orientation must not count a swap.
	d2 := new(dualInput)
	reqs[1].want[subBufferless] = 1 << 2
	reqs[1].want[subBuffered] = 1 << 4
	d2.allocateReqs(reqs, false)
	if d2.swaps != 0 {
		t.Fatalf("swaps = %d, want 0", d2.swaps)
	}
}

func TestDualInputSecondArbiterCannotReuseSubInput(t *testing.T) {
	// One sub-input requesting two outputs gets exactly one grant; the
	// second serial arbiter serves only the other sub-input.
	d := new(dualInput)
	reqs := make([]dualRequest, 5)
	reqs[0].want[subBufferless] = 1<<1 | 1<<2
	reqs[0].age[subBufferless] = 1
	g := d.allocateReqs(reqs, false)
	granted := 0
	if g[0][subBufferless] != -1 {
		granted++
	}
	if g[0][subBuffered] != -1 {
		granted++
	}
	if granted != 1 {
		t.Fatalf("single flit must receive exactly one output, grants %v", g)
	}
}

func TestDualInputInjectionPortModel(t *testing.T) {
	// The PE injection port presents only a buffered-side candidate and can
	// still win an uncontended output.
	d := new(dualInput)
	reqs := make([]dualRequest, 5)
	reqs[4].want[subBuffered] = 1 << 0
	reqs[4].age[subBuffered] = 3
	g := d.allocateReqs(reqs, false)
	if g[4][subBuffered] != 0 {
		t.Fatalf("uncontended injection must win, grants %v", g)
	}
}

// Property: the dual-input allocation is always physically valid — every
// granted (port, sub-input, output) was requested, no output is granted
// twice, and each sub-input receives at most one output.
func TestDualInputValidityProperty(t *testing.T) {
	d := new(dualInput)
	f := func(w0, w1 [5]uint8, a0, a1 [5]uint8, flip bool) bool {
		reqs := make([]dualRequest, 5)
		for p := 0; p < 5; p++ {
			reqs[p].want[0] = w0[p] & 0x1f
			reqs[p].want[1] = w1[p] & 0x1f
			reqs[p].age[0] = uint64(a0[p])
			reqs[p].age[1] = uint64(a1[p])
		}
		g := d.allocateReqs(reqs, flip)
		usedOut := map[int]bool{}
		for p := 0; p < 5; p++ {
			for s := 0; s < 2; s++ {
				o := g[p][s]
				if o == -1 {
					continue
				}
				if o < 0 || o > 4 {
					return false
				}
				if reqs[p].want[s]&(1<<uint(o)) == 0 {
					return false // unrequested grant
				}
				if usedOut[int(o)] {
					return false // double-booked output
				}
				usedOut[int(o)] = true
			}
			// Same port granted two outputs => they must differ.
			if g[p][0] != -1 && g[p][0] == g[p][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: if exactly one port requests output o (on either sub-input),
// that port is granted o — the allocator wastes no uncontended output.
func TestDualInputWorkConservingSingleRequester(t *testing.T) {
	d := new(dualInput)
	f := func(port, out, sub uint8, age uint8) bool {
		p := int(port) % 5
		o := int(out) % 5
		s := int(sub) % 2
		reqs := make([]dualRequest, 5)
		reqs[p].want[s] = 1 << uint(o)
		reqs[p].age[s] = uint64(age)
		g := d.allocateReqs(reqs, false)
		return int(g[p][s]) == o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDualInputFlipTiebreak pins the exact interaction the fairness flip is
// for: same output, buffered side older on one port, bufferless younger on
// another, plus a same-class age tie — the flip must change the winner and
// the tie must still break on the lower port index in both stage-1 forms.
func TestDualInputFlipTiebreak(t *testing.T) {
	build := func() []dualRequest {
		reqs := make([]dualRequest, 5)
		// Ports 1 and 3: same class (bufferless), same age — index tie.
		reqs[1].want[subBufferless] = 1 << 2
		reqs[1].age[subBufferless] = 9
		reqs[3].want[subBufferless] = 1 << 2
		reqs[3].age[subBufferless] = 9
		// Port 0 buffered (older) vs the pair above on the same output.
		reqs[0].want[subBuffered] = 1 << 2
		reqs[0].age[subBuffered] = 1
		return reqs
	}
	for _, flip := range []bool{false, true} {
		ref := new(dualInput).allocateRef(build(), flip)
		fast := new(dualInput).allocateReqs(build(), flip)
		for p := 0; p < 5; p++ {
			if ref[p] != fast[p] {
				t.Fatalf("flip=%v port %d: reference %v, fast %v", flip, p, ref[p], fast[p])
			}
		}
		if flip {
			if ref[0][subBuffered] != 2 {
				t.Fatalf("flip must hand output 2 to the buffered side, grants %v", ref)
			}
		} else if ref[1][subBufferless] != 2 {
			t.Fatalf("without flip the lower-indexed bufferless port must win, grants %v", ref)
		}
	}
}

func TestDualInputPanicsOnBadInput(t *testing.T) {
	for _, c := range []struct {
		port int
		want uint8
	}{{0, 1 << flit.NumPorts}, {flit.NumPorts, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ask(port %d, want %06b) outside the 5×5 crossbar must panic", c.port, c.want)
				}
			}()
			new(dualInput).ask(c.port, subBufferless, c.want, 0)
		}()
	}
}

// TestDualInputFastMatchesReference drives allocate and allocateRef on two
// allocators in lockstep over random dual-request streams, including the
// fairness-counter priority flip, and checks grants and swap counts match.
// Every random round is followed by a one-hot round — each request wants a
// single output, as under DOR — that is conflict-free unless its last
// request reuses an output, so both of allocate's paths are held to the
// reference's stage 1 + 2.
func TestDualInputFastMatchesReference(t *testing.T) {
	const ports, outs = 5, 5
	ref, fast := new(dualInput), new(dualInput)
	reqs := make([]dualRequest, ports)
	rng := rand.New(rand.NewSource(23))
	oneHot := rand.New(rand.NewSource(29))
	free := 0
	step := func(round int, flip bool) {
		t.Helper()
		gr := ref.allocateRef(reqs, flip)
		gf := fast.allocateReqs(reqs, flip)
		for p := range gr {
			if gr[p] != gf[p] {
				t.Fatalf("round %d port %d: ref=%v fast=%v (flip=%v, reqs=%v)", round, p, gr[p], gf[p], flip, reqs)
			}
		}
		if ref.swaps != fast.swaps {
			t.Fatalf("round %d: swap counts diverge ref=%d fast=%d", round, ref.swaps, fast.swaps)
		}
	}
	for round := 0; round < 16384; round++ {
		for p := range reqs {
			var r dualRequest
			for s := 0; s < 2; s++ {
				if rng.Intn(3) != 0 {
					r.want[s] = uint8(rng.Uint64() & (1<<outs - 1))
					// Small age range so age ties across ports actually occur
					// and exercise the port-index tiebreak.
					r.age[s] = uint64(rng.Intn(4))
				}
			}
			reqs[p] = r
		}
		step(round, rng.Intn(2) == 0)

		clear(reqs)
		slots := oneHot.Perm(2 * ports)
		n := oneHot.Intn(outs + 1)
		for k, o := range oneHot.Perm(outs)[:n] {
			if k == n-1 && oneHot.Intn(4) == 0 {
				o = oneHot.Intn(outs) // maybe an output already asked for
			}
			r := &reqs[slots[k]/2]
			r.want[slots[k]%2], r.age[slots[k]%2] = 1<<uint(o), uint64(oneHot.Intn(4))
		}
		fast.load(reqs)
		if fast.clash == 0 {
			free++
		}
		fast.clear()
		step(round, oneHot.Intn(2) == 0)
	}
	if free < 16384/2 {
		t.Fatalf("only %d one-hot rounds were conflict-free", free)
	}
}
