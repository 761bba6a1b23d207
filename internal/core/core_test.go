package core

import (
	"testing"

	"dxbar/internal/energy"
	"dxbar/internal/faults"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

type scripted struct {
	specs []*traffic.PacketSpec
}

func (s *scripted) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	var out []*traffic.PacketSpec
	for _, sp := range s.specs {
		if sp.Src == node && sp.Cycle == cycle {
			out = append(out, sp)
		}
	}
	return out
}

type harness struct {
	eng     *sim.Engine
	coll    *stats.Collector
	meter   *energy.Meter
	mesh    *topology.Mesh
	routers map[int]sim.Router
}

type opts struct {
	unified   bool
	algo      routing.Algorithm
	threshold int
	plan      *faults.Plan
}

func newHarness(t *testing.T, o opts, specs ...*traffic.PacketSpec) *harness {
	t.Helper()
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 0, 100000)
	meter := energy.NewMeter()
	if o.unified {
		meter = energy.NewUnifiedMeter()
	}
	if o.algo == nil {
		o.algo = routing.DOR{}
	}
	if o.threshold == 0 {
		o.threshold = FairnessThreshold
	}
	if o.plan == nil {
		o.plan = faults.Empty()
	}
	routers := map[int]sim.Router{}
	eng, err := sim.New(sim.Config{
		Mesh: mesh, Meter: meter, Stats: coll,
		Source: &scripted{specs: specs}, BufferDepth: BufferDepth,
	}, func(env *sim.Env) sim.Router {
		f, ok := o.plan.ForRouter(env.Node)
		det := faults.NewDetector(f, o.plan.DetectionDelay, ok)
		var r sim.Router
		if o.unified {
			r = NewUnified(env, o.algo, o.threshold, det)
		} else {
			r = NewDXbar(env, o.algo, o.threshold, det)
		}
		routers[env.Node] = r
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{eng: eng, coll: coll, meter: meter, mesh: mesh, routers: routers}
}

func spec(id uint64, src, dst int, cycle uint64) *traffic.PacketSpec {
	return &traffic.PacketSpec{ID: id, Src: src, Dst: dst, NumFlits: 1, Cycle: cycle}
}

func forBoth(t *testing.T, f func(t *testing.T, unified bool)) {
	t.Run("dxbar", func(t *testing.T) { f(t, false) })
	t.Run("unified", func(t *testing.T) { f(t, true) })
}

// Uncontended traffic must flow bufferless: 2 cycles/hop, zero buffer
// events (paper Fig. 3a: "the network operates similarly to a bufferless
// network ... the best case scenario").
func TestUncontendedFlitNeverBuffers(t *testing.T) {
	forBoth(t, func(t *testing.T, unified bool) {
		h := newHarness(t, opts{unified: unified}, spec(1, 0, 15, 0))
		h.eng.Run(20)
		r := h.coll.Results()
		if r.Packets != 1 {
			t.Fatalf("packets = %d", r.Packets)
		}
		if r.AvgLatency != 12 {
			t.Errorf("latency = %v, want 12 (6 hops x 2 cycles)", r.AvgLatency)
		}
		c := h.meter.Snapshot()
		if c.BufferWrites != 0 || c.BufferReads != 0 {
			t.Errorf("uncontended flit buffered: %d writes / %d reads", c.BufferWrites, c.BufferReads)
		}
	})
}

// Four flits crossing a router toward four different outputs all switch in
// the same cycle (paper Fig. 3a).
func TestFourWayCrossingNoConflict(t *testing.T) {
	forBoth(t, func(t *testing.T, unified bool) {
		h := newHarness(t, opts{unified: unified},
			spec(1, 1, 13, 0), // S at node 5
			spec(2, 4, 6, 0),  // E at node 5
			spec(3, 6, 4, 0),  // W at node 5
			spec(4, 9, 1, 0),  // N at node 5
		)
		h.eng.Run(30)
		r := h.coll.Results()
		if r.Packets != 4 {
			t.Fatalf("packets = %d, want 4", r.Packets)
		}
		if c := h.meter.Snapshot(); c.BufferWrites != 0 {
			t.Errorf("crossing flits must not buffer, got %d writes", c.BufferWrites)
		}
	})
}

// A conflict buffers the younger flit in the secondary crossbar instead of
// deflecting or dropping it (paper Fig. 3b), and it proceeds when the port
// frees (Fig. 3d).
func TestConflictBuffersLoser(t *testing.T) {
	forBoth(t, func(t *testing.T, unified bool) {
		h := newHarness(t, opts{unified: unified},
			spec(1, 1, 9, 0),  // older: wins S at node 5
			spec(2, 6, 13, 0), // younger (DOR: W to 5, then S): buffered at 5
		)
		h.eng.Run(40)
		r := h.coll.Results()
		if r.Packets != 2 {
			t.Fatalf("packets = %d, want 2", r.Packets)
		}
		if r.DeflectionsPerPacket != 0 || r.DroppedFlits != 0 {
			t.Error("DXbar must neither deflect nor drop")
		}
		c := h.meter.Snapshot()
		if c.BufferWrites != 1 || c.BufferReads != 1 {
			t.Errorf("expected exactly one buffering, got %d/%d", c.BufferWrites, c.BufferReads)
		}
		// Each flit takes minimal hops despite the conflict: 1->9 is 2
		// hops, 6->13 is 3, so the average is 2.5.
		if r.AvgHops != 2.5 {
			t.Errorf("avg hops = %v, want 2.5 (minimal)", r.AvgHops)
		}
	})
}

// Paper Fig. 3c: the flit arriving right after a buffered flit sees a free
// primary path and proceeds without delay — buffering one flit must not
// back-pressure the next.
func TestNoInstantBackPressure(t *testing.T) {
	forBoth(t, func(t *testing.T, unified bool) {
		h := newHarness(t, opts{unified: unified},
			spec(1, 1, 9, 0),  // occupies S at node 5 (cycle 2)
			spec(2, 6, 13, 0), // buffered at node 5 (cycle 2)
			spec(3, 6, 4, 1),  // arrives node 5 at cycle 3: W output free, proceeds
		)
		h.eng.Run(40)
		r := h.coll.Results()
		if r.Packets != 3 {
			t.Fatalf("packets = %d, want 3", r.Packets)
		}
		c := h.meter.Snapshot()
		if c.BufferWrites != 1 {
			t.Errorf("only the conflicting flit may buffer, got %d writes", c.BufferWrites)
		}
	})
}

// Paper Fig. 3d: a buffered flit leaves through the secondary crossbar in
// the same cycle an incoming flit from the same input port crosses the
// primary — impossible in single-crossbar designs.
func TestBufferedAndIncomingSameInputSameCycle(t *testing.T) {
	forBoth(t, func(t *testing.T, unified bool) {
		// Stream A (older) occupies S at node 5 for cycles 2..4:
		//   1 -> 9 injected at 0, 1, 2.
		// Flit B: 6 -> 13 arrives at 5 cycle 2, buffered (S taken).
		// Flit C: 6 -> 4 arrives at 5 cycle 4 via the same W input; by
		// then B is at the buffer head wanting S (still busy at 4? stream
		// ends: last stream flit passes S at cycle 4). B leaves at cycle 5
		// through S while C proceeds W->... both from input port East of
		// node 5? 6->5 arrives on 5's East input. C wants W at 5.
		h := newHarness(t, opts{unified: unified},
			spec(1, 1, 9, 0),
			spec(2, 1, 9, 1),
			spec(3, 1, 9, 2),
			spec(4, 6, 13, 0), // buffered behind the stream
			spec(5, 6, 4, 2),  // same input port as the buffered flit
		)
		h.eng.Run(60)
		r := h.coll.Results()
		if r.Packets != 5 {
			t.Fatalf("packets = %d, want 5", r.Packets)
		}
		if r.DroppedFlits != 0 {
			t.Error("no drops allowed")
		}
	})
}

// Age-based priority: the older incoming flit wins the conflict.
func TestOlderIncomingWins(t *testing.T) {
	forBoth(t, func(t *testing.T, unified bool) {
		h := newHarness(t, opts{unified: unified},
			spec(10, 6, 13, 0), // injected first => older
			spec(11, 1, 9, 1),  // injected later => younger
		)
		// Flit 10 reaches node 5 at cycle 2 (W hop), wants S.
		// Flit 11 reaches node 5 at cycle 3, wants S: no conflict (cycles
		// differ) — instead inject both at same arrival: 10 at c0 from 6
		// (arrives c2), 11 from 1 at c0 (arrives c2), same cycle: 10 older.
		h2 := newHarness(t, opts{unified: unified},
			spec(10, 6, 13, 0),
			spec(11, 1, 9, 0),
		)
		h2.eng.Run(60)
		r := h2.coll.Results()
		if r.Packets != 2 {
			t.Fatalf("packets = %d", r.Packets)
		}
		// The younger (11, same cycle but higher ID) must be the buffered
		// one; verify exactly one buffering happened.
		if c := h2.meter.Snapshot(); c.BufferWrites != 1 {
			t.Errorf("buffer writes = %d, want 1", c.BufferWrites)
		}
		h.eng.Run(60)
		if h.coll.Results().Packets != 2 {
			t.Error("staggered pair must deliver")
		}
	})
}

// The injection port has buffered-class priority: it injects whenever the
// desired output port is not occupied (paper Fig. 3c) and is never starved
// forever thanks to the fairness counter.
func TestInjectionUnderContention(t *testing.T) {
	forBoth(t, func(t *testing.T, unified bool) {
		specs := []*traffic.PacketSpec{}
		id := uint64(1)
		// A continuous older stream through node 5 heading South.
		for c := uint64(0); c < 20; c++ {
			specs = append(specs, spec(id, 1, 9, c))
			id++
		}
		// Node 5 wants to inject southward too.
		specs = append(specs, spec(100, 5, 13, 5))
		h := newHarness(t, opts{unified: unified}, specs...)
		h.eng.Run(150)
		r := h.coll.Results()
		if r.Packets != uint64(len(specs)) {
			t.Fatalf("packets = %d, want %d (injection starved?)", r.Packets, len(specs))
		}
	})
}

// With threshold = 1 the fairness flip happens immediately; with a huge
// threshold the stream monopolizes the port longer. Injection latency must
// reflect that ordering.
func TestFairnessThresholdEffect(t *testing.T) {
	lat := func(threshold int) float64 {
		specs := []*traffic.PacketSpec{}
		id := uint64(1)
		for c := uint64(0); c < 30; c++ {
			specs = append(specs, spec(id, 1, 9, c))
			id++
		}
		specs = append(specs, spec(100, 5, 13, 2))
		h := newHarness(t, opts{threshold: threshold}, specs...)
		h.eng.Run(200)
		return float64(h.coll.Results().MaxLatency)
	}
	small, large := lat(1), lat(1000)
	if small >= large {
		t.Errorf("threshold 1 max latency %v must beat threshold 1000 %v", small, large)
	}
}

// Fault tolerance: a primary-crossbar failure degrades the router to
// buffered operation; traffic still flows minimally.
func TestPrimaryCrossbarFault(t *testing.T) {
	plan := planWith(t, 5, faults.Primary, 0)
	h := newHarness(t, opts{plan: plan},
		spec(1, 4, 6, 0),  // crosses node 5 eastward
		spec(2, 1, 13, 3), // crosses node 5 southward
	)
	h.eng.Run(80)
	r := h.coll.Results()
	if r.Packets != 2 {
		t.Fatalf("packets = %d, want 2", r.Packets)
	}
	// Flits crossing node 5 must have been buffered there.
	if c := h.meter.Snapshot(); c.BufferWrites == 0 {
		t.Error("primary fault must force buffering")
	}
	// Routes stay minimal: 4->6 is 2 hops, 1->13 is 3.
	if r.AvgHops != 2.5 {
		t.Errorf("avg hops = %v, want 2.5 (routes stay minimal)", r.AvgHops)
	}
}

// Fault tolerance: a secondary-crossbar failure leaves the bufferless path
// intact; conflicting flits use the buffers and drain through the primary
// crossbar via the 2x2 steering.
func TestSecondaryCrossbarFault(t *testing.T) {
	plan := planWith(t, 5, faults.Secondary, 0)
	h := newHarness(t, opts{plan: plan},
		spec(1, 1, 9, 0),  // wins S at node 5
		spec(2, 6, 13, 0), // buffered at node 5, must drain via primary
	)
	h.eng.Run(100)
	r := h.coll.Results()
	if r.Packets != 2 {
		t.Fatalf("packets = %d, want 2 (buffered flit stuck?)", r.Packets)
	}
}

// During the BIST detection window flits are not lost — they wait or
// buffer, and everything still arrives.
func TestDetectionWindowLossless(t *testing.T) {
	plan := planWith(t, 5, faults.Primary, 2) // manifests mid-traffic
	specs := []*traffic.PacketSpec{}
	id := uint64(1)
	for c := uint64(0); c < 10; c++ {
		specs = append(specs, spec(id, 4, 7, c)) // stream through node 5,6
		id++
	}
	h := newHarness(t, opts{plan: plan}, specs...)
	h.eng.Run(200)
	if got := h.coll.Results().Packets; got != uint64(len(specs)) {
		t.Fatalf("packets = %d, want %d", got, len(specs))
	}
}

// The unified allocator's swap logic fires when the two same-port grants
// are ordered against the segmentation direction; traffic is unaffected.
func TestUnifiedSwapOccursAndIsHarmless(t *testing.T) {
	// Stream that repeatedly creates same-input dual traversals: an
	// incoming flit to a high output with a buffered flit to a low output
	// and vice versa. Rather than constructing one exact cycle, run a hot
	// mix through one router and assert deliveries + swap counter >= 0.
	specs := []*traffic.PacketSpec{}
	id := uint64(1)
	for c := uint64(0); c < 30; c++ {
		specs = append(specs, spec(id, 1, 9, c)) // S through 5
		id++
		specs = append(specs, spec(id, 6, 4, c)) // W through 5
		id++
		specs = append(specs, spec(id, 6, 13, c)) // W then S: conflicts at 5
		id++
	}
	h := newHarness(t, opts{unified: true}, specs...)
	h.eng.Run(400)
	r := h.coll.Results()
	if r.Packets != uint64(len(specs)) {
		t.Fatalf("packets = %d, want %d", r.Packets, len(specs))
	}
	u := h.routers[5].(*Unified)
	t.Logf("swaps at node 5: %d, fairness flips: %d", u.Swaps(), u.FairnessFlips())
}

// planWith builds a single-router fault plan by searching seeds (NewPlan
// randomizes placement; tests need a specific router/crossbar).
func planWith(t *testing.T, router int, cb faults.CrossbarID, manifest uint64) *faults.Plan {
	t.Helper()
	for seed := int64(0); seed < 10000; seed++ {
		p, err := faults.NewPlan(16, 1.0/16.0, manifest, seed)
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := p.ForRouter(router); ok && f.Crossbar == cb {
			return p
		}
	}
	t.Fatal("no seed placed the requested fault")
	return nil
}

// Occupancy accessor must reflect buffered flits.
func TestOccupancyAccessor(t *testing.T) {
	h := newHarness(t, opts{},
		spec(1, 1, 9, 0),
		spec(2, 6, 13, 0),
	)
	h.eng.Run(3) // flit 2 buffered at node 5 at cycle 2
	d := h.routers[5].(*DXbar)
	if d.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", d.Occupancy())
	}
	h.eng.Run(40)
	if d.Occupancy() != 0 {
		t.Errorf("occupancy must drain, got %d", d.Occupancy())
	}
}

// WF adaptive re-direction of buffered flits: with the preferred direction
// congested, a buffered flit departs through the alternate productive port
// (the §II.B "re-directing the buffered flit" behaviour), and the
// congestion-aware ordering prefers the port with more credits.
func TestWFWaiterRedirection(t *testing.T) {
	specs := []*traffic.PacketSpec{}
	id := uint64(1)
	// Keep the South output of node 5 saturated with older traffic.
	for c := uint64(0); c < 25; c++ {
		specs = append(specs, spec(id, 1, 9, c))
		id++
	}
	// An SE-bound flit conflicts at node 5 and must leave via East instead.
	specs = append(specs, spec(500, 4, 14, 0)) // (0,1)->(2,3): WF allows S and E at 5
	h := newHarness(t, opts{algo: routing.WestFirst{}}, specs...)
	h.eng.Run(200)
	r := h.coll.Results()
	if r.Packets != uint64(len(specs)) {
		t.Fatalf("packets = %d, want %d", r.Packets, len(specs))
	}
	// The redirected flit still took a minimal route: 4 hops.
	if r.MaxLatency > 120 {
		t.Errorf("redirected flit waited too long (max latency %d)", r.MaxLatency)
	}
}

// Port-order arbitration is a strictly weaker policy: same delivery
// guarantees, different winners.
func TestPortOrderArbitration(t *testing.T) {
	specs := []*traffic.PacketSpec{
		spec(1, 1, 9, 0),
		spec(2, 6, 13, 0),
	}
	h := newHarness(t, opts{}, specs...)
	d := h.routers[5].(*DXbar)
	d.SetPortOrderArbitration(true)
	h.eng.Run(60)
	if got := h.coll.Results().Packets; got != 2 {
		t.Fatalf("packets = %d, want 2", got)
	}
}

// Accessor smoke tests.
func TestAccessors(t *testing.T) {
	h := newHarness(t, opts{}, spec(1, 0, 15, 0))
	h.eng.Run(20)
	_ = h.routers[5].(*DXbar).FairnessFlips()
	hu := newHarness(t, opts{unified: true}, spec(1, 0, 15, 0))
	hu.eng.Run(20)
	u := hu.routers[5].(*Unified)
	if u.Occupancy() != 0 {
		t.Error("idle unified router must have empty buffers")
	}
}

// Degraded mode B with WF routing: buffered flits adapt through the primary
// crossbar via the 2x2 steering, and injection uses idle rows.
func TestSecondaryFaultWithWFAndInjection(t *testing.T) {
	plan := planWith(t, 5, faults.Secondary, 0)
	specs := []*traffic.PacketSpec{}
	id := uint64(1)
	// Conflicting streams through node 5 force buffering there, and node 5
	// itself injects (which needs an idle primary row in degraded mode B).
	for c := uint64(0); c < 15; c++ {
		specs = append(specs, spec(id, 1, 9, c))
		id++
		specs = append(specs, spec(id, 6, 12, c)) // WF-adaptive at node 5
		id++
	}
	specs = append(specs, spec(900, 5, 15, 3)) // injection at the faulty router
	h := newHarness(t, opts{algo: routing.WestFirst{}, plan: plan}, specs...)
	h.eng.Run(400)
	if got := h.coll.Results().Packets; got != uint64(len(specs)) {
		t.Fatalf("packets = %d, want %d (degraded-B starvation?)", got, len(specs))
	}
}

// A detected secondary-crosspoint fault reroutes the blocked waiter through
// the primary fabric (2x2 steering, §II.C).
func TestCrosspointSteeringFallback(t *testing.T) {
	// Find a seed whose crosspoint plan breaks node 5's secondary
	// crosspoint for input East (flits from node 6) to output South.
	var plan *faults.Plan
	for seed := int64(0); seed < 30000; seed++ {
		p, err := faults.NewCrosspointPlan(16, 1.0/16.0, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := p.ForRouter(5); ok && f.Crossbar == faults.Secondary &&
			f.In == int(flit.East) && f.Out == int(flit.South) {
			plan = p
			break
		}
	}
	if plan == nil {
		t.Skip("no seed produced the wanted crosspoint")
	}
	specs := []*traffic.PacketSpec{
		spec(1, 1, 9, 0),  // wins S at node 5
		spec(2, 6, 13, 0), // buffered at node 5 (East input), wants S: the broken crosspoint
	}
	h := newHarness(t, opts{plan: plan}, specs...)
	h.eng.Run(100)
	if got := h.coll.Results().Packets; got != 2 {
		t.Fatalf("packets = %d, want 2 (steering fallback failed)", got)
	}
}
