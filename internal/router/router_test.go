package router

import (
	"testing"

	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// scripted injects a fixed list of packets at given nodes/cycles.
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
	eng  *sim.Engine
	coll *stats.Collector
	mesh *topology.Mesh
}

func newHarness(t *testing.T, factory sim.RouterFactory, depth int, specs ...*traffic.PacketSpec) *harness {
	t.Helper()
	return newHarnessPreCycle(t, factory, depth, nil, specs...)
}

// newHarnessPreCycle is newHarness with an engine PreCycle hook (the AFC
// controller's Tick: nothing else drives its mode policy).
func newHarnessPreCycle(t *testing.T, factory sim.RouterFactory, depth int, preCycle func(uint64), specs ...*traffic.PacketSpec) *harness {
	t.Helper()
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 0, 100000)
	eng, err := sim.New(sim.Config{
		Mesh: mesh, Stats: coll,
		Source: &scripted{specs: specs}, BufferDepth: depth, PreCycle: preCycle,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{eng: eng, coll: coll, mesh: mesh}
}

func blessFactory(algo routing.Algorithm) sim.RouterFactory {
	return func(env *sim.Env) sim.Router { return NewBless(env, algo) }
}

func scarabFactory() sim.RouterFactory {
	return func(env *sim.Env) sim.Router { return NewScarab(env) }
}

func bufferedFactory(algo routing.Algorithm, split bool) sim.RouterFactory {
	return func(env *sim.Env) sim.Router { return NewBuffered(env, algo, split) }
}

func spec(id uint64, src, dst int, cycle uint64) *traffic.PacketSpec {
	return &traffic.PacketSpec{ID: id, Src: src, Dst: dst, NumFlits: 1, Cycle: cycle}
}

func TestBlessSingleFlitMinimalPath(t *testing.T) {
	// 0 -> 15 on a 4x4 mesh: 6 hops, uncontended: no deflections,
	// latency 12 (2 cycles/hop).
	h := newHarness(t, blessFactory(routing.DOR{}), 0, spec(1, 0, 15, 0))
	h.eng.Run(20)
	r := h.coll.Results()
	if r.Packets != 1 {
		t.Fatalf("packets = %d", r.Packets)
	}
	if r.AvgHops != 6 || r.DeflectionsPerPacket != 0 {
		t.Errorf("hops=%v deflections=%v, want 6 and 0", r.AvgHops, r.DeflectionsPerPacket)
	}
	if r.AvgLatency != 12 {
		t.Errorf("latency = %v, want 12", r.AvgLatency)
	}
}

func TestBlessConflictDeflectsYounger(t *testing.T) {
	// Two flits meet at node 5 wanting the same output. Node 1 -> 9 goes
	// S,S through 5; node 4 -> 6 goes E,E through 5. They arrive at 5
	// simultaneously (both 1 hop away, injected same cycle): no output
	// conflict (S vs E). Force a conflict instead: 1 -> 13 (S,S,S) and
	// 4 -> 7 deflect? Simpler: two flits from opposite sides racing to the
	// same destination column through the same port.
	// 1 -> 13: route S through 5, 9. 6 -> 12 WF... use DOR: 6 -> 12 goes
	// W,W then S? DOR x-first: 6(2,1) -> 12(0,3): W,W,S,S via 5, 4, 8, 12.
	// At node 5 both want different outputs (S vs W) — fine, no conflict.
	// Make both want South at node 5: 1 -> 9 (S,S) and 5 -> 9 injected at
	// node 5 itself... the older flit (earlier injection) must win.
	h := newHarness(t, blessFactory(routing.DOR{}), 0,
		spec(1, 1, 13, 0), // arrives node 5 at cycle 2, wants S
		spec(2, 4, 6, 0),  // arrives node 5 at cycle 2, wants E
		spec(3, 6, 4, 0),  // arrives node 5 at cycle 2, wants W
		spec(4, 9, 1, 0),  // arrives node 5 at cycle 2, wants N
	)
	// Four flits converge on node 5 at cycle 2, each wanting a different
	// output: all switch simultaneously, zero deflections (paper Fig. 3a).
	h.eng.Run(30)
	r := h.coll.Results()
	if r.Packets != 4 {
		t.Fatalf("packets = %d, want 4", r.Packets)
	}
	if r.DeflectionsPerPacket != 0 {
		t.Errorf("crossing flits with distinct outputs must not deflect, got %v", r.DeflectionsPerPacket)
	}
}

func TestBlessDeflectionOnRealConflict(t *testing.T) {
	// Two flits both needing East at node 5 in the same cycle: the younger
	// one is deflected and still delivered.
	h := newHarness(t, blessFactory(routing.DOR{}), 0,
		spec(1, 4, 7, 0), // 4 -> 7: E,E,E through 5, 6
		spec(2, 1, 7, 1), // 1 -> 7: DOR x-first? (1,0)->(3,1): E,E then S. Arrives 5? No: 1->2->3->7.
	)
	// Construct a guaranteed conflict instead: both flits at node 5
	// wanting East, arriving the same cycle.
	h2 := newHarness(t, blessFactory(routing.DOR{}), 0,
		spec(1, 4, 7, 0),  // at cycle 2 reaches node 5, wants E
		spec(2, 9, 11, 0), // (1,2)->(3,2): E,E — at cycle 0 switches at 9... 9 is not 5.
	)
	_ = h2
	// Flit A: 4 -> 6 (E,E): at node 5 cycle 2 wants E.
	// Flit B: 1 -> 10: DOR (1,0)->(2,2): E then S,S — at node 5? No, 1->2.
	// Flit B': 13 -> 6 (1,3)->(2,1): E then N,N: 13->14 at c2? 14 not 5.
	// Use: A: 4 -> 6 via 5 (wants E at 5, arrives c2).
	//      B: 1 -> 9 via 5 (wants S at 5, arrives c2) — no conflict.
	//      C: 1 -> 6: DOR: (1,0)->(2,1): E then S: 1->2->6: not via 5.
	// Head-on: A: 4 -> 6 (E at 5), B: 6 -> 4 (W at 5): arrive c2 both. No conflict.
	// Same-direction chase: A: 4 -> 7 injected c0, B: 4 -> 7 injected c1:
	// no conflict (pipelined). Convergent: A: 1 -> 13 (S at 5 c2),
	// B: 6 -> 8: (2,1)->(0,2): W,W then S: at 5 c2 wants W. No conflict.
	// B2: 6 -> 12: W,W,S: at node 5 (c2) wants W; at node 4 (c4) wants S.
	// A2: 0 -> 12: S,S,S: at node 4 c2... different cycles.
	// Simplest true conflict: A: 1 -> 9 (S,S via 5), B: 6 -> 13 ((2,1)->(1,3)):
	// W then S,S: at node 5 c2 wants... W first hop: 6->5 (W), then at 5
	// DOR toward (1,3): x aligned? 5 is (1,1), dst (1,3): wants S. A at 5
	// c2 wants S too. Conflict!
	h3 := newHarness(t, blessFactory(routing.DOR{}), 0,
		spec(1, 1, 9, 0),  // older: wins S at node 5
		spec(2, 6, 13, 0), // younger: deflected at node 5
	)
	h3.eng.Run(40)
	r := h3.coll.Results()
	if r.Packets != 2 {
		t.Fatalf("packets = %d, want 2", r.Packets)
	}
	if r.DeflectionsPerPacket == 0 {
		t.Error("expected a deflection from the S-port conflict at node 5")
	}
	h.eng.Run(40)
	if h.coll.Results().Packets != 2 {
		t.Error("control pair must also deliver")
	}
}

func TestBlessEjectionConflictDeflects(t *testing.T) {
	// Two flits arrive at destination 5 in the same cycle; one ejects, the
	// other is deflected and ejects later.
	h := newHarness(t, blessFactory(routing.DOR{}), 0,
		spec(1, 4, 5, 0),
		spec(2, 6, 5, 0),
	)
	h.eng.Run(20)
	r := h.coll.Results()
	if r.Packets != 2 {
		t.Fatalf("packets = %d, want 2", r.Packets)
	}
	if r.DeflectionsPerPacket == 0 {
		t.Error("losing ejection must deflect")
	}
}

func TestScarabDropsAndRetransmits(t *testing.T) {
	// A guaranteed S-port conflict at node 5 with no adaptive escape:
	// A: 1 -> 9 arrives at 5 (cycle 2) with the single productive port S;
	// B: 4 -> 9 takes E first (larger-offset preference puts E ahead),
	// reaches 5 the same cycle, and also has only S left. The younger
	// flit drops and retransmits from the source.
	h := newHarness(t, scarabFactory(), 0,
		spec(1, 1, 9, 0),
		spec(2, 4, 9, 0),
	)
	h.eng.Run(60)
	r := h.coll.Results()
	if r.Packets != 2 {
		t.Fatalf("packets = %d, want 2", r.Packets)
	}
	if r.DroppedFlits == 0 {
		t.Error("expected a drop")
	}
	if r.RetransmitsPerPacket == 0 {
		t.Error("expected a retransmission")
	}
}

func TestScarabAdaptiveAvoidsDrop(t *testing.T) {
	// A flit with two productive directions sidesteps a taken port instead
	// of dropping: A: 1 -> 9 (wants S at 5), B: 6 -> 12 ((2,1)->(0,3)):
	// at 5 productive = {W, S} — S taken by older A, so B adapts W.
	h := newHarness(t, scarabFactory(), 0,
		spec(1, 1, 9, 0),
		spec(2, 6, 12, 0),
	)
	h.eng.Run(60)
	r := h.coll.Results()
	if r.Packets != 2 {
		t.Fatalf("packets = %d, want 2", r.Packets)
	}
	if r.DroppedFlits != 0 {
		t.Errorf("adaptive sidestep should avoid the drop, got %d drops", r.DroppedFlits)
	}
}

func TestBufferedPipelineLatency(t *testing.T) {
	// 3-stage pipeline: 3 cycles per hop, 0 -> 3 is 3 hops => latency 9.
	h := newHarness(t, bufferedFactory(routing.DOR{}, false), 4, spec(1, 0, 3, 0))
	h.eng.Run(30)
	r := h.coll.Results()
	if r.Packets != 1 {
		t.Fatalf("packets = %d", r.Packets)
	}
	// Injection at the source does not pay the buffer-eligibility cycle
	// (flits enter the allocator straight from the PE): first hop ST@0,
	// LT@1; each subsequent router costs 3 (buffer cycle + ST + LT); the
	// destination pays its buffer cycle plus the ejection ST: 2+3+3+1 = 9.
	want := 2.0 + 3.0 + 3.0 + 1.0
	if r.AvgLatency != want {
		t.Errorf("latency = %v, want %v", r.AvgLatency, want)
	}
}

func TestBufferedChargesBufferEnergy(t *testing.T) {
	h := newHarness(t, bufferedFactory(routing.DOR{}, false), 4, spec(1, 0, 3, 0))
	h.eng.Run(30)
	c := h.coll.EnergyCounts()
	// Hops through nodes 1 and 2 buffer the flit; node 3 buffers before
	// ejection. The injection at node 0 does not.
	if c.BufferWrites != 3 || c.BufferReads != 3 {
		t.Errorf("buffer events = %d writes / %d reads, want 3/3", c.BufferWrites, c.BufferReads)
	}
	if c.CrossbarTraversals != 4 {
		t.Errorf("crossbar traversals = %d, want 4 (incl. ejection)", c.CrossbarTraversals)
	}
}

func TestBufferedHoLBlocking(t *testing.T) {
	// Buffered4 suffers HoL: a blocked head delays a younger flit behind
	// it that wants a free port. Buffered8 (split) does not.
	// Blocker: occupy South output of node 5 continuously with older
	// traffic from node 1; victim: flit behind it wanting East.
	specs := []*traffic.PacketSpec{}
	id := uint64(1)
	// A stream 1 -> 13 (S,S,S through 5, 9) keeps South at 5 busy.
	for c := uint64(0); c < 12; c++ {
		specs = append(specs, spec(id, 1, 13, c))
		id++
	}
	// Two flits from node 4's side entering node 5: first wants S (will
	// lose to the older stream), second wants E (free).
	specs = append(specs, spec(100, 4, 9, 5)) // via 5, wants S there
	specs = append(specs, spec(101, 4, 6, 6)) // via 5, wants E there
	h4 := newHarness(t, bufferedFactory(routing.DOR{}, false), 4, specs...)
	h8 := newHarness(t, bufferedFactory(routing.DOR{}, true), 8, specs...)
	h4.eng.Run(200)
	h8.eng.Run(200)
	r4, r8 := h4.coll.Results(), h8.coll.Results()
	if r4.Packets != uint64(len(specs)) || r8.Packets != uint64(len(specs)) {
		t.Fatalf("deliveries: buffered4=%d buffered8=%d want %d", r4.Packets, r8.Packets, len(specs))
	}
	if r8.MaxLatency > r4.MaxLatency {
		t.Errorf("split buffers should not increase worst-case latency (b4=%d b8=%d)",
			r4.MaxLatency, r8.MaxLatency)
	}
}

func TestBufferedWFUsesAdaptivePorts(t *testing.T) {
	// Under WF a SE-bound flit may leave through E or S; with the S port
	// congested the allocator grants E. Just verify delivery and
	// reasonable latency under a small conflict load.
	specs := []*traffic.PacketSpec{}
	id := uint64(1)
	for c := uint64(0); c < 8; c++ {
		specs = append(specs, spec(id, 1, 13, c))
		id++
	}
	specs = append(specs, spec(50, 0, 15, 0)) // SE-bound, adaptive
	h := newHarness(t, bufferedFactory(routing.WestFirst{}, false), 4, specs...)
	h.eng.Run(300)
	if got := h.coll.Results().Packets; got != uint64(len(specs)) {
		t.Fatalf("packets = %d, want %d", got, len(specs))
	}
}

func TestBufferedMultiFlit(t *testing.T) {
	h := newHarness(t, bufferedFactory(routing.DOR{}, false), 4,
		&traffic.PacketSpec{ID: 1, Src: 0, Dst: 10, NumFlits: 5, Cycle: 0})
	h.eng.Run(100)
	r := h.coll.Results()
	if r.Packets != 1 {
		t.Fatalf("multi-flit packet not reassembled")
	}
}

func TestScarabEjectionConflictDrops(t *testing.T) {
	h := newHarness(t, scarabFactory(), 0,
		spec(1, 4, 5, 0),
		spec(2, 6, 5, 0),
	)
	h.eng.Run(60)
	r := h.coll.Results()
	if r.Packets != 2 {
		t.Fatalf("packets = %d, want 2", r.Packets)
	}
	if r.DroppedFlits == 0 {
		t.Error("losing ejection must drop in SCARAB")
	}
}
