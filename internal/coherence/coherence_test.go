package coherence

import (
	"reflect"
	"slices"
	"testing"

	"dxbar/internal/flit"
	"dxbar/internal/router"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

func TestProfilesComplete(t *testing.T) {
	profs := Profiles()
	if len(profs) != 9 {
		t.Fatalf("want 9 benchmark profiles, got %d", len(profs))
	}
	want := []string{"FFT", "LU", "Radiosity", "Ocean", "Raytrace", "Radix", "Water", "FMM", "Barnes"}
	for i, p := range profs {
		if p.Name != want[i] {
			t.Errorf("profile %d = %s, want %s", i, p.Name, want[i])
		}
		if p.L1Hit <= 0 || p.L1Hit >= 1 || p.L2Hit <= 0 || p.L2Hit >= 1 {
			t.Errorf("%s: hit rates out of (0,1)", p.Name)
		}
		if p.OpsPerProc <= 0 || p.ComputeGap <= 0 || p.SharedBlocks <= 0 {
			t.Errorf("%s: non-positive sizing", p.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if p, ok := ProfileByName("Ocean"); !ok || p.Name != "Ocean" {
		t.Error("ProfileByName(Ocean) failed")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("unknown profile must not resolve")
	}
}

func TestMsgTypeStringAndFlits(t *testing.T) {
	if GetS.String() != "GetS" || Data.String() != "Data" || PutAck.String() != "PutAck" {
		t.Error("message names wrong")
	}
	if Data.Flits() != DataFlits || Put.Flits() != DataFlits {
		t.Error("data-bearing messages must be 5 flits")
	}
	for _, m := range []MsgType{GetS, GetM, FwdGetS, FwdGetM, Inv, InvAck, Unblock, PutAck, UpgAck} {
		if m.Flits() != CtrlFlits {
			t.Errorf("%v must be a single flit", m)
		}
	}
}

// tiny profile for fast protocol tests.
func tinyProfile() Profile {
	// Pools must comfortably exceed the MSHR depth or every dirty block is
	// permanently re-outstanding and writebacks can never pick a victim.
	return Profile{
		Name: "tiny", OpsPerProc: 50, L1Hit: 0.2, L2Hit: 0.2,
		Share: 0.7, Write: 0.5, ComputeGap: 2, Writeback: 0.5,
		SharedBlocks: 64, PrivateBlocksPerTile: 32,
	}
}

// runSystem wires a System into a DOR buffered network and runs it to
// completion.
func runSystem(t *testing.T, prof Profile, seed int64) (*System, *stats.Collector) {
	t.Helper()
	return runSystemThrough(t, prof, seed, func(sys *System) sim.Source { return sys })
}

// runSystemThrough is runSystem with the engine's view of the system as a
// Source chosen by the caller.
func runSystemThrough(t *testing.T, prof Profile, seed int64, source func(*System) sim.Source) (*System, *stats.Collector) {
	t.Helper()
	mesh := topology.MustMesh(4, 4)
	sys, err := NewSystem(mesh, prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	coll := stats.NewCollector(mesh.Nodes(), 0, 10_000_000)
	algo := routing.DOR{}
	eng, err := sim.New(sim.Config{
		Mesh: mesh, Stats: coll,
		Source: source(sys), Sink: sys, BufferDepth: 4, PreCycle: sys.PreCycle,
	}, func(env *sim.Env) sim.Router { return router.NewBuffered(env, algo, false) })
	if err != nil {
		t.Fatal(err)
	}
	if !eng.RunUntil(sys.Quiesced, 2_000_000) {
		t.Fatalf("workload did not finish; outstanding=%d finished=%d",
			sys.OutstandingMessages(), sys.finished)
	}
	return sys, coll
}

func TestWorkloadCompletes(t *testing.T) {
	sys, coll := runSystem(t, tinyProfile(), 1)
	if sys.FinishCycle() == 0 {
		t.Error("finish cycle not recorded")
	}
	if coll.Results().Packets == 0 {
		t.Error("no network traffic generated")
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a, _ := runSystem(t, tinyProfile(), 7)
	b, _ := runSystem(t, tinyProfile(), 7)
	if a.FinishCycle() != b.FinishCycle() {
		t.Errorf("same seed diverged: %d vs %d", a.FinishCycle(), b.FinishCycle())
	}
	for typ, n := range a.MsgCounts {
		if b.MsgCounts[typ] != n {
			t.Errorf("message count %v differs: %d vs %d", typ, n, b.MsgCounts[typ])
		}
	}
	// The lightest and the heaviest profile, pinned to what the substrate
	// produced (seed 42, 4×4 Buffered 4) when its event queue was a map of
	// closures and every tile was polled every cycle: every RNG draw, packet
	// ID and outbox append still happens in that order. ids is an FNV-1a hash
	// over every generated packet's ID, endpoints and cycle in generation order
	// — the network does not care which of two packets got which ID, so only
	// this catches two tiles' sends changing places within a cycle.
	for _, pin := range []struct {
		bench                string
		finish, packets, ids uint64
		counts               map[MsgType]uint64
	}{
		{"LU", 10408, 1100, 0xb7a18dcd54135852, map[MsgType]uint64{GetS: 242, GetM: 101, Data: 343, Inv: 2, InvAck: 2, Unblock: 343, Put: 60, PutAck: 60}},
		{"Ocean", 6039, 5252, 0x3429eefb6c00d075, map[MsgType]uint64{GetS: 992, GetM: 555, Data: 1539, FwdGetS: 6, FwdGetM: 1, Inv: 17, InvAck: 17,
			Unblock: 1547, Put: 457, PutAck: 457, UpgAck: 8}},
	} {
		prof, _ := ProfileByName(pin.bench)
		var trace *idTrace
		sys, coll := runSystemThrough(t, prof, 42, func(sys *System) sim.Source {
			trace = &idTrace{sys: sys, hash: 14695981039346656037}
			return trace
		})
		if got := coll.Results().Packets; sys.FinishCycle() != pin.finish || got != pin.packets || trace.hash != pin.ids {
			t.Errorf("%s: finished at cycle %d with %d packets delivered, ID trace %#x, want %d, %d and %#x",
				pin.bench, sys.FinishCycle(), got, trace.hash, pin.finish, pin.packets, pin.ids)
		}
		if !reflect.DeepEqual(sys.MsgCounts, pin.counts) {
			t.Errorf("%s: message counts %v, want %v", pin.bench, sys.MsgCounts, pin.counts)
		}
	}
}

// idTrace shows a System to the engine as a plain Source (per-node polling)
// and hashes what it generates.
type idTrace struct {
	sys  *System
	hash uint64
}

func (s *idTrace) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	specs := s.sys.Generate(node, cycle)
	for _, p := range specs {
		for _, v := range []uint64{p.ID, uint64(p.Src), uint64(p.Dst), p.Cycle} {
			s.hash = (s.hash ^ v) * 1099511628211
		}
	}
	return specs
}

// checkCalendars is the polling form of the substrate's per-cycle loops, kept
// as a reference predicate: after PreCycle(cycle) the incrementally maintained
// sets and counts must equal what a scan of every tile, outbox, calendar slot
// and table slot finds.
func checkCalendars(t *testing.T, s *System, cycle uint64) {
	t.Helper()
	events := 0
	for i := range s.events {
		for n := s.events[i].head; n != 0; n = s.nodes[n-1].next {
			events++
		}
	}
	flights := 0
	for _, f := range s.flights {
		if f.id != 0 {
			flights++
		}
	}
	if events != s.nEvents || flights != s.nFlights {
		t.Fatalf("cycle %d: counted %d events and %d messages in flight, the calendar holds %d and the table %d", cycle, s.nEvents, s.nFlights, events, flights)
	}
	due, pending, ready := make(nodeSet, len(s.due)), make(nodeSet, len(s.due)), make([]uint64, len(s.ready))
	for n := range s.tiles {
		tl := &s.tiles[n]
		switch {
		case tl.opsLeft <= 0:
		case cycle >= tl.nextReadyCycle:
			due.add(n)
		default:
			nodeSet(ready[int(tl.nextReadyCycle%s.readyLen)*len(s.due):]).add(n)
		}
		if len(s.outbox[n]) > 0 {
			pending.add(n)
		}
	}
	if !slices.Equal(pending, s.pending) {
		t.Fatalf("cycle %d: pending set %x, the outboxes hold packets at %x", cycle, s.pending, pending)
	}
	if !slices.Equal(due, s.due) || !slices.Equal(ready, s.ready) {
		t.Fatalf("cycle %d: due set %x and ready calendar %x, the tiles' opsLeft and nextReadyCycle say %x and %x", cycle, s.due, s.ready, due, ready)
	}
}

// TestCalendarsMatchReference runs all nine profiles to completion on the 8×8
// mesh of the figures, and LU on real caches (a run several times as long) on
// a 4×4 one, and holds every cycle to checkCalendars.
func TestCalendarsMatchReference(t *testing.T) {
	profs := Profiles()
	profs = append(profs, profs[1].Detailed())
	for _, prof := range profs {
		name, mesh := prof.Name, topology.MustMesh(8, 8)
		if prof.DetailedCaches {
			name, mesh = name+"-detailed", topology.MustMesh(4, 4)
		}
		t.Run(name, func(t *testing.T) {
			sys, err := NewSystem(mesh, prof, 42)
			if err != nil {
				t.Fatal(err)
			}
			algo := routing.DOR{}
			eng, err := sim.New(sim.Config{
				Mesh: mesh, Stats: stats.NewCollector(mesh.Nodes(), 0, 10_000_000),
				Source: sys, Sink: sys, BufferDepth: 4,
				PreCycle: func(cycle uint64) {
					sys.PreCycle(cycle)
					checkCalendars(t, sys, cycle)
				},
			}, func(env *sim.Env) sim.Router { return router.NewBuffered(env, algo, false) })
			if err != nil {
				t.Fatal(err)
			}
			if !eng.RunUntil(sys.Quiesced, 2_000_000) {
				t.Fatalf("workload did not finish; outstanding=%d finished=%d", sys.OutstandingMessages(), sys.finished)
			}
			checkCalendars(t, sys, eng.Cycle()-1)
		})
	}
}

func TestProtocolMessageMix(t *testing.T) {
	sys, _ := runSystem(t, tinyProfile(), 3)
	mc := sys.MsgCounts
	// A write-heavy shared workload must exercise the full protocol.
	for _, typ := range []MsgType{GetS, GetM, Data, Unblock} {
		if mc[typ] == 0 {
			t.Errorf("no %v messages generated", typ)
		}
	}
	if mc[Inv] == 0 || mc[InvAck] == 0 {
		t.Error("shared writes must generate invalidations")
	}
	if mc[FwdGetS]+mc[FwdGetM] == 0 {
		t.Error("dirty sharing must generate forwards")
	}
	if mc[Put] == 0 || mc[PutAck] == 0 {
		t.Error("writebacks must flow")
	}
	// Every transaction unblocks exactly once: Unblock == GetS + GetM.
	if mc[Unblock] != mc[GetS]+mc[GetM] {
		t.Errorf("unblocks %d != requests %d", mc[Unblock], mc[GetS]+mc[GetM])
	}
	// Invariant: one grant per request — a 5-flit Data or a 1-flit UpgAck
	// (forwards substitute for the home's reply, never duplicate it).
	if mc[Data]+mc[UpgAck] != mc[GetS]+mc[GetM] {
		t.Errorf("grants %d != requests %d", mc[Data]+mc[UpgAck], mc[GetS]+mc[GetM])
	}
	// A read-then-write shared workload must exercise the upgrade path.
	if mc[UpgAck] == 0 {
		t.Error("expected data-less write upgrades")
	}
	// Put/PutAck pair up.
	if mc[Put] != mc[PutAck] {
		t.Errorf("puts %d != putacks %d", mc[Put], mc[PutAck])
	}
	// Inv/InvAck pair up.
	if mc[Inv] != mc[InvAck] {
		t.Errorf("invs %d != invacks %d", mc[Inv], mc[InvAck])
	}
}

func TestNoLeakedMessages(t *testing.T) {
	sys, _ := runSystem(t, tinyProfile(), 5)
	if sys.OutstandingMessages() != 0 {
		t.Errorf("%d protocol messages leaked", sys.OutstandingMessages())
	}
}

func TestDirectoryPlacement(t *testing.T) {
	mesh := topology.MustMesh(8, 8)
	sys, err := NewSystem(mesh, tinyProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.dirNodes) != NumDirectories {
		t.Fatalf("directories = %d, want %d", len(sys.dirNodes), NumDirectories)
	}
	seen := map[int]bool{}
	for _, n := range sys.dirNodes {
		if n < 0 || n >= mesh.Nodes() || seen[n] {
			t.Fatalf("bad directory node %d", n)
		}
		seen[n] = true
	}
	// Homes must cover every directory.
	homes := map[int]bool{}
	for a := uint64(0); a < 64; a++ {
		homes[sys.home(a)] = true
	}
	if len(homes) != NumDirectories {
		t.Errorf("address interleaving reaches %d homes, want %d", len(homes), NumDirectories)
	}
}

func TestMeshTooSmallRejected(t *testing.T) {
	mesh := topology.MustMesh(2, 2)
	if _, err := NewSystem(mesh, tinyProfile(), 1); err == nil {
		t.Error("4-node mesh cannot host 16 directories")
	}
}

func TestDeliverUnknownPacketPanics(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	sys, _ := NewSystem(mesh, tinyProfile(), 1)
	defer func() {
		if recover() == nil {
			t.Error("unknown delivery must panic")
		}
	}()
	sys.Deliver(flit.Packet{PacketID: 999}, 0)
}

func TestExecutionTimeScalesWithIntensity(t *testing.T) {
	cold := tinyProfile()
	cold.L1Hit = 0.99
	cold.L2Hit = 0.99
	hot := tinyProfile()
	hot.L1Hit = 0.10
	hot.L2Hit = 0.10
	sysCold, _ := runSystem(t, cold, 9)
	sysHot, _ := runSystem(t, hot, 9)
	if sysHot.FinishCycle() <= sysCold.FinishCycle() {
		t.Errorf("miss-heavy profile must run longer: hot=%d cold=%d",
			sysHot.FinishCycle(), sysCold.FinishCycle())
	}
}

func TestSharedVsPrivateAddressSpaces(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	sys, _ := NewSystem(mesh, tinyProfile(), 1)
	t0, t1 := &sys.tiles[0], &sys.tiles[1]
	for i := 0; i < 100; i++ {
		a0, a1 := sys.privateAddr(t0), sys.privateAddr(t1)
		if a0 == a1 {
			t.Fatal("private pools of different tiles must not collide")
		}
		if s := sys.sharedAddr(t0); s >= 1<<32 {
			t.Fatal("shared addresses must stay below the private range")
		}
	}
}

// TestGenerateDrainsByTruncation pins the outbox contract: an empty outbox
// yields nil without being touched, a drained one keeps its capacity for the
// node's next message (the returned slice aliases it, as sim.SourceAdapter's
// does), and nothing is delivered twice.
func TestGenerateDrainsByTruncation(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	prof, _ := ProfileByName("FFT")
	s, err := NewSystem(mesh, prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out := s.Generate(3, 0); out != nil {
		t.Fatalf("empty outbox generated %v", out)
	}
	s.send(GetS, 64, 3, 5, 3, 0, 0)
	s.send(GetM, 65, 3, 6, 3, 0, 0)
	first := s.Generate(3, 0)
	if len(first) != 2 || first[0].Dst != 5 || first[1].Dst != 6 {
		t.Fatalf("first drain = %v, want the two queued messages in order", first)
	}
	if out := s.Generate(3, 1); out != nil {
		t.Fatalf("drained outbox generated %v again", out)
	}
	if allocs := testing.AllocsPerRun(10, func() { s.Generate(3, 2) }); allocs != 0 {
		t.Errorf("Generate on an empty outbox allocates %.0f times", allocs)
	}
	s.send(Put, 66, 3, 7, 3, 0, 2)
	second := s.Generate(3, 2)
	if len(second) != 1 || second[0].Dst != 7 {
		t.Fatalf("second drain = %v, want the one new message", second)
	}
	if &first[0] != &second[0] {
		t.Error("the drained outbox's backing array was not reused")
	}
}
