package flit

import (
	"testing"
	"testing/quick"
)

func TestPortString(t *testing.T) {
	cases := map[Port]string{North: "N", East: "E", South: "S", West: "W", Local: "L", Invalid: "-"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Port(%d).String() = %q, want %q", p, got, want)
		}
	}
	if got := Port(9).String(); got != "Port(9)" {
		t.Errorf("unknown port String() = %q", got)
	}
}

func TestPortOpposite(t *testing.T) {
	cases := map[Port]Port{North: South, South: North, East: West, West: East}
	for p, want := range cases {
		if got := p.Opposite(); got != want {
			t.Errorf("%s.Opposite() = %s, want %s", p, got, want)
		}
	}
	if Local.Opposite() != Invalid {
		t.Errorf("Local.Opposite() should be Invalid")
	}
}

func TestPortOppositeInvolution(t *testing.T) {
	for p := North; p <= West; p++ {
		if p.Opposite().Opposite() != p {
			t.Errorf("Opposite is not an involution for %s", p)
		}
	}
}

func TestIsCardinal(t *testing.T) {
	for p := North; p <= West; p++ {
		if !p.IsCardinal() {
			t.Errorf("%s should be cardinal", p)
		}
	}
	if Local.IsCardinal() || Invalid.IsCardinal() {
		t.Error("Local/Invalid must not be cardinal")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Data: "data", Request: "req", Response: "resp"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind.String() = %q, want %q", got, want)
		}
	}
	if Kind(7).String() != "Kind(7)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestOlderByAge(t *testing.T) {
	a := &Flit{ID: 10, InjectionCycle: 5}
	b := &Flit{ID: 1, InjectionCycle: 9}
	if !a.Older(b) {
		t.Error("flit injected earlier must be older")
	}
	if b.Older(a) {
		t.Error("Older must be asymmetric")
	}
}

func TestOlderTieBreakOnID(t *testing.T) {
	a := &Flit{ID: 3, InjectionCycle: 7}
	b := &Flit{ID: 4, InjectionCycle: 7}
	if !a.Older(b) || b.Older(a) {
		t.Error("equal ages must break ties on ID, smaller first")
	}
}

// Older must induce a strict total order: irreflexive, asymmetric, and for
// distinct flits exactly one direction holds.
func TestOlderTotalOrderProperty(t *testing.T) {
	f := func(id1, id2 uint64, age1, age2 uint64) bool {
		a := &Flit{ID: id1, InjectionCycle: age1}
		b := &Flit{ID: id2, InjectionCycle: age2}
		if a.Older(a) || b.Older(b) {
			return false
		}
		if id1 == id2 && age1 == age2 {
			return !a.Older(b) && !b.Older(a)
		}
		if id1 == id2 {
			// same ID distinct age: still exactly one direction
			return a.Older(b) != b.Older(a)
		}
		return a.Older(b) != b.Older(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlitString(t *testing.T) {
	f := &Flit{ID: 1, PacketID: 2, Seq: 0, NumFlits: 5, Src: 3, Dst: 4, InjectionCycle: 6, Route: East, Hops: 2}
	want := "flit{id=1 pkt=2 1/5 3->4 age=6 route=E hops=2}"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestReassemblerSingleFlit(t *testing.T) {
	r := NewReassembler()
	f := &Flit{ID: 1, PacketID: 42, Seq: 0, NumFlits: 1, Src: 0, Dst: 5, InjectionCycle: 10, Hops: 3}
	pkt, done := r.Accept(f, 20)
	if !done {
		t.Fatal("single-flit packet must complete immediately")
	}
	if pkt.CompletionCycle != 20 || pkt.InjectionCycle != 10 || pkt.Hops != 3 {
		t.Errorf("bad packet fields: %+v", pkt)
	}
	if r.Pending() != 0 {
		t.Error("no pending entries expected")
	}
}

func TestReassemblerOutOfOrder(t *testing.T) {
	r := NewReassembler()
	mk := func(seq uint16) *Flit {
		return &Flit{ID: uint64(100 + seq), PacketID: 7, Seq: seq, NumFlits: 3, Hops: 1}
	}
	if _, done := r.Accept(mk(2), 5); done {
		t.Fatal("packet must not complete after 1/3 flits")
	}
	if _, done := r.Accept(mk(0), 6); done {
		t.Fatal("packet must not complete after 2/3 flits")
	}
	pkt, done := r.Accept(mk(1), 9)
	if !done {
		t.Fatal("packet must complete after all flits")
	}
	if pkt.Hops != 3 {
		t.Errorf("hops must sum over flits, got %d", pkt.Hops)
	}
	if pkt.CompletionCycle != 9 {
		t.Errorf("completion cycle = %d, want 9", pkt.CompletionCycle)
	}
}

func TestReassemblerDuplicateIgnored(t *testing.T) {
	r := NewReassembler()
	f := &Flit{ID: 1, PacketID: 9, Seq: 0, NumFlits: 2}
	dup := &Flit{ID: 2, PacketID: 9, Seq: 0, NumFlits: 2}
	if _, done := r.Accept(f, 1); done {
		t.Fatal("incomplete")
	}
	if _, done := r.Accept(dup, 2); done {
		t.Fatal("duplicate seq must not complete the packet")
	}
	if _, done := r.Accept(&Flit{ID: 3, PacketID: 9, Seq: 1, NumFlits: 2}, 3); !done {
		t.Fatal("packet should complete with the genuinely missing flit")
	}
}

func TestReassemblerInterleavedPackets(t *testing.T) {
	r := NewReassembler()
	completed := 0
	for seq := uint16(0); seq < 4; seq++ {
		for pid := uint64(1); pid <= 3; pid++ {
			_, done := r.Accept(&Flit{ID: pid*100 + uint64(seq), PacketID: pid, Seq: seq, NumFlits: 4}, uint64(seq))
			if done != (seq == 3) {
				t.Fatalf("pkt %d seq %d: done=%v", pid, seq, done)
			}
			if done {
				completed++
			}
		}
	}
	if completed != 3 {
		t.Errorf("completed %d packets, want 3", completed)
	}
	if r.Pending() != 0 {
		t.Errorf("pending after completion = %d, want 0", r.Pending())
	}
}

// Property: any permutation of a packet's flits completes exactly once, on
// the last flit, with summed hop counts.
func TestReassemblerPermutationProperty(t *testing.T) {
	f := func(order []uint8) bool {
		const n = 8
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		// Fisher-Yates driven by the random input bytes.
		for i := n - 1; i > 0; i-- {
			var b uint8
			if len(order) > 0 {
				b = order[i%len(order)]
			}
			j := int(b) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		r := NewReassembler()
		completions := 0
		for k, seq := range perm {
			_, done := r.Accept(&Flit{ID: uint64(seq), PacketID: 1, Seq: uint16(seq), NumFlits: n, Hops: 1}, uint64(k))
			if done {
				completions++
				if k != n-1 {
					return false // completed before the last flit
				}
			}
		}
		return completions == 1 && r.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPoolSettle drives two tile-local pools against the engine's: flits
// taken from one and returned to the other keep the network-wide outstanding
// count exact, and a drained or bloated local free list is brought back to its
// target — with no flit created or lost along the way.
func TestPoolSettle(t *testing.T) {
	master, src, dst := NewPool(), NewPool(), NewPool()
	master.Prime(100)
	master.Settle(src, 16)
	master.Settle(dst, 16)
	if src.FreeLen() != 16 || dst.FreeLen() != 16 || master.FreeLen() != 68 {
		t.Fatalf("initial fill: src %d dst %d master %d, want 16 16 68", src.FreeLen(), dst.FreeLen(), master.FreeLen())
	}
	settle := func() {
		master.Settle(src, 16)
		master.Settle(dst, 16)
		if src.Outstanding() != 0 || dst.Outstanding() != 0 {
			t.Errorf("local balances not folded: src %d dst %d", src.Outstanding(), dst.Outstanding())
		}
	}
	// Six flits in flight from src: its free list stays above the half-target
	// low-water mark, so only the balance moves.
	var fs []*Flit
	for i := 0; i < 6; i++ {
		fs = append(fs, src.Get())
	}
	settle()
	if master.Outstanding() != 6 || src.FreeLen() != 10 {
		t.Errorf("in flight: master outstanding %d, src free %d, want 6 10", master.Outstanding(), src.FreeLen())
	}
	for _, f := range fs {
		dst.Put(f)
	}
	settle()
	if master.Outstanding() != 0 || dst.FreeLen() != 22 {
		t.Errorf("landed: master outstanding %d, dst free %d, want 0 22", master.Outstanding(), dst.FreeLen())
	}
	// Keep the flow going: src drains below half its target and is refilled,
	// dst grows past twice its own and is trimmed.
	for i := 0; i < 11; i++ {
		dst.Put(src.Get())
		settle()
	}
	if src.FreeLen() < 8 || dst.FreeLen() > 32 {
		t.Errorf("after sustained flow: src free %d (want >= 8), dst free %d (want <= 32)", src.FreeLen(), dst.FreeLen())
	}
	if total := master.FreeLen() + src.FreeLen() + dst.FreeLen(); total != 100 || master.Outstanding() != 0 {
		t.Errorf("flits not conserved: %d free, %d outstanding, want 100 and 0", total, master.Outstanding())
	}
}
