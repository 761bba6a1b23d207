package flit

import (
	"slices"

	"dxbar/internal/snapshot"
)

// State moves one flit by value, in field-declaration order. Flits obey a
// single-owner discipline at cycle boundaries (exactly one latch, deque,
// buffer, link stage or wheel slot holds each), so every holder moves its
// flits in place and the restore side repopulates the pool by Get-ing a fresh
// flit per record — pool accounting matches automatically. Endpoints are
// validated against the mesh size and the port/kind enums so a forged stream
// cannot smuggle out-of-range indices into the engine's hot paths.
func State(s *snapshot.Stream, f *Flit, nodes int) error {
	s.U64(&f.ID)
	s.U64(&f.InjectionCycle)
	s.U64(&f.PacketID)
	s.U64(&f.EnqueueCycle)
	snapshot.Int(s, &f.Src)
	snapshot.Int(s, &f.Dst)
	snapshot.Int(s, &f.Hops)
	snapshot.Int(s, &f.Deflections)
	snapshot.Int(s, &f.Retransmits)
	snapshot.Int(s, &f.Buffered)
	s.U16(&f.Seq)
	s.U16(&f.NumFlits)
	snapshot.Byte(s, &f.Route)
	snapshot.Byte(s, &f.Kind)
	if f.Src < 0 || int(f.Src) >= nodes || f.Dst < 0 || int(f.Dst) >= nodes {
		return s.Failf("flit: snapshot endpoints %d->%d out of range for %d nodes", f.Src, f.Dst, nodes)
	}
	if f.Route != Invalid && (f.Route < 0 || f.Route >= Port(NumPorts)) {
		return s.Failf("flit: snapshot route port %d out of range", f.Route)
	}
	if f.NumFlits == 0 || f.Seq >= f.NumFlits {
		return s.Failf("flit: snapshot seq %d out of packet of %d flits", f.Seq, f.NumFlits)
	}
	return s.Err()
}

// state moves an in-progress packet header.
func (p *Packet) state(s *snapshot.Stream, nodes int) error {
	s.U64(&p.PacketID)
	snapshot.Int(s, &p.Src)
	snapshot.Int(s, &p.Dst)
	snapshot.Byte(s, &p.Kind)
	snapshot.Int(s, &p.NumFlits)
	s.U64(&p.InjectionCycle)
	s.U64(&p.CompletionCycle)
	snapshot.Int(s, &p.Hops)
	snapshot.Int(s, &p.Deflections)
	snapshot.Int(s, &p.Retransmits)
	if p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes {
		return s.Failf("flit: snapshot packet endpoints %d->%d out of range", p.Src, p.Dst)
	}
	if p.NumFlits < 1 || p.NumFlits > 64 {
		return s.Failf("flit: snapshot packet flit count %d out of [1,64]", p.NumFlits)
	}
	return s.Err()
}

// State moves the reassembler's in-progress multi-flit packets, sorted by
// packet ID so the byte stream is independent of map iteration order (the
// Snapshot→Restore→Snapshot byte-stability property). Loading refills the
// table of a fresh (or Reset) reassembler entry by entry.
func (ra *Reassembler) State(s *snapshot.Stream, nodes int) error {
	s.Tag("REAS")
	n := s.Len(len(ra.pending), 1<<20)
	ids := make([]uint64, 0, len(ra.pending)) // empty when loading
	for id := range ra.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var prev uint64
	for i := 0; i < n; i++ {
		var a *assembly
		if s.Loading() {
			a = new(assembly)
		} else {
			a = ra.pending[ids[i]]
		}
		if err := a.pkt.state(s, nodes); err != nil {
			return err
		}
		s.U64(&a.received)
		snapshot.Int(s, &a.count)
		if a.count < 1 || a.count > a.pkt.NumFlits {
			return s.Failf("flit: snapshot reassembly count %d out of range", a.count)
		}
		if i > 0 && a.pkt.PacketID <= prev {
			return s.Failf("flit: snapshot reassembly entries not strictly ascending")
		}
		prev = a.pkt.PacketID
		if s.Loading() {
			ra.track(a)
		}
	}
	return s.Err()
}
