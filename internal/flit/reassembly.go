package flit

// Reassembler collects out-of-order flits of multi-flit packets at a
// destination, mimicking the MSHR-based reassembly the paper delegates to the
// cache controller (§II.A, citing CHIPPER): one entry per in-flight packet,
// completed when all NumFlits flits have arrived.
//
// A Reassembler belongs to a single node and is not safe for concurrent use
// (the simulator is single-threaded per network). Assembly entries are
// recycled on a free list so steady-state reassembly does not allocate, and
// single-flit packets (the paper's synthetic configuration) bypass the
// pending table entirely. The zero value is ready to use: the table is made
// on the first multi-flit packet, so a network's reassemblers are held by
// value and cost nothing until one is needed.
type Reassembler struct {
	pending map[uint64]*assembly
	freeAsm []*assembly
}

// Packet is a fully reassembled packet as seen by the destination.
type Packet struct {
	PacketID       uint64
	Src, Dst       int
	Kind           Kind
	NumFlits       int
	InjectionCycle uint64
	// CompletionCycle is the cycle the final flit was ejected.
	CompletionCycle uint64
	// Hops is the total link traversals summed over the packet's flits.
	Hops int
	// Deflections and Retransmits are summed over the packet's flits.
	Deflections, Retransmits int
}

type assembly struct {
	pkt      Packet
	received uint64 // bitmap of Seq values seen (packets are <=64 flits)
	count    int
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler { return &Reassembler{} }

// Accept ingests one ejected flit at the given cycle and returns the
// completed packet (and true) if this flit finishes its packet. Duplicate
// flits (same PacketID/Seq — possible only if a design retransmits without
// deduplication) are ignored.
func (r *Reassembler) Accept(f *Flit, cycle uint64) (Packet, bool) {
	if f.NumFlits == 1 {
		// Single-flit fast path: no pending entry ever exists.
		return Packet{
			PacketID:        f.PacketID,
			Src:             int(f.Src),
			Dst:             int(f.Dst),
			Kind:            f.Kind,
			NumFlits:        1,
			InjectionCycle:  f.InjectionCycle,
			CompletionCycle: cycle,
			Hops:            int(f.Hops),
			Deflections:     int(f.Deflections),
			Retransmits:     int(f.Retransmits),
		}, true
	}
	a, ok := r.pending[f.PacketID]
	if !ok {
		a = r.newAssembly()
		a.pkt = Packet{
			PacketID:       f.PacketID,
			Src:            int(f.Src),
			Dst:            int(f.Dst),
			Kind:           f.Kind,
			NumFlits:       int(f.NumFlits),
			InjectionCycle: f.InjectionCycle,
		}
		r.track(a)
	}
	bit := uint64(1) << (f.Seq % 64)
	if a.received&bit != 0 {
		return Packet{}, false // duplicate
	}
	a.received |= bit
	a.count++
	a.pkt.Hops += int(f.Hops)
	a.pkt.Deflections += int(f.Deflections)
	a.pkt.Retransmits += int(f.Retransmits)
	if a.count == int(f.NumFlits) {
		a.pkt.CompletionCycle = cycle
		delete(r.pending, f.PacketID)
		pkt := a.pkt
		r.recycle(a)
		return pkt, true
	}
	return Packet{}, false
}

// Pending returns the number of partially assembled packets.
func (r *Reassembler) Pending() int { return len(r.pending) }

// Reset discards all partial assemblies (Engine.Reset between sweep points).
func (r *Reassembler) Reset() {
	for id, a := range r.pending {
		delete(r.pending, id)
		r.recycle(a)
	}
}

func (r *Reassembler) newAssembly() *assembly {
	if n := len(r.freeAsm); n > 0 {
		a := r.freeAsm[n-1]
		r.freeAsm = r.freeAsm[:n-1]
		*a = assembly{}
		return a
	}
	return &assembly{}
}

// track enters a into the pending table, making the table on first use.
func (r *Reassembler) track(a *assembly) {
	if r.pending == nil {
		r.pending = make(map[uint64]*assembly)
	}
	r.pending[a.pkt.PacketID] = a
}

func (r *Reassembler) recycle(a *assembly) { r.freeAsm = append(r.freeAsm, a) }
