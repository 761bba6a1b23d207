// Package energy implements the area and energy estimation of §III.B
// (Table III). The paper obtained its constants from Synopsys Design
// Compiler synthesis at TSMC 65 nm, 1.0 V, 1 GHz, 128-bit flits; we use the
// constants the paper publishes directly (13 pJ/flit crossbar traversal,
// 15 pJ/flit for the unified crossbar's transmission-gate fabric, 36 pJ link
// traversal per flit-hop) and document the per-design buffer energies, whose
// exact Table III cells are illegible in the source text, in EXPERIMENTS.md.
//
// The model is dynamic-energy only, like the paper's evaluation: every
// buffer write, buffer read, crossbar traversal, link traversal and NACK hop
// contributes a fixed per-event energy, so designs differ exactly through
// the event counts their microarchitectures generate (deflections and
// retransmissions inflate link/crossbar events; buffered designs add buffer
// events on every hop; DXbar adds them only for the ~1/6 of flits that
// lose arbitration).
package energy

// Per-event energies in picojoules per flit (§III.B).
const (
	// CrossbarPerFlit is the matrix-crossbar traversal energy (13 pJ/flit).
	CrossbarPerFlit = 13.0
	// UnifiedCrossbarPerFlit is the unified crossbar traversal energy; the
	// transmission gates cost 2 pJ/flit extra (15 pJ/flit).
	UnifiedCrossbarPerFlit = 15.0
	// LinkPerFlit is the link traversal energy per flit-hop. The paper
	// quotes "36 pJ" for the 128-bit link; we apply it per flit-hop.
	LinkPerFlit = 36.0
	// BufferWritePerFlit / BufferReadPerFlit are the 4-flit serial FIFO
	// energies (DXbar, Buffered 4).
	BufferWritePerFlit = 14.0
	BufferReadPerFlit  = 11.0
	// Buffered8WritePerFlit / Buffered8ReadPerFlit are the two-FIFO
	// (8-slot) organization energies — larger arrays, more energy per
	// access ("buffered 8 has a buffer organization which consumes more
	// energy").
	Buffered8WritePerFlit = 18.0
	Buffered8ReadPerFlit  = 14.0
	// NackPerHop is the per-hop energy of SCARAB's dedicated
	// circuit-switched NACK network (narrow control wires).
	NackPerHop = 8.0
)

// Meter accumulates energy events for one network. The simulation engine
// snapshots it at the warmup boundary so reported energy covers only the
// measurement window.
type Meter struct {
	crossbarPJ float64
	unified    bool
	buffered8  bool
	counts     Counts
}

// Counts is a snapshot of the raw event counters.
type Counts struct {
	CrossbarTraversals uint64
	LinkTraversals     uint64
	BufferWrites       uint64
	BufferReads        uint64
	NackHops           uint64
}

// fields lists the counters once, in serialization order: Absorb, Sub and the
// snapshot codec loop over it, so a sixth counter is a field and an entry here.
func (c *Counts) fields() [5]*uint64 {
	return [5]*uint64{&c.CrossbarTraversals, &c.LinkTraversals, &c.BufferWrites, &c.BufferReads, &c.NackHops}
}

// NewMeter returns a meter using the plain-crossbar traversal energy.
func NewMeter() *Meter { return &Meter{crossbarPJ: CrossbarPerFlit} }

// NewUnifiedMeter returns a meter using the unified crossbar's 15 pJ/flit.
func NewUnifiedMeter() *Meter {
	return &Meter{crossbarPJ: UnifiedCrossbarPerFlit, unified: true}
}

// NewBuffered8Meter returns a meter using the 8-slot buffer energies.
func NewBuffered8Meter() *Meter {
	return &Meter{crossbarPJ: CrossbarPerFlit, buffered8: true}
}

// CrossbarTraversal records one flit crossing a crossbar.
func (m *Meter) CrossbarTraversal() { m.counts.CrossbarTraversals++ }

// LinkTraversal records one flit crossing an inter-router link.
func (m *Meter) LinkTraversal() { m.counts.LinkTraversals++ }

// AddLinkTraversals records n link traversals at once (the engine's link
// phase batches its per-cycle count into one add).
func (m *Meter) AddLinkTraversals(n uint64) { m.counts.LinkTraversals += n }

// BufferWrite records one flit written into an input/secondary buffer.
func (m *Meter) BufferWrite() { m.counts.BufferWrites++ }

// BufferRead records one flit read out of a buffer.
func (m *Meter) BufferRead() { m.counts.BufferReads++ }

// NackHops records h hops on the dedicated NACK network (SCARAB).
func (m *Meter) NackHops(h int) { m.counts.NackHops += uint64(h) }

// Scratch returns an empty meter for staging events on behalf of this one
// (the sharded engine gives each shard a scratch meter for its router
// phase). Per-event energies are irrelevant on a scratch — only the event
// counts matter, and Absorb folds those back into the real meter.
func (m *Meter) Scratch() *Meter { return &Meter{} }

// Absorb adds s's event counts into m and zeroes s. Counter addition is
// commutative, so absorbing per-shard scratch meters in any order yields
// the same totals as sequential metering — which is what keeps the sharded
// engine's energy results bit-identical.
func (m *Meter) Absorb(s *Meter) {
	from := s.counts.fields()
	for i, f := range m.counts.fields() {
		*f += *from[i]
	}
	s.counts = Counts{}
}

// Snapshot returns the current counters.
func (m *Meter) Snapshot() Counts { return m.counts }

// Sub returns c - base, counter-wise.
func (c Counts) Sub(base Counts) Counts {
	from := base.fields()
	for i, f := range c.fields() {
		*f -= *from[i]
	}
	return c
}

// EnergyPJ converts an event-count snapshot into picojoules under this
// meter's per-event energies.
func (m *Meter) EnergyPJ(c Counts) float64 {
	w, r := BufferWritePerFlit, BufferReadPerFlit
	if m.buffered8 {
		w, r = Buffered8WritePerFlit, Buffered8ReadPerFlit
	}
	return float64(c.CrossbarTraversals)*m.crossbarPJ +
		float64(c.LinkTraversals)*LinkPerFlit +
		float64(c.BufferWrites)*w +
		float64(c.BufferReads)*r +
		float64(c.NackHops)*NackPerHop
}

// TotalPJ returns the cumulative energy in picojoules.
func (m *Meter) TotalPJ() float64 { return m.EnergyPJ(m.Snapshot()) }
