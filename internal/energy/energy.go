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

// Counts is one set of the five energy-event counts. The engine keeps them in
// the statistics collector's counter block (stats.Collector.EnergyCounts),
// windowed by cycle like every other run counter.
type Counts struct {
	CrossbarTraversals uint64
	LinkTraversals     uint64
	BufferWrites       uint64
	BufferReads        uint64
	NackHops           uint64
}

// fields lists the counters once, so that Sub covers a sixth counter that is
// a field and an entry here.
func (c *Counts) fields() [5]*uint64 {
	return [5]*uint64{&c.CrossbarTraversals, &c.LinkTraversals, &c.BufferWrites, &c.BufferReads, &c.NackHops}
}

// Sub returns c - base, counter-wise.
func (c Counts) Sub(base Counts) Counts {
	from := base.fields()
	for i, f := range c.fields() {
		*f -= *from[i]
	}
	return c
}

// prices is one design's per-event energies that differ between designs:
// the unified crossbar's transmission gates and Buffered 8's larger arrays.
// Links and NACK hops cost the same everywhere.
type prices struct{ crossbar, write, read float64 }

func pricesOf(design string) prices {
	p := prices{CrossbarPerFlit, BufferWritePerFlit, BufferReadPerFlit}
	switch design {
	case "unified":
		p.crossbar = UnifiedCrossbarPerFlit
	case "buffered8":
		p.write, p.read = Buffered8WritePerFlit, Buffered8ReadPerFlit
	}
	return p
}

// EnergyPJ converts event counts into picojoules under the design's
// per-event energies. A design without prices of its own (every one but
// "unified" and "buffered8") is charged the plain crossbar and 4-flit FIFO.
func EnergyPJ(design string, c Counts) float64 {
	p := pricesOf(design)
	return float64(c.CrossbarTraversals)*p.crossbar +
		float64(c.LinkTraversals)*LinkPerFlit +
		float64(c.BufferWrites)*p.write +
		float64(c.BufferReads)*p.read +
		float64(c.NackHops)*NackPerHop
}
