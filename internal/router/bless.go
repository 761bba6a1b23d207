// Package router implements the paper's three comparison designs:
//
//   - Bless: Flit-Bless bufferless deflection routing (Moscibroda & Mutlu,
//     ISCA'09 — reference [6]), oldest-first age arbitration, 2-stage
//     SA/ST·LT pipeline.
//   - Scarab: SCARAB bufferless drop-and-NACK routing (Hayenga et al.,
//     MICRO'09 — reference [8]), minimal adaptive, dedicated circuit-
//     switched NACK network, source retransmission.
//   - Buffered: the generic input-FIFO virtual-channel-free baseline with 4
//     flit buffers per input (Buffered 4) or two sets of 4 (Buffered 8,
//     which removes head-of-line blocking), 3-stage RC·SA/ST·LT pipeline
//     and credit flow control.
//
// The DXbar designs (the paper's contribution) live in internal/core.
package router

import (
	"dxbar/internal/core"
	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
)

// Bless is the Flit-Bless deflection router. Every cycle all incoming flits
// are assigned distinct output ports in age order (oldest first); a flit
// whose productive ports are taken is deflected to any free port. One flit
// may eject per cycle; a new flit is injected whenever an input slot was
// free, in keeping with the bufferless injection rule.
type Bless struct {
	env *sim.Env

	// table is the precomputed routing algorithm (shared network-wide when
	// the factory passes a *routing.Table); links caches the node's link
	// count.
	table *routing.Table
	links int

	cands core.PortState // SoA gather, reused across cycles
}

// NewBless builds a Flit-Bless router for the Env's node.
func NewBless(env *sim.Env, algo routing.Algorithm) *Bless {
	b := new(Bless)
	b.Init(env, algo)
	return b
}

// Init builds the router in place, as NewBless does on a fresh allocation.
func (b *Bless) Init(env *sim.Env, algo routing.Algorithm) {
	mesh := env.Mesh()
	*b = Bless{env: env, table: routing.NewTable(algo, mesh, mesh.Nodes()), links: mesh.LinkCount(env.Node)}
}

// Step implements sim.Router: candidates gathered into an SoA PortState,
// output availability tracked as one bitmask, every routing query a table
// load. It always reports quiescent: the router is a pure function of this
// cycle's input latches and the injection head — it has no buffer, pipeline
// register or timer, so a Step with nothing latched and nothing queued (the
// engine checks the queue) touches no state.
func (b *Bless) Step(cycle uint64) (quiescent bool) {
	env := b.env
	ps := &b.cands
	ps.Reset()
	for p := flit.North; p <= flit.West; p++ {
		if f := env.In[p]; f != nil {
			env.In[p] = nil
			ps.Add(f, p)
		}
	}
	env.InMask = 0
	// Injection rule: a free input slot this cycle admits one new flit,
	// which then competes as the youngest candidate.
	var injectee *flit.Flit
	if ps.N < b.links {
		if f := env.InjectionHead(); f != nil {
			injectee = f
			ps.Add(f, flit.Local)
		}
	}
	ps.SortAge()

	// Oldest-first assignment over all candidates.
	free := env.FreeOutMask()
	for i := 0; i < ps.N; i++ {
		s := ps.Order[i]
		f := ps.Flits[s]
		assigned := b.assign(f, int(ps.Dst[s]), free, cycle)
		if assigned == flit.Invalid {
			// Unreachable by the port-counting argument (candidates never
			// exceed available outputs); keep the invariant loud.
			panic("router: bless failed to assign an output port")
		}
		if f == injectee {
			env.ConsumeInjection(cycle)
		}
		free &^= 1 << uint(assigned)
		send(env, b.table, assigned, f, cycle)
	}
	return true
}

// assign picks the output port for f from the free-output bitmask: Local
// when it has arrived and the ejection port is free, otherwise the first free
// port in deflection order.
func (b *Bless) assign(f *flit.Flit, dst int, free uint8, cycle uint64) flit.Port {
	env := b.env
	node := env.Node
	if dst == node && free&(1<<uint(flit.Local)) != 0 {
		return flit.Local
	}
	order := b.table.DeflectionAt(node, dst)
	prodLen := b.table.ProductiveLenAt(node, dst)
	for i := 0; i < order.Len(); i++ {
		p := order.At(i)
		if free&(1<<uint(p)) != 0 {
			// Ports beyond the productive prefix are deflections; a flit
			// that has arrived but lost ejection is also deflected.
			if dst == node || i >= prodLen {
				f.Deflections++
				env.Stats().DeflectedFlit()
				env.Events().Record(cycle, events.Deflect, node, p, f.PacketID, f.ID, int32(f.Deflections))
			}
			return p
		}
	}
	return flit.Invalid
}
