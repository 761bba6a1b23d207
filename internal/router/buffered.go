package router

import (
	"fmt"
	"math/bits"

	"dxbar/internal/bitarb"
	"dxbar/internal/buffer"
	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
)

// Buffered is the generic input-buffered baseline router: per-input serial
// FIFOs (no virtual channels), a separable output-first switch allocator,
// credit flow control, and the 3-stage RC·SA/ST·LT pipeline (one eligibility
// cycle in the buffer before a flit may compete for the switch).
//
// With split=false it is the paper's Buffered 4 (one 4-flit FIFO per input,
// subject to head-of-line blocking); with split=true it is Buffered 8 (two
// 4-flit FIFOs per input whose heads both compete, removing HoL blocking —
// "the split design resembles DXbar only at the buffering and provides for
// a fair comparison").
type Buffered struct {
	env   *sim.Env
	bank  inputBank
	alloc bitarb.Separable

	// table is the precomputed form of the routing algorithm (shared
	// network-wide when the factory passes a *routing.Table).
	table *routing.Table
}

// NewBuffered builds a Buffered 4 (split=false) or Buffered 8 (split=true)
// router. The engine must be configured with BufferDepth 4 or 8
// respectively so credits match buffer capacity.
func NewBuffered(env *sim.Env, algo routing.Algorithm, split bool) *Buffered {
	b := new(Buffered)
	b.Init(env, algo, split)
	return b
}

// Init builds the router in place, as NewBuffered does on a fresh
// allocation: a network's routers are built into one slab. The allocator is
// held by value and the FIFOs come from the node's queue store, so Init
// allocates nothing.
func (b *Buffered) Init(env *sim.Env, algo routing.Algorithm, split bool) {
	mesh := env.Mesh()
	nq := uint8(1)
	if split {
		nq = 2
	}
	*b = Buffered{env: env, table: routing.NewTable(algo, mesh, mesh.Nodes())}
	b.bank.init(nq, env.QueueStore())
	b.alloc.Init(flit.NumPorts, flit.NumPorts)
}

// Step implements sim.Router. It reports quiescent when every input FIFO is
// empty after the step: the FIFOs (with their RC eligibility stamps) are the
// router's only cross-cycle flit storage, the round-robin arbiters move only
// on a grant, and returned credits matter only to a router with something to
// send — so with nothing buffered, latched or queued another Step is a no-op.
func (b *Buffered) Step(cycle uint64) (quiescent bool) {
	b.step(cycle, true)
	return b.bank.nonEmpty == 0
}

// step is one cycle of the pipeline. inject gates the PE injection port (AFC
// closes it during a drain); the results report whether a flit entered the
// network from the PE and whether one left it at Local this cycle.
func (b *Buffered) step(cycle uint64, inject bool) (injected, ejected bool) {
	env := b.env
	node := env.Node

	// Buffer write (BW), which is also route computation (RC): the flit's
	// output request is computed here, once for the hop, and the flit becomes
	// eligible for the switch next cycle.
	for m := env.InMask; m != 0; m &= m - 1 {
		p := flit.Port(bits.TrailingZeros8(m))
		f := env.In[p]
		env.In[p] = nil
		e := buffer.Entry{F: f, Ready: cycle + 1}
		e.Want, e.Route = b.table.RouteAt(node, int(f.Dst))
		depth := b.bank.write(p, e)
		if depth < 0 {
			panic(fmt.Sprintf("router: input FIFO overflow (credit violation) at node %d port %s cycle %d", node, p, cycle))
		}
		f.Buffered++
		env.Meter().BufferWrite()
		env.Stats().BufferingEvent(cycle)
		env.Events().Record(cycle, events.Buffered, node, p, f.PacketID, f.ID, int32(depth))
	}
	env.InMask = 0

	// Switch allocation (SA): one output-mask word per input — 0..3 the link
	// FIFOs, 4 the PE injection port. Sendability is one bitmask for the
	// whole round: nothing launches before allocation, so it equals a CanSend
	// call per probe.
	var req [flit.NumPorts]uint64
	sendable := env.SendableMask()
	b.bank.requests(cycle, sendable, &req)
	if inject {
		if f := env.InjectionHead(); f != nil {
			want, _ := b.table.RouteAt(node, int(f.Dst))
			req[flit.Local] = uint64(want & sendable)
		}
	}

	// Switch traversal (ST).
	for i, o := range b.alloc.Allocate(req[:]) {
		if o == -1 {
			continue
		}
		var f *flit.Flit
		if in := flit.Port(i); in == flit.Local {
			f = env.ConsumeInjection(cycle)
			injected = true
		} else {
			f = b.bank.pop(in, o)
			env.Meter().BufferRead()
			env.ReturnCredit(in)
		}
		out := flit.Port(o)
		ejected = ejected || out == flit.Local
		send(env, b.table, out, f, cycle)
	}
	return injected, ejected
}

// send launches f through p, charging the crossbar traversal and computing
// its request at the downstream router from t (look-ahead routing).
func send(env *sim.Env, t *routing.Table, p flit.Port, f *flit.Flit, cycle uint64) {
	env.Meter().CrossbarTraversal()
	env.Stats().RoutedEvent(cycle)
	if p != flit.Local {
		f.Route = t.RequestAt(env.Neighbor(p), int(f.Dst))
	}
	env.Send(p, f)
}
