package core

import (
	"dxbar/internal/buffer"
	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
)

// inputs is the input stage the two paper routers share: the four input
// buffers conflict losers are demuxed into, the fairness counter that flips
// priority between incoming and waiting flits (§II.A.2), the look-ahead
// request of an arriving flit, and the bookkeeping of a winner leaving
// through an output. DXbar and Unified embed it and differ only in their
// fabrics and allocators.
type inputs struct {
	env *sim.Env

	// buffers[p] is input p's buffer. Its write is also route computation:
	// an entry carries its request mask (Unified) and ordered productive list
	// (DXbar) from then on, so a waiting head never queries the table again.
	buffers [flit.NumLinkPorts]buffer.Queue
	// bufMask has bit p set while input buffer p is non-empty (maintained at
	// every Push/Pop), so the waiter gathers probe only occupied buffers.
	bufMask uint8

	fair     fairness
	detector faults.Detector
	// manifestSeen latches the fault manifestation so the flight recorder
	// sees it exactly once.
	manifestSeen bool

	// table is the precomputed form of the routing algorithm (shared
	// network-wide when the factory passes a *routing.Table); portMask caches
	// the node's link ports — routing queries never touch the Algorithm
	// interface or the mesh.
	table    *routing.Table
	portMask uint8

	// sendable is the cycle's live CanSend bitmask: the router computes it
	// once per Step and send clears the bit of the port it uses.
	sendable uint8
}

// init builds an input stage with depth-flit buffers in place, carving the
// buffers from the node's queue store (sim.Env.QueueStore). The zero
// detector stands for a healthy router.
func (in *inputs) init(env *sim.Env, algo routing.Algorithm, threshold, depth int, fault faults.Detector) {
	mesh := env.Mesh()
	*in = inputs{env: env, fair: newFairness(threshold), detector: fault,
		table: routing.NewTable(algo, mesh, mesh.Nodes()), portMask: mesh.PortMask(env.Node)}
	buffer.InitQueues(in.buffers[:], depth, env.QueueStore())
}

// manifested reports whether the router's fault has manifested by cycle,
// reporting the manifestation to the flight recorder and the run-health
// monitor the first time.
func (in *inputs) manifested(cycle uint64) bool {
	if !in.detector.Manifest(cycle) {
		return false
	}
	if !in.manifestSeen {
		in.manifestSeen = true
		env := in.env
		env.Events().Record(cycle, events.FaultManifest, env.Node, flit.Invalid, 0, 0, int32(in.detector.Fault().Crossbar))
		env.DiagFaultManifest(cycle)
	}
	return true
}

// requestPort returns the output an incoming flit asks for: Local when it has
// arrived, otherwise its look-ahead route — recomputed from the routing table
// if that field is unusable.
func (in *inputs) requestPort(f *flit.Flit, dst int) flit.Port {
	if dst == in.env.Node {
		return flit.Local
	}
	if r := f.Route; r.IsCardinal() && in.portMask&(1<<uint(r)) != 0 {
		return r
	}
	return in.table.RequestAt(in.env.Node, dst)
}

// bufferFlit demuxes a losing incoming flit into its input buffer, computing
// its route there once for the hop.
func (in *inputs) bufferFlit(f *flit.Flit, p flit.Port, cycle uint64) {
	e := buffer.Entry{F: f}
	e.Want, e.Route = in.table.RouteAt(in.env.Node, int(f.Dst))
	n := in.buffers[p].Push(e) // flow control guarantees space; Push panics otherwise
	in.bufMask |= 1 << uint(p)
	f.Buffered++
	in.env.Meter().BufferWrite()
	in.env.Stats().BufferingEvent(cycle)
	in.env.Events().Record(cycle, events.Buffered, in.env.Node, p, f.PacketID, f.ID, int32(n))
}

// dispatch commits a winning waiter: pops its buffer wp (or consumes the
// injection queue when wp is Local) and launches the flit through out.
func (in *inputs) dispatch(f *flit.Flit, wp, out flit.Port, cycle uint64) {
	if wp == flit.Local {
		in.env.ConsumeInjection(cycle)
	} else {
		b := &in.buffers[wp]
		b.Pop()
		if b.Len() == 0 {
			in.bufMask &^= 1 << uint(wp)
		}
		in.env.Meter().BufferRead()
		in.env.ReturnCredit(wp)
	}
	in.send(out, f, cycle)
}

// send launches f through output port out, charging the crossbar traversal,
// computing the look-ahead route for the downstream router and clearing the
// port's sendable bit.
func (in *inputs) send(out flit.Port, f *flit.Flit, cycle uint64) {
	env := in.env
	env.Meter().CrossbarTraversal()
	env.Stats().RoutedEvent(cycle)
	if out != flit.Local {
		f.Route = in.table.RequestAt(env.Neighbor(out), int(f.Dst))
	}
	in.sendable &^= 1 << uint(out)
	env.Send(out, f)
}

// observeFairness feeds the cycle's outcome to the fairness counter and
// records a priority flip.
func (in *inputs) observeFairness(waitersExist, primaryWon, waiterWon bool, cycle uint64) {
	if in.fair.observe(waitersExist, primaryWon, waiterWon) {
		in.env.Stats().FairnessFlip(cycle)
		in.env.Events().Record(cycle, events.FairnessFlip, in.env.Node, flit.Invalid, 0, 0, int32(in.fair.Flips()))
	}
}

// Occupancy returns the number of buffered flits.
func (in *inputs) Occupancy() int {
	total := 0
	for p := range in.buffers {
		total += in.buffers[p].Len()
	}
	return total
}

// FairnessFlips returns how many times the fairness counter flipped
// priority (diagnostics/ablations).
func (in *inputs) FairnessFlips() uint64 { return in.fair.Flips() }
