package core

import (
	"dxbar/internal/buffer"
	"dxbar/internal/crossbar"
	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
)

// Unified is the dual-input single-crossbar router of §II.B (Fig. 4): the
// primary and secondary fabrics are merged into one 5×5 transmission-gate
// crossbar, so the bufferless (incoming) and buffered candidate of the same
// input port can traverse simultaneously to different outputs. Allocation
// uses the augmented separable output-first allocator with two serial V:1
// arbiters per input and the conflict-free swap logic (dualInput).
//
// Buffering, fairness and look-ahead behaviour match DXbar; only the
// switch fabric and allocator differ — the paper reports "similar
// performance as dual crossbar architecture" with ~25% instead of ~33% area
// overhead, at 15 pJ/flit instead of 13 pJ/flit switching energy (pair the
// router with energy.NewUnifiedMeter).
type Unified struct {
	env *sim.Env

	xbar    *crossbar.Unified
	alloc   *dualInput
	buffers [flit.NumLinkPorts]*buffer.FIFO

	fair     *fairness
	detector *faults.Detector

	// table is the precomputed form of the routing algorithm (shared
	// network-wide when the factory passes a *routing.Table); portMask caches
	// the node's links.
	table    *routing.Table
	portMask uint8

	// manifestSeen latches the fault manifestation for the flight recorder;
	// lastSwaps tracks the allocator's cumulative swap count so each cycle's
	// delta can be recorded.
	manifestSeen bool
	lastSwaps    uint64

	// Per-Step scratch, reused across cycles.
	waiters []waiter
	reqs    []dualRequest
}

// NewUnified builds a unified dual-input crossbar router. The engine must
// be configured with BufferDepth 4 and an energy.NewUnifiedMeter.
func NewUnified(env *sim.Env, algo routing.Algorithm, threshold int, fault *faults.Detector) *Unified {
	u := &Unified{
		env:      env,
		xbar:     crossbar.NewUnified(flit.NumPorts),
		alloc:    newDualInput(flit.NumPorts, flit.NumPorts),
		fair:     newFairness(threshold),
		detector: fault,
		waiters:  make([]waiter, 0, flit.NumPorts),
		reqs:     make([]dualRequest, flit.NumPorts),
	}
	if u.detector == nil {
		u.detector = faults.NewDetector(faults.Fault{}, faults.DefaultDetectionDelay, false)
	}
	for p := range u.buffers {
		u.buffers[p] = buffer.NewFIFO(BufferDepth)
	}
	mesh := env.Mesh()
	u.table = routing.NewTable(algo, mesh, mesh.Nodes())
	u.portMask = mesh.PortMask(env.Node)
	return u
}

// Step implements sim.Router. It reports quiescent when the four input
// buffers are empty and no fault manifestation is pending (the unified design
// has no detection transition): the allocator is age-based and stateless
// between cycles, the crossbar is rebuilt at the top of every Step and the
// fairness counter only moves while flits wait, so with nothing buffered,
// latched or queued another Step changes nothing.
func (u *Unified) Step(cycle uint64) (quiescent bool) {
	env := u.env
	u.xbar.Reset()

	// The unified fabric is a single point of failure; §II.C limits the
	// fault study to the dual-crossbar design, but the model still honours
	// an injected fault: a dead unified crossbar stops switching entirely
	// (arrivals are buffered while space lasts, then back-pressure stalls
	// the neighbourhood — the single-fabric design has no fallback path).
	if u.detector.Manifest(cycle) {
		if !u.manifestSeen {
			u.manifestSeen = true
			env.Events().Record(cycle, events.FaultManifest, env.Node, flit.Invalid, 0, 0, int32(u.detector.Fault().Crossbar))
			// The unified design has no detection path (§II.C studies
			// fault tolerance on the dual-crossbar only), so only the
			// manifest side of the diag latency window is reported.
			env.DiagFaultManifest(cycle)
		}
		if !u.xbar.Dead() {
			u.xbar.Kill()
		}
	}

	// Gather incoming flits and waiting flits.
	var arrived [flit.NumLinkPorts]*flit.Flit
	for p := flit.North; p <= flit.West; p++ {
		if f := env.In[p]; f != nil {
			env.In[p] = nil
			arrived[p] = f
		}
	}
	env.InMask = 0
	waiters := u.collectWaiters()
	waitersExist := len(waiters) > 0
	flip := u.fair.flip(waitersExist)

	// Build the dual-input request vectors. Sub-input 0 (bufferless, low
	// entry) carries the incoming flit's single look-ahead request;
	// sub-input 1 (buffered, high entry) carries the buffer head's (or, on
	// port index 4, the injection flit's) full productive set. The request
	// slice is the router's reusable scratch.
	// Sendability is one bitmask for the whole allocation round: no flit is
	// launched until after allocate, so the mask computed here equals a
	// CanSend call at every request-build probe.
	sendable := uint64(env.SendableMask())
	reqs := u.reqs
	for i := range reqs {
		reqs[i].want = [2]uint64{} // age is only read where want is set
	}
	var waiterAt [flit.NumPorts]*waiter
	for p := flit.North; p <= flit.West; p++ {
		if f := arrived[p]; f != nil {
			out := u.requestPort(f)
			if out != flit.Invalid && sendable&(1<<uint(out)) != 0 {
				reqs[p].want[subBufferless] = 1 << uint(out)
				reqs[p].age[subBufferless] = f.InjectionCycle
			}
		}
	}
	for i := range waiters {
		w := &waiters[i]
		idx := int(w.port)
		if w.port == flit.Local {
			idx = secondaryInjIn
		}
		if mask := uint64(u.table.ProductiveMaskAt(env.Node, int(w.f.Dst))) & sendable; mask != 0 {
			reqs[idx].want[subBuffered] = mask
			reqs[idx].age[subBuffered] = w.f.InjectionCycle
			waiterAt[idx] = w
		}
	}

	grants := u.alloc.allocate(reqs, flip)
	if swaps := u.alloc.swaps; swaps != u.lastSwaps {
		env.Events().Record(cycle, events.Swap, env.Node, flit.Invalid, 0, 0, int32(swaps-u.lastSwaps))
		u.lastSwaps = swaps
	}

	var primaryWon, waiterWon bool
	for p := 0; p < flit.NumPorts; p++ {
		gIncoming := grants[p][subBufferless]
		gBuffered := grants[p][subBuffered]
		// Conflict-free swap (§II.B.2): when both sub-inputs won, the flit
		// bound for the lower output column must enter from the low end.
		entIncoming, entBuffered := crossbar.EntryLow, crossbar.EntryHigh
		if gIncoming != -1 && gBuffered != -1 && gIncoming > gBuffered {
			entIncoming, entBuffered = crossbar.EntryHigh, crossbar.EntryLow
		}
		if gIncoming != -1 && p < flit.NumLinkPorts {
			f := arrived[p]
			if u.xbar.TryConnect(p, entIncoming, gIncoming) == crossbar.OK {
				env.ReturnCredit(flit.Port(p))
				env.Events().Record(cycle, events.PrimaryWin, env.Node, flit.Port(p), f.PacketID, f.ID, int32(gIncoming))
				u.sendVia(flit.Port(gIncoming), f, cycle)
				arrived[p] = nil
				primaryWon = true
			}
		}
		if gBuffered != -1 && waiterAt[p] != nil {
			w := waiterAt[p]
			if u.xbar.TryConnect(p, entBuffered, gBuffered) == crossbar.OK {
				u.dispatchWaiter(*w, flit.Port(gBuffered), cycle)
				waiterWon = true
			}
		}
	}

	// Losing (or fault-blocked) incoming flits are demuxed into their
	// buffers, exactly as in the dual-crossbar design.
	for p := flit.North; p <= flit.West; p++ {
		if f := arrived[p]; f != nil {
			u.bufferFlit(f, p, cycle)
		}
	}

	if u.fair.observe(waitersExist, primaryWon, waiterWon) {
		env.Stats().FairnessFlip(cycle)
		env.Events().Record(cycle, events.FairnessFlip, env.Node, flit.Invalid, 0, 0, int32(u.fair.Flips()))
	}
	return u.Occupancy() == 0 && (!u.detector.Active() || u.manifestSeen)
}

func (u *Unified) collectWaiters() []waiter {
	ws := u.waiters[:0]
	for p := flit.North; p <= flit.West; p++ {
		if h := u.buffers[p].Head(); h != nil {
			ws = append(ws, waiter{f: h, port: p})
		}
	}
	if f := u.env.InjectionHead(); f != nil {
		ws = append(ws, waiter{f: f, port: flit.Local})
	}
	sortWaiters(ws)
	return ws
}

func (u *Unified) requestPort(f *flit.Flit) flit.Port {
	if int(f.Dst) == u.env.Node {
		return flit.Local
	}
	if r := f.Route; r.IsCardinal() && u.portMask&(1<<uint(r)) != 0 {
		return r
	}
	return u.table.RequestAt(u.env.Node, int(f.Dst))
}

func (u *Unified) dispatchWaiter(w waiter, out flit.Port, cycle uint64) {
	if w.port == flit.Local {
		u.env.ConsumeInjection(cycle)
	} else {
		u.buffers[w.port].Pop()
		u.env.Meter().BufferRead()
		u.env.ReturnCredit(w.port)
	}
	u.sendVia(out, w.f, cycle)
}

func (u *Unified) bufferFlit(f *flit.Flit, p flit.Port, cycle uint64) {
	u.buffers[p].Push(f)
	f.Buffered++
	u.env.Meter().BufferWrite()
	u.env.Stats().BufferingEvent(cycle)
	u.env.Events().Record(cycle, events.Buffered, u.env.Node, p, f.PacketID, f.ID, int32(u.buffers[p].Len()))
}

func (u *Unified) sendVia(out flit.Port, f *flit.Flit, cycle uint64) {
	env := u.env
	env.Meter().CrossbarTraversal()
	env.Stats().RoutedEvent(cycle)
	if out != flit.Local {
		f.Route = u.table.RequestAt(env.Neighbor(out), int(f.Dst))
	}
	env.Send(out, f)
}

// Occupancy returns the number of buffered flits.
func (u *Unified) Occupancy() int {
	total := 0
	for _, b := range u.buffers {
		total += b.Len()
	}
	return total
}

// Swaps returns the allocator's conflict-free swap count.
func (u *Unified) Swaps() uint64 { return u.alloc.swaps }

// FairnessFlips returns the fairness counter's flip count.
func (u *Unified) FairnessFlips() uint64 { return u.fair.Flips() }
