package core

import (
	"math/bits"

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
// Buffering, fairness and look-ahead behaviour are DXbar's (the shared input
// stage); only the switch fabric and allocator differ — the paper reports
// "similar performance as dual crossbar architecture" with ~25% instead of
// ~33% area overhead, at 15 pJ/flit instead of 13 pJ/flit switching energy
// (energy.EnergyPJ prices it by the design name "unified").
type Unified struct {
	inputs

	xbar  crossbar.Unified
	alloc dualInput

	// lastSwaps tracks the allocator's cumulative swap count so each cycle's
	// delta can be recorded.
	lastSwaps uint64
}

// NewUnified builds a unified dual-input crossbar router. The engine must
// be configured with BufferDepth 4.
func NewUnified(env *sim.Env, algo routing.Algorithm, threshold int, fault faults.Detector) *Unified {
	u := new(Unified)
	u.Init(env, algo, threshold, fault)
	return u
}

// Init builds the router in place, as NewUnified does on a fresh
// allocation; like DXbar.Init it allocates nothing.
func (u *Unified) Init(env *sim.Env, algo routing.Algorithm, threshold int, fault faults.Detector) {
	*u = Unified{}
	u.inputs.init(env, algo, threshold, BufferDepth, fault)
	u.xbar.Init(flit.NumPorts)
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
	// an injected fault of either granularity: a dead unified crossbar stops
	// switching entirely (arrivals are buffered while space lasts, then
	// back-pressure stalls the neighbourhood — the single-fabric design has
	// no fallback path). It has no detection path either, so only the
	// manifest side of the diag latency window is reported.
	if u.manifested(cycle) {
		u.xbar.Kill()
	}

	// Gather the round's candidates straight into the allocator. Sub-input 0
	// (bufferless, low entry) carries an incoming flit's single look-ahead
	// request; sub-input 1 (buffered, high entry) carries the buffer head's
	// (or, on port index 4, the injection flit's) full productive set — the
	// head's computed at buffer write, the injection flit's here.
	// Sendability is one bitmask for the whole allocation round: no flit is
	// launched until after allocate, so the mask computed here equals a
	// CanSend call at every request probe.
	u.sendable = env.SendableMask()
	sendable := u.sendable
	alloc := &u.alloc
	var arrived [flit.NumLinkPorts]*flit.Flit
	unsent := env.InMask
	for m := unsent; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		f := env.In[p]
		env.In[p] = nil
		arrived[p] = f
		if out := u.requestPort(f, int(f.Dst)); out != flit.Invalid && sendable&(1<<uint(out)) != 0 {
			alloc.ask(p, subBufferless, 1<<uint(out), f.InjectionCycle)
		}
	}
	env.InMask = 0
	var heads [flit.NumPorts]*flit.Flit
	for b := u.bufMask; b != 0; b &= b - 1 {
		p := bits.TrailingZeros8(b)
		h := u.buffers[p].At(0)
		heads[p] = h.F
		if w := h.Want & sendable; w != 0 {
			alloc.ask(p, subBuffered, w, h.F.InjectionCycle)
		}
	}
	if f := env.InjectionHead(); f != nil {
		heads[flit.Local] = f
		want, _ := u.table.RouteAt(env.Node, int(f.Dst))
		if w := want & sendable; w != 0 {
			alloc.ask(int(flit.Local), subBuffered, w, f.InjectionCycle)
		}
	}
	waitersExist := u.bufMask != 0 || heads[flit.Local] != nil
	flip := u.fair.flip(waitersExist)

	granted := alloc.allocate(flip)
	if swaps := alloc.swaps; swaps != u.lastSwaps {
		env.Events().Record(cycle, events.Swap, env.Node, flit.Invalid, 0, 0, int32(swaps-u.lastSwaps))
		u.lastSwaps = swaps
	}

	var primaryWon, waiterWon bool
	for m := granted; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		gIncoming, gBuffered := int(alloc.grants[p][subBufferless]), int(alloc.grants[p][subBuffered])
		// Conflict-free swap (§II.B.2): when both sub-inputs won, the flit
		// bound for the lower output column must enter from the low end.
		entIncoming, entBuffered := crossbar.EntryLow, crossbar.EntryHigh
		if gIncoming != -1 && gBuffered != -1 && gIncoming > gBuffered {
			entIncoming, entBuffered = crossbar.EntryHigh, crossbar.EntryLow
		}
		if gIncoming != -1 {
			f := arrived[p]
			if u.xbar.TryConnect(p, entIncoming, gIncoming) == crossbar.OK {
				env.ReturnCredit(flit.Port(p))
				env.Events().Record(cycle, events.PrimaryWin, env.Node, flit.Port(p), f.PacketID, f.ID, int32(gIncoming))
				u.send(flit.Port(gIncoming), f, cycle)
				unsent &^= 1 << uint(p)
				primaryWon = true
			}
		}
		if gBuffered != -1 && u.xbar.TryConnect(p, entBuffered, gBuffered) == crossbar.OK {
			u.dispatch(heads[p], flit.Port(p), flit.Port(gBuffered), cycle)
			waiterWon = true
		}
	}

	// Losing (or fault-blocked) incoming flits are demuxed into their
	// buffers, exactly as in the dual-crossbar design.
	for m := unsent; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		u.bufferFlit(arrived[p], flit.Port(p), cycle)
	}

	u.observeFairness(waitersExist, primaryWon, waiterWon, cycle)
	return u.bufMask == 0 && (!u.detector.Active() || u.manifestSeen)
}

// Swaps returns the allocator's conflict-free swap count.
func (u *Unified) Swaps() uint64 { return u.alloc.swaps }
