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

// BufferDepth is DXbar's per-input serial buffer depth (4 flits, §III.A).
const BufferDepth = 4

// DXbar is the dual-crossbar router of §II.A (Fig. 1):
//
//   - a primary bufferless crossbar with the four link inputs and five
//     outputs, switching incoming flits in their arrival cycle (SA/ST);
//   - a secondary buffered crossbar with five inputs — the four input
//     buffers plus the PE injection port — and five outputs;
//   - demultiplexers steering each arriving flit to the primary crossbar
//     (arbitration winners) or into its buffer (losers), and multiplexers
//     merging the two crossbars' outputs onto the output links.
//
// Arbitration is age-based; incoming flits outrank buffered/injection flits
// except when the fairness counter flips priority (§II.A.2). Buffered flits
// may re-route adaptively ("re-directing the buffered flit to another
// progressive direction", §II.B) under WF routing.
//
// Fault tolerance (§II.C): either crossbar may fail permanently; after the
// BIST detection delay the router degrades into a buffered router through
// the surviving crossbar, using the 2×2 steering crossbars between the
// buffers and the fabrics. During the undetected window, connection
// attempts that hit the dead fabric fail (the allocator's busy/free probe)
// and the affected flits fall back to the buffers or stall.
type DXbar struct {
	inputs

	primary   crossbar.XBar // 4 link inputs × 5 outputs
	secondary crossbar.XBar // 4 buffers + injection × 5 outputs

	// adaptive caches the routing algorithm's adaptivity (the waiters'
	// congestion-aware port order).
	adaptive bool

	// portOrder switches arbitration from age-based to static port order
	// (an ablation of the paper's age-based priority, §II.A).
	portOrder bool

	// detectedSeen latches the fault detection so the flight recorder sees
	// it exactly once.
	detectedSeen bool

	// Per-Step scratch, reused across cycles: the SoA gathers of the
	// arrivals and of the waiters (of the row candidates in degraded mode B).
	ins, ws PortState
}

// secondaryInjIn is the secondary-crossbar input index of the PE injection
// port.
const secondaryInjIn = 4

// NewDXbar builds a dual-crossbar router with the paper's 4-flit buffers.
// threshold is the fairness-counter threshold (use FairnessThreshold for
// the paper's configuration). fault is the router's fault detector (use an
// inactive detector for a healthy router). The engine must be configured
// with BufferDepth 4.
func NewDXbar(env *sim.Env, algo routing.Algorithm, threshold int, fault faults.Detector) *DXbar {
	return NewDXbarDepth(env, algo, threshold, BufferDepth, fault)
}

// SetPortOrderArbitration switches the router to static port-order
// arbitration instead of age-based (the arbitration-policy ablation). Call
// before the first Step.
func (d *DXbar) SetPortOrderArbitration(on bool) { d.portOrder = on }

// NewDXbarDepth is NewDXbar with a configurable per-input buffer depth
// (buffer-depth ablations). The engine's credit BufferDepth must match.
func NewDXbarDepth(env *sim.Env, algo routing.Algorithm, threshold, depth int, fault faults.Detector) *DXbar {
	d := new(DXbar)
	d.Init(env, algo, threshold, depth, fault)
	return d
}

// Init builds the router in place, as NewDXbarDepth does on a fresh
// allocation: a network's routers are built into one slab. Everything the
// router holds — crossbars, fairness counter, detector — is held by value,
// and its buffers come from the node's queue store, so Init allocates
// nothing.
func (d *DXbar) Init(env *sim.Env, algo routing.Algorithm, threshold, depth int, fault faults.Detector) {
	*d = DXbar{adaptive: algo.Adaptive()}
	d.inputs.init(env, algo, threshold, depth, fault)
	d.primary.Init(flit.NumLinkPorts, flit.NumPorts)
	d.secondary.Init(flit.NumPorts, flit.NumPorts)
}

// Step implements sim.Router. Every mode runs on one set of gathers and
// checks: arrivals and waiters are SoA PortStates age-sorted by permuting one
// byte per slot, sendability is one bitmask computed per cycle, crossbar
// probes are the enum TryConnect, and every routing query is a table load.
// The lockstep tests hold it to the branchy router it replaced.
//
// It reports quiescent when the four input buffers are empty and the fault
// state machine has no transition left to take (no fault planned, or already
// detected): a sleeping router must not miss the cycle its fault manifests or
// is detected, because both are recorded, and reported to the run-health
// monitor, with the cycle they happen on. That is all the state a Step can
// move on its own — the crossbars are rebuilt from the detector at the top of
// every Step, and the fairness counter only moves while flits wait — so with
// nothing buffered, latched or queued another Step changes nothing.
func (d *DXbar) Step(cycle uint64) (quiescent bool) {
	d.primary.Reset()
	d.secondary.Reset()
	detected := d.applyFaults(cycle)
	env := d.env
	inj := env.InjectionHead()
	waitersExist := d.bufMask != 0 || inj != nil
	flip := d.fair.flip(waitersExist)
	d.sendable = env.SendableMask()

	var primaryWon, waiterWon bool
	if detected && d.secondary.Dead() {
		primaryWon, waiterWon = d.allocateRows(inj, flip, cycle)
	} else {
		ins, ws := d.gather(inj)
		// The waiters were gathered before any buffering: a flit buffered
		// this cycle must not be read back out in the same cycle. A detected
		// dead primary (degraded mode A) buffers every arrival, and does so
		// first even under a flip, as the buffered router it degrades into.
		if flip && !(detected && d.primary.Dead()) {
			waiterWon = d.allocateWaiters(ws, detected, cycle)
			primaryWon = d.allocateIncoming(ins, cycle)
		} else {
			primaryWon = d.allocateIncoming(ins, cycle)
			waiterWon = d.allocateWaiters(ws, detected, cycle)
		}
	}
	d.observeFairness(waitersExist, primaryWon, waiterWon, cycle)
	return d.bufMask == 0 && (!d.detector.Active() || d.detectedSeen)
}

// applyFaults advances the fault state machine: manifest faults are applied
// to the fabric models, detection is latched for the flight recorder. It
// returns whether the router's fault has been detected.
func (d *DXbar) applyFaults(cycle uint64) bool {
	env := d.env
	if d.manifested(cycle) {
		f := d.detector.Fault()
		target := &d.primary
		if f.Crossbar == faults.Secondary {
			target = &d.secondary
		}
		switch f.Granularity {
		case faults.WholeCrossbar:
			target.Kill()
		case faults.Crosspoint:
			target.InjectCrosspointFault(f.In, f.Out)
		}
	}
	detected := d.detector.Detected(cycle)
	if detected && !d.detectedSeen {
		d.detectedSeen = true
		env.Events().Record(cycle, events.FaultDetected, env.Node, flit.Invalid, 0, 0, int32(d.detector.Fault().Crossbar))
		env.DiagFaultDetected(cycle)
	}
	return detected
}

// gather takes this cycle's arrivals off the input latches and lists the
// waiters — the occupied buffers' heads, then the injection head inj — each
// oldest first unless port-order arbitration is on.
func (d *DXbar) gather(inj *flit.Flit) (ins, ws *PortState) {
	env := d.env
	ins, ws = &d.ins, &d.ws
	ins.Reset()
	for b := env.InMask; b != 0; b &= b - 1 {
		p := flit.Port(bits.TrailingZeros8(b))
		ins.Add(env.In[p], p)
		env.In[p] = nil
	}
	env.InMask = 0
	ws.Reset()
	for b := d.bufMask; b != 0; b &= b - 1 {
		p := flit.Port(bits.TrailingZeros8(b))
		h := d.buffers[p].At(0)
		ws.Route[ws.Add(h.F, p)] = h.Route
	}
	if inj != nil {
		ws.Route[ws.Add(inj, flit.Local)] = d.route(inj)
	}
	if !d.portOrder {
		if ins.N > 1 {
			ins.SortAge()
		}
		if ws.N > 1 {
			ws.SortAge()
		}
	}
	return ins, ws
}

// allocateIncoming runs the primary-crossbar arbitration: each incoming
// flit, oldest first, attempts its look-ahead output port; winners traverse
// the primary crossbar and return their credit immediately, losers are
// demuxed into their input buffer (every arrival, when the primary is dead).
// Returns whether any incoming flit won.
func (d *DXbar) allocateIncoming(ins *PortState, cycle uint64) bool {
	env := d.env
	won := false
	for i := 0; i < ins.N; i++ {
		s := ins.Order[i]
		f, p := ins.Flits[s], ins.Src[s]
		out := d.requestPort(f, int(ins.Dst[s]))
		if out != flit.Invalid && d.sendable&(1<<uint(out)) != 0 &&
			d.primary.TryConnect(int(p), int(out)) == crossbar.OK {
			env.ReturnCredit(p)
			env.Events().Record(cycle, events.PrimaryWin, env.Node, p, f.PacketID, f.ID, int32(out))
			d.send(out, f, cycle)
			won = true
			continue
		}
		d.bufferFlit(f, p, cycle)
	}
	return won
}

// allocateWaiters runs the secondary-crossbar arbitration: buffer heads and
// the injection flit, oldest first, may take any free productive output —
// the dual-crossbar design lets them progress "without blocking an incoming
// packet from the primary crossbar as a separate path is available for
// both" (§I). Once a fault has been *detected*, the 2×2 steering crossbars
// between the buffers and the fabrics let a buffered flit whose secondary
// path is faulty traverse the primary crossbar instead, provided its input
// row is idle this cycle (§II.C). Returns whether any waiter won.
func (d *DXbar) allocateWaiters(ws *PortState, detected bool, cycle uint64) bool {
	won := false
	for i := 0; i < ws.N; i++ {
		s := ws.Order[i]
		f, wp := ws.Flits[s], ws.Src[s]
		ports := d.waiterPorts(ws.Route[s])
		for k := 0; k < ports.Len(); k++ {
			out := ports.At(k)
			if d.sendable&(1<<uint(out)) == 0 {
				continue
			}
			in := int(wp)
			if wp == flit.Local {
				in = secondaryInjIn
			}
			st := d.secondary.TryConnect(in, int(out))
			if st != crossbar.OK {
				// 2×2 steering fallback through the primary fabric.
				if st != crossbar.Fault || !detected || wp == flit.Local ||
					d.primary.TryConnect(int(wp), int(out)) != crossbar.OK {
					// Busy column, undetected fault, or occupied fallback
					// row: try the next productive port.
					continue
				}
			}
			d.dispatch(f, wp, out, cycle)
			won = true
			break
		}
	}
	return won
}

// allocateRows is degraded mode B (secondary dead, detected): the 2×2
// steering crossbars give each primary input row one candidate — its
// arrival, or its buffer head when nothing arrived or the fairness flip
// prefers waiters, a displaced arrival being buffered first — and the
// candidates, oldest first even under port-order arbitration, take a
// productive output through the primary crossbar. A losing arrival is
// buffered; the injection flit inj may use an idle row.
func (d *DXbar) allocateRows(inj *flit.Flit, flip bool, cycle uint64) (primaryWon, waiterWon bool) {
	env := d.env
	rows := &d.ws
	rows.Reset()
	var taken, heads uint8 // rows with a candidate; rows whose candidate is the buffer head
	for p := flit.North; p <= flit.West; p++ {
		f, bit := env.In[p], uint8(1)<<uint(p)
		env.In[p] = nil
		if d.bufMask&bit != 0 && (f == nil || flip) {
			if f != nil {
				d.bufferFlit(f, p, cycle)
			}
			h := d.buffers[p].At(0)
			rows.Route[rows.Add(h.F, p)] = h.Route
			taken |= bit
			heads |= bit
		} else if f != nil {
			rows.Route[rows.Add(f, p)] = d.route(f)
			taken |= bit
		}
	}
	env.InMask = 0
	rows.SortAge()
	for i := 0; i < rows.N; i++ {
		s := rows.Order[i]
		f, p := rows.Flits[s], rows.Src[s]
		out := d.steer(rows.Route[s], p)
		switch {
		case heads&(1<<uint(p)) != 0:
			if out != flit.Invalid {
				d.dispatch(f, p, out, cycle)
				waiterWon = true
			}
		case out != flit.Invalid:
			env.ReturnCredit(p)
			env.Events().Record(cycle, events.PrimaryWin, env.Node, p, f.PacketID, f.ID, int32(out))
			d.send(out, f, cycle)
			primaryWon = true
		default:
			d.bufferFlit(f, p, cycle)
		}
	}
	// The primary is healthy (a router has one fault), so a failed probe on
	// an idle row is the output side's and would fail on every idle row:
	// the first one is the only one worth trying.
	if idle := ^taken & (1<<flit.NumLinkPorts - 1); inj != nil && idle != 0 {
		if out := d.steer(d.route(inj), flit.Port(bits.TrailingZeros8(idle))); out != flit.Invalid {
			d.dispatch(inj, flit.Local, out, cycle)
			waiterWon = true
		}
	}
	return primaryWon, waiterWon
}

// steer connects input row `row` of the primary crossbar to the first
// sendable output of the packed productive list route it can take, or
// returns Invalid.
func (d *DXbar) steer(route uint16, row flit.Port) flit.Port {
	ports := d.waiterPorts(route)
	for k := 0; k < ports.Len(); k++ {
		if out := ports.At(k); d.sendable&(1<<uint(out)) != 0 &&
			d.primary.TryConnect(int(row), int(out)) == crossbar.OK {
			return out
		}
	}
	return flit.Invalid
}

// route is the packed productive list of a flit with no buffer entry: the
// injection head, or an arrival competing for a degraded mode-B row.
func (d *DXbar) route(f *flit.Flit) uint16 {
	_, r := d.table.RouteAt(d.env.Node, int(f.Dst))
	return r
}

// waiterPorts returns the output ports a waiting flit with the packed
// productive list route may use, in preference order: Local when arrived (the
// empty list), otherwise the productive set (adaptive re-direction under WF).
// Adaptive choices are congestion-aware: the port with more downstream
// credits comes first, so a re-directed flit heads for the less-loaded
// progressive direction. The credits move, so this reorder is per cycle.
func (d *DXbar) waiterPorts(route uint16) routing.PortList {
	ports := routing.UnpackList(route)
	if ports.Len() == 0 {
		return routing.Ports(flit.Local)
	}
	if d.adaptive && ports.Len() == 2 {
		a, b := d.env.DownstreamCredits(ports.At(0)), d.env.DownstreamCredits(ports.At(1))
		if a != nil && b != nil && b.Available() > a.Available() {
			return routing.Ports(ports.At(1), ports.At(0))
		}
	}
	return ports
}
