package core

import (
	"errors"
	"math/bits"

	"dxbar/internal/buffer"
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
	env  *sim.Env
	algo routing.Algorithm

	primary   *crossbar.XBar // 4 link inputs × 5 outputs
	secondary *crossbar.XBar // 4 buffers + injection × 5 outputs
	buffers   [flit.NumLinkPorts]*buffer.FIFO

	fair     *fairness
	detector *faults.Detector

	// table is the precomputed form of algo (shared network-wide when the
	// factory passes a *routing.Table); portMask caches the node's link
	// ports and adaptive the algorithm's adaptivity — the fast path's
	// routing queries never touch the Algorithm interface or the mesh.
	table    *routing.Table
	portMask uint8
	adaptive bool

	// portOrder switches arbitration from age-based to static port order
	// (an ablation of the paper's age-based priority, §II.A).
	portOrder bool

	// manifestSeen/detectedSeen latch the fault state machine's transitions
	// so the flight recorder sees each exactly once.
	manifestSeen, detectedSeen bool

	// Per-Step scratch, reused across cycles. incoming/waiters serve the
	// degraded path; ins/ws are the fast path's SoA gathers;
	// bufMask has bit p set while input buffer p is non-empty (maintained
	// at every Push/Pop), so the waiter gather probes only occupied FIFOs.
	bufMask uint8

	// sendable is the fast path's live CanSend bitmask.
	incoming []inFlit
	waiters  []waiter
	ins, ws  PortState
	sendable uint8
}

// inFlit pairs an arriving flit with the input port it was latched on (the
// old per-cycle map[*flit.Flit]flit.Port, flattened onto the hot path).
type inFlit struct {
	f    *flit.Flit
	port flit.Port
}

// secondaryInjIn is the secondary-crossbar input index of the PE injection
// port.
const secondaryInjIn = 4

// NewDXbar builds a dual-crossbar router with the paper's 4-flit buffers.
// threshold is the fairness-counter threshold (use FairnessThreshold for
// the paper's configuration). fault is the router's fault detector (use an
// inactive detector for a healthy router). The engine must be configured
// with BufferDepth 4.
func NewDXbar(env *sim.Env, algo routing.Algorithm, threshold int, fault *faults.Detector) *DXbar {
	return NewDXbarDepth(env, algo, threshold, BufferDepth, fault)
}

// SetPortOrderArbitration switches the router to static port-order
// arbitration instead of age-based (the arbitration-policy ablation). Call
// before the first Step.
func (d *DXbar) SetPortOrderArbitration(on bool) { d.portOrder = on }

// NewDXbarDepth is NewDXbar with a configurable per-input buffer depth
// (buffer-depth ablations). The engine's credit BufferDepth must match.
func NewDXbarDepth(env *sim.Env, algo routing.Algorithm, threshold, depth int, fault *faults.Detector) *DXbar {
	d := &DXbar{
		env:       env,
		algo:      algo,
		primary:   crossbar.NewXBar(flit.NumLinkPorts, flit.NumPorts),
		secondary: crossbar.NewXBar(flit.NumPorts, flit.NumPorts),
		fair:      newFairness(threshold),
		detector:  fault,
		incoming:  make([]inFlit, 0, flit.NumLinkPorts),
		waiters:   make([]waiter, 0, flit.NumPorts),
	}
	if d.detector == nil {
		d.detector = faults.NewDetector(faults.Fault{}, faults.DefaultDetectionDelay, false)
	}
	for p := range d.buffers {
		d.buffers[p] = buffer.NewFIFO(depth)
	}
	mesh := env.Mesh()
	d.table = routing.NewTable(algo, mesh, mesh.Nodes())
	d.portMask = mesh.PortMask(env.Node)
	d.adaptive = algo.Adaptive()
	return d
}

// waiter is a buffered or injection flit competing for the secondary
// crossbar.
type waiter struct {
	f    *flit.Flit
	port flit.Port // buffer index, or Local for the injection port
}

// Step implements sim.Router. It reports quiescent when the four input
// buffers are empty and the fault state machine has no transition left to
// take (no fault planned, or already detected): a sleeping router must not
// miss the cycle its fault manifests or is detected, because both are
// recorded, and reported to the run-health monitor, with the cycle they
// happen on. That is all the state a Step can move on its own — the crossbars
// are rebuilt from the detector at the top of every Step, and the fairness
// counter only moves while flits wait — so with nothing buffered, latched or
// queued another Step changes nothing.
func (d *DXbar) Step(cycle uint64) (quiescent bool) {
	d.primary.Reset()
	d.secondary.Reset()
	detected := d.applyFaults(cycle)
	if detected && (d.primary.Dead() || d.secondary.Dead()) {
		d.stepDegraded(cycle)
	} else {
		// Healthy (or not-yet-detected / crosspoint-degraded) operation.
		d.stepFast(cycle, detected)
	}
	return d.bufMask == 0 && (!d.detector.Active() || d.detectedSeen)
}

// applyFaults advances the fault state machine: manifest faults are applied
// to the fabric models, detection is latched for the flight recorder. It
// returns whether the router's fault has been detected.
func (d *DXbar) applyFaults(cycle uint64) bool {
	env := d.env
	if d.detector.Manifest(cycle) {
		f := d.detector.Fault()
		if !d.manifestSeen {
			d.manifestSeen = true
			env.Events().Record(cycle, events.FaultManifest, env.Node, flit.Invalid, 0, 0, int32(f.Crossbar))
			env.DiagFaultManifest(cycle)
		}
		target := d.primary
		if f.Crossbar == faults.Secondary {
			target = d.secondary
		}
		switch f.Granularity {
		case faults.WholeCrossbar:
			if !target.Dead() {
				target.Kill()
			}
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

// stepDegraded switches a router whose dead crossbar has been detected: the
// degraded whole-fabric modes, off the performance-critical healthy operation
// and so left branchy.
func (d *DXbar) stepDegraded(cycle uint64) {
	incoming := d.gatherIncoming()
	waiters := d.collectWaiters()
	waitersExist := len(waiters) > 0
	flip := d.fair.flip(waitersExist)

	var primaryWon, waiterWon bool
	if d.primary.Dead() {
		// Degraded mode A: the primary fabric is out; every incoming flit
		// is demuxed into its buffer and the router runs as a buffered
		// router through the secondary crossbar. Only flits already
		// buffered at the start of the cycle compete (a buffer cannot be
		// written and read in the same cycle).
		for _, in := range incoming {
			d.bufferFlit(in.f, in.port, cycle)
		}
		waiterWon = d.allocateWaiters(waiters, true, cycle)
	} else {
		// Degraded mode B: the secondary fabric is out; the 2×2 steering
		// crossbars give the buffers (and, on idle rows, the injection
		// port) access to the primary crossbar. One flit per input row.
		primaryWon, waiterWon = d.allocateDegradedPrimary(incoming, flip, cycle)
	}
	d.observeFairness(waitersExist, primaryWon, waiterWon, cycle)
}

// gatherIncoming takes this cycle's arrivals off the input latches into the
// router's scratch, oldest first unless port-order arbitration is on.
func (d *DXbar) gatherIncoming() []inFlit {
	env := d.env
	incoming := d.incoming[:0]
	for p := flit.North; p <= flit.West; p++ {
		if f := env.In[p]; f != nil {
			env.In[p] = nil
			incoming = append(incoming, inFlit{f: f, port: p})
		}
	}
	env.InMask = 0
	if !d.portOrder {
		sortInFlits(incoming)
	}
	return incoming
}

// observeFairness feeds the cycle's outcome to the fairness counter and
// records a priority flip.
func (d *DXbar) observeFairness(waitersExist, primaryWon, waiterWon bool, cycle uint64) {
	if d.fair.observe(waitersExist, primaryWon, waiterWon) {
		d.env.Stats().FairnessFlip(cycle)
		d.env.Events().Record(cycle, events.FairnessFlip, d.env.Node, flit.Invalid, 0, 0, int32(d.fair.Flips()))
	}
}

// stepFast is the bit-parallel healthy-operation path: arrivals and waiters
// are gathered into SoA PortStates and age-sorted by permuting one byte per
// slot, sendability is one bitmask computed per cycle, crossbar probes use
// the enum TryConnect, and every routing query is a table load. The lockstep
// tests hold it to the branchy healthy step it replaced.
func (d *DXbar) stepFast(cycle uint64, detected bool) {
	env := d.env

	ins := &d.ins
	ins.Reset()
	for b := env.InMask; b != 0; b &= b - 1 {
		p := flit.Port(bits.TrailingZeros8(b))
		ins.Add(env.In[p], p)
		env.In[p] = nil
	}
	env.InMask = 0
	ws := &d.ws
	ws.Reset()
	for b := d.bufMask; b != 0; b &= b - 1 {
		p := flit.Port(bits.TrailingZeros8(b))
		ws.Add(d.buffers[p].Head(), p)
	}
	if f := env.InjectionHead(); f != nil {
		ws.Add(f, flit.Local)
	}
	if !d.portOrder {
		if ins.N > 1 {
			ins.SortAge()
		}
		if ws.N > 1 {
			ws.SortAge()
		}
	}

	waitersExist := ws.N > 0
	flip := d.fair.flip(waitersExist)
	d.sendable = env.SendableMask()

	// The gathered waiters are used in both orders: a flit buffered this
	// cycle must not be read back out in the same cycle.
	var primaryWon, waiterWon bool
	if flip {
		waiterWon = d.allocateWaitersFast(ws, detected, cycle)
		primaryWon = d.allocateIncomingFast(ins, cycle)
	} else {
		primaryWon = d.allocateIncomingFast(ins, cycle)
		waiterWon = d.allocateWaitersFast(ws, detected, cycle)
	}
	d.observeFairness(waitersExist, primaryWon, waiterWon, cycle)
}

// allocateIncomingFast runs the primary-crossbar arbitration: each incoming
// flit, oldest first, attempts its look-ahead output port; winners traverse
// the primary crossbar and return their credit immediately, losers are
// demuxed into their input buffer. Sendability comes from the cycle's
// bitmask and the crosspoint probe from the enum TryConnect. Returns whether
// any incoming flit won.
func (d *DXbar) allocateIncomingFast(ins *PortState, cycle uint64) bool {
	env := d.env
	won := false
	for i := 0; i < ins.N; i++ {
		s := ins.Order[i]
		f, p := ins.Flits[s], ins.Src[s]
		out := d.requestPortFast(f, int(ins.Dst[s]))
		if out != flit.Invalid && d.sendable&(1<<uint(out)) != 0 &&
			d.primary.TryConnect(int(p), int(out)) == crossbar.OK {
			env.ReturnCredit(p)
			env.Events().Record(cycle, events.PrimaryWin, env.Node, p, f.PacketID, f.ID, int32(out))
			d.sendFast(out, f, cycle)
			won = true
			continue
		}
		d.bufferFlit(f, p, cycle)
	}
	return won
}

// requestPortFast returns the output an incoming flit asks for: Local when it
// has arrived, otherwise its look-ahead route — recomputed from the routing
// table if that field is unusable.
func (d *DXbar) requestPortFast(f *flit.Flit, dst int) flit.Port {
	if dst == d.env.Node {
		return flit.Local
	}
	if r := f.Route; r.IsCardinal() && d.portMask&(1<<uint(r)) != 0 {
		return r
	}
	return d.table.RequestAt(d.env.Node, dst)
}

// allocateWaitersFast is allocateWaiters over the SoA gather (same steering
// fallback through the primary fabric after fault detection).
func (d *DXbar) allocateWaitersFast(ws *PortState, detected bool, cycle uint64) bool {
	won := false
	for i := 0; i < ws.N; i++ {
		s := ws.Order[i]
		f, wp := ws.Flits[s], ws.Src[s]
		ports := d.waiterPortsFast(f, int(ws.Dst[s]))
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
			d.dispatchWaiterFast(f, wp, out, cycle)
			won = true
			break
		}
	}
	return won
}

// waiterPortsFast is waiterPorts backed by the routing table (same
// congestion-aware two-port reorder under adaptive routing).
func (d *DXbar) waiterPortsFast(f *flit.Flit, dst int) routing.PortList {
	if dst == d.env.Node {
		return routing.Ports(flit.Local)
	}
	ports := d.table.ProductiveAt(d.env.Node, dst)
	if d.adaptive && ports.Len() == 2 {
		a, b := d.env.DownstreamCredits(ports.At(0)), d.env.DownstreamCredits(ports.At(1))
		if a != nil && b != nil && b.Available() > a.Available() {
			return routing.Ports(ports.At(1), ports.At(0))
		}
	}
	return ports
}

// dispatchWaiterFast commits a winning waiter on the fast path.
func (d *DXbar) dispatchWaiterFast(f *flit.Flit, wp, out flit.Port, cycle uint64) {
	if wp == flit.Local {
		d.env.ConsumeInjection(cycle)
	} else {
		b := d.buffers[wp]
		b.Pop()
		if b.Len() == 0 {
			d.bufMask &^= 1 << uint(wp)
		}
		d.env.Meter().BufferRead()
		d.env.ReturnCredit(wp)
	}
	d.sendFast(out, f, cycle)
}

// sendFast is sendVia with the table look-ahead and the sendable-mask bit
// clear.
func (d *DXbar) sendFast(out flit.Port, f *flit.Flit, cycle uint64) {
	env := d.env
	env.Meter().CrossbarTraversal()
	env.Stats().RoutedEvent(cycle)
	if out != flit.Local {
		f.Route = d.table.RequestAt(env.Neighbor(out), int(f.Dst))
	}
	d.sendable &^= 1 << uint(out)
	env.Send(out, f)
}

// sortInFlits sorts arrivals oldest-first (insertion sort over at most four
// entries; Older is a total order, so the result matches any sort).
func sortInFlits(ins []inFlit) {
	for i := 1; i < len(ins); i++ {
		e := ins[i]
		j := i - 1
		for j >= 0 && e.f.Older(ins[j].f) {
			ins[j+1] = ins[j]
			j--
		}
		ins[j+1] = e
	}
}

// sortWaiters sorts waiters oldest-first (same argument as sortInFlits).
func sortWaiters(ws []waiter) {
	for i := 1; i < len(ws); i++ {
		e := ws[i]
		j := i - 1
		for j >= 0 && e.f.Older(ws[j].f) {
			ws[j+1] = ws[j]
			j--
		}
		ws[j+1] = e
	}
}

// collectWaiters lists the current buffer heads and the injection head into
// the router's reusable scratch.
func (d *DXbar) collectWaiters() []waiter {
	ws := d.waiters[:0]
	for p := flit.North; p <= flit.West; p++ {
		if h := d.buffers[p].Head(); h != nil {
			ws = append(ws, waiter{f: h, port: p})
		}
	}
	if f := d.env.InjectionHead(); f != nil {
		ws = append(ws, waiter{f: f, port: flit.Local})
	}
	if !d.portOrder {
		sortWaiters(ws)
	}
	return ws
}

// allocateWaiters runs the secondary-crossbar arbitration: buffer heads and
// the injection flit, oldest first, may take any free productive output —
// the dual-crossbar design lets them progress "without blocking an incoming
// packet from the primary crossbar as a separate path is available for
// both" (§I). Once a fault has been *detected*, the 2×2 steering crossbars
// between the buffers and the fabrics let a buffered flit whose secondary
// path is faulty traverse the primary crossbar instead, provided its input
// row is idle this cycle (§II.C). Returns whether any waiter won.
func (d *DXbar) allocateWaiters(ws []waiter, detected bool, cycle uint64) bool {
	won := false
	for _, w := range ws {
		ports := d.waiterPorts(w.f)
		for k := 0; k < ports.Len(); k++ {
			out := ports.At(k)
			if !d.env.CanSend(out) {
				continue
			}
			in := int(w.port)
			if w.port == flit.Local {
				in = secondaryInjIn
			}
			err := d.secondary.Connect(in, int(out))
			if err == nil {
				d.dispatchWaiter(w, out, cycle)
				won = true
				break
			}
			if errors.Is(err, crossbar.ErrFault) && detected && w.port != flit.Local {
				// 2×2 steering fallback through the primary fabric.
				if d.primary.Connect(int(w.port), int(out)) == nil {
					d.dispatchWaiter(w, out, cycle)
					won = true
					break
				}
			}
			// Busy column, undetected fault, or occupied fallback row:
			// try the next productive port.
		}
	}
	return won
}

// waiterPorts returns the output ports a waiting flit may use, in
// preference order: Local when arrived, otherwise the routing algorithm's
// productive set (adaptive re-direction under WF). Adaptive choices are
// congestion-aware: the port with more downstream credits comes first, so a
// re-directed flit heads for the less-loaded progressive direction.
func (d *DXbar) waiterPorts(f *flit.Flit) routing.PortList {
	if int(f.Dst) == d.env.Node {
		return routing.Ports(flit.Local)
	}
	ports := d.algo.Productive(d.env.Mesh(), d.env.Node, int(f.Dst))
	if ports.Len() == 2 && d.algo.Adaptive() {
		a, b := d.env.DownstreamCredits(ports.At(0)), d.env.DownstreamCredits(ports.At(1))
		if a != nil && b != nil && b.Available() > a.Available() {
			return routing.Ports(ports.At(1), ports.At(0))
		}
	}
	return ports
}

// dispatchWaiter commits a winning waiter: pops its buffer (or consumes the
// injection queue) and launches the flit.
func (d *DXbar) dispatchWaiter(w waiter, out flit.Port, cycle uint64) {
	if w.port == flit.Local {
		d.env.ConsumeInjection(cycle)
	} else {
		b := d.buffers[w.port]
		b.Pop()
		if b.Len() == 0 {
			d.bufMask &^= 1 << uint(w.port)
		}
		d.env.Meter().BufferRead()
		d.env.ReturnCredit(w.port)
	}
	d.sendVia(out, w.f, cycle)
}

// allocateDegradedPrimary is degraded mode B (secondary dead, detected):
// per input row, one candidate — the incoming flit, or the buffer head when
// no flit arrived (or when the fairness flip prefers waiters) — contends
// for the primary crossbar; incoming flits that are not the row candidate
// are buffered. The injection port may use an idle row.
func (d *DXbar) allocateDegradedPrimary(incoming []inFlit, flip bool, cycle uint64) (primaryWon, waiterWon bool) {
	type rowCand struct {
		f        *flit.Flit
		isWaiter bool
	}
	var rows [flit.NumLinkPorts]rowCand
	for _, in := range incoming {
		rows[in.port] = rowCand{f: in.f}
	}
	for p := flit.North; p <= flit.West; p++ {
		h := d.buffers[p].Head()
		if h == nil {
			continue
		}
		if rows[p].f == nil || flip {
			// The steering crossbar hands the row to the buffered flit;
			// a displaced incoming flit is demuxed into the buffer.
			if rows[p].f != nil {
				d.bufferFlit(rows[p].f, p, cycle)
			}
			rows[p] = rowCand{f: h, isWaiter: true}
		}
	}
	// Age-ordered allocation over the row candidates (insertion sort over a
	// fixed-size array; Older is a total order).
	var order [flit.NumLinkPorts]flit.Port
	n := 0
	for p := flit.North; p <= flit.West; p++ {
		if rows[p].f != nil {
			i := n
			for i > 0 && rows[p].f.Older(rows[order[i-1]].f) {
				order[i] = order[i-1]
				i--
			}
			order[i] = p
			n++
		}
	}
	usedRow := [flit.NumLinkPorts]bool{}
	for _, p := range order[:n] {
		cand := rows[p]
		ports := d.waiterPorts(cand.f)
		done := false
		for k := 0; k < ports.Len(); k++ {
			out := ports.At(k)
			if !d.env.CanSend(out) {
				continue
			}
			if err := d.primary.Connect(int(p), int(out)); err != nil {
				continue
			}
			usedRow[p] = true
			if cand.isWaiter {
				d.buffers[p].Pop()
				if d.buffers[p].Len() == 0 {
					d.bufMask &^= 1 << uint(p)
				}
				d.env.Meter().BufferRead()
				d.env.ReturnCredit(p)
				waiterWon = true
			} else {
				d.env.ReturnCredit(p)
				d.env.Events().Record(cycle, events.PrimaryWin, d.env.Node, p, cand.f.PacketID, cand.f.ID, int32(out))
				primaryWon = true
			}
			d.sendVia(out, cand.f, cycle)
			done = true
			break
		}
		if !done && !cand.isWaiter {
			// A losing incoming flit falls into its buffer as usual.
			d.bufferFlit(cand.f, p, cycle)
		}
	}
	// Injection through an idle row.
	if f := d.env.InjectionHead(); f != nil {
		for p := flit.North; p <= flit.West; p++ {
			if rows[p].f != nil || usedRow[p] {
				continue
			}
			injected := false
			ports := d.waiterPorts(f)
			for k := 0; k < ports.Len(); k++ {
				out := ports.At(k)
				if !d.env.CanSend(out) {
					continue
				}
				if err := d.primary.Connect(int(p), int(out)); err != nil {
					continue
				}
				d.env.ConsumeInjection(cycle)
				d.sendVia(out, f, cycle)
				waiterWon = true
				injected = true
				break
			}
			if injected {
				break
			}
		}
	}
	return primaryWon, waiterWon
}

// bufferFlit demuxes a losing incoming flit into its input buffer.
func (d *DXbar) bufferFlit(f *flit.Flit, p flit.Port, cycle uint64) {
	d.buffers[p].Push(f) // flow control guarantees space; Push panics otherwise
	d.bufMask |= 1 << uint(p)
	f.Buffered++
	d.env.Meter().BufferWrite()
	d.env.Stats().BufferingEvent(cycle)
	d.env.Events().Record(cycle, events.Buffered, d.env.Node, p, f.PacketID, f.ID, int32(d.buffers[p].Len()))
}

// sendVia launches f through output port out, charging the crossbar
// traversal and computing the look-ahead route for the downstream router.
func (d *DXbar) sendVia(out flit.Port, f *flit.Flit, cycle uint64) {
	env := d.env
	env.Meter().CrossbarTraversal()
	env.Stats().RoutedEvent(cycle)
	if out != flit.Local {
		next := env.Mesh().Neighbor(env.Node, out)
		f.Route = routing.Request(d.algo, env.Mesh(), next, int(f.Dst))
	}
	env.Send(out, f)
}

// Occupancy returns the number of flits in the secondary-crossbar buffers.
func (d *DXbar) Occupancy() int {
	total := 0
	for _, b := range d.buffers {
		total += b.Len()
	}
	return total
}

// FairnessFlips returns how many times the fairness counter flipped
// priority (diagnostics/ablations).
func (d *DXbar) FairnessFlips() uint64 { return d.fair.Flips() }

// Detector exposes the router's fault detector (tests).
func (d *DXbar) Detector() *faults.Detector { return d.detector }
