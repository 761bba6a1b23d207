package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"dxbar/internal/crossbar"
	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// branchyDXbar steps a DXbar the way it was first written — arrivals and
// waiters in slices sorted by flit.Older, routing through the
// routing.Algorithm, sendability and crossbar probes one call per attempt,
// and the detected whole-fabric modes as steps of their own — the oracle
// DXbar.Step is held to. It shares the router's state and the input-stage
// helpers that only buffer and account (bufferFlit, observeFairness).
type branchyDXbar struct {
	*DXbar
	algo routing.Algorithm
	// Per-Step scratch.
	incoming, waiters []candidate
}

// candidate is an arriving flit with the input port it was latched on, or a
// waiting flit with its buffer index (Local for the injection port).
type candidate struct {
	f    *flit.Flit
	port flit.Port
}

func (b *branchyDXbar) Step(cycle uint64) (quiescent bool) {
	d := b.DXbar
	d.primary.Reset()
	d.secondary.Reset()
	detected := d.applyFaults(cycle)
	incoming := b.gatherIncoming()
	waiters := b.collectWaiters()
	waitersExist := len(waiters) > 0
	flip := d.fair.flip(waitersExist)
	var primaryWon, waiterWon bool
	switch {
	case detected && d.primary.Dead():
		// Degraded mode A: the primary fabric is out; every incoming flit
		// is demuxed into its buffer and the router runs as a buffered
		// router through the secondary crossbar. Only flits already
		// buffered at the start of the cycle compete (a buffer cannot be
		// written and read in the same cycle).
		for _, in := range incoming {
			d.bufferFlit(in.f, in.port, cycle)
		}
		waiterWon = b.allocateWaiters(waiters, true, cycle)
	case detected && d.secondary.Dead():
		// Degraded mode B: the secondary fabric is out; the 2×2 steering
		// crossbars give the buffers (and, on idle rows, the injection
		// port) access to the primary crossbar. One flit per input row.
		primaryWon, waiterWon = b.allocateDegradedPrimary(incoming, flip, cycle)
	case flip:
		waiterWon = b.allocateWaiters(waiters, detected, cycle)
		primaryWon = b.allocateIncoming(incoming, cycle)
	default:
		primaryWon = b.allocateIncoming(incoming, cycle)
		waiterWon = b.allocateWaiters(waiters, detected, cycle)
	}
	d.observeFairness(waitersExist, primaryWon, waiterWon, cycle)
	return d.bufMask == 0 && (!d.detector.Active() || d.detectedSeen)
}

// gatherIncoming takes this cycle's arrivals off the input latches, oldest
// first unless port-order arbitration is on.
func (b *branchyDXbar) gatherIncoming() []candidate {
	env := b.env
	incoming := b.incoming[:0]
	for p := flit.North; p <= flit.West; p++ {
		if f := env.In[p]; f != nil {
			env.In[p] = nil
			incoming = append(incoming, candidate{f: f, port: p})
		}
	}
	env.InMask = 0
	b.incoming = incoming
	if !b.portOrder {
		sortCandidates(incoming)
	}
	return incoming
}

// collectWaiters lists the current buffer heads and the injection head,
// oldest first unless port-order arbitration is on.
func (b *branchyDXbar) collectWaiters() []candidate {
	ws := b.waiters[:0]
	for p := flit.North; p <= flit.West; p++ {
		if b.buffers[p].Len() > 0 {
			ws = append(ws, candidate{f: b.buffers[p].At(0).F, port: p})
		}
	}
	if f := b.env.InjectionHead(); f != nil {
		ws = append(ws, candidate{f: f, port: flit.Local})
	}
	b.waiters = ws
	if !b.portOrder {
		sortCandidates(ws)
	}
	return ws
}

// sortCandidates sorts oldest-first (insertion sort over at most five
// entries; Older is a total order, so the result matches any sort).
func sortCandidates(cs []candidate) {
	for i := 1; i < len(cs); i++ {
		e := cs[i]
		j := i - 1
		for j >= 0 && e.f.Older(cs[j].f) {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = e
	}
}

// allocateIncoming is the primary-crossbar arbitration: each incoming flit,
// oldest first, attempts its look-ahead output port; winners traverse the
// primary crossbar and return their credit immediately, losers are demuxed
// into their input buffer.
func (b *branchyDXbar) allocateIncoming(incoming []candidate, cycle uint64) bool {
	d := b.DXbar
	won := false
	for _, in := range incoming {
		f, p := in.f, in.port
		out := b.requestPort(f)
		if out != flit.Invalid && d.env.CanSend(out) && d.primary.TryConnect(int(p), int(out)) == crossbar.OK {
			d.env.ReturnCredit(p)
			d.env.Events().Record(cycle, events.PrimaryWin, d.env.Node, p, f.PacketID, f.ID, int32(out))
			b.sendVia(out, f, cycle)
			won = true
			continue
		}
		d.bufferFlit(f, p, cycle)
	}
	return won
}

// requestPort is the output an incoming flit asks for: Local when it has
// arrived, else its look-ahead route, recomputed through the Algorithm if
// that field is unusable.
func (b *branchyDXbar) requestPort(f *flit.Flit) flit.Port {
	d := b.DXbar
	if int(f.Dst) == d.env.Node {
		return flit.Local
	}
	if f.Route.IsCardinal() && d.env.HasLink(f.Route) {
		return f.Route
	}
	return routing.Request(b.algo, d.env.Mesh(), d.env.Node, int(f.Dst))
}

// allocateWaiters is the secondary-crossbar arbitration, with the 2×2
// steering fallback through the primary fabric once a fault is detected.
func (b *branchyDXbar) allocateWaiters(ws []candidate, detected bool, cycle uint64) bool {
	d := b.DXbar
	won := false
	for _, w := range ws {
		ports := b.waiterPorts(w.f)
		for k := 0; k < ports.Len(); k++ {
			out := ports.At(k)
			if !d.env.CanSend(out) {
				continue
			}
			in := int(w.port)
			if w.port == flit.Local {
				in = secondaryInjIn
			}
			st := d.secondary.TryConnect(in, int(out))
			if st == crossbar.OK {
				b.dispatchWaiter(w, out, cycle)
				won = true
				break
			}
			if st == crossbar.Fault && detected && w.port != flit.Local {
				// 2×2 steering fallback through the primary fabric.
				if d.primary.TryConnect(int(w.port), int(out)) == crossbar.OK {
					b.dispatchWaiter(w, out, cycle)
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

// waiterPorts is the output ports a waiting flit may use, in preference
// order: Local when arrived, otherwise the Algorithm's productive set, the
// port with more downstream credits first under adaptive routing.
func (b *branchyDXbar) waiterPorts(f *flit.Flit) routing.PortList {
	d := b.DXbar
	if int(f.Dst) == d.env.Node {
		return routing.Ports(flit.Local)
	}
	ports := b.algo.Productive(d.env.Mesh(), d.env.Node, int(f.Dst))
	if ports.Len() == 2 && b.algo.Adaptive() {
		x, y := d.env.DownstreamCredits(ports.At(0)), d.env.DownstreamCredits(ports.At(1))
		if x != nil && y != nil && y.Available() > x.Available() {
			return routing.Ports(ports.At(1), ports.At(0))
		}
	}
	return ports
}

// dispatchWaiter commits a winning waiter: pops its buffer (or consumes the
// injection queue) and launches the flit.
func (b *branchyDXbar) dispatchWaiter(w candidate, out flit.Port, cycle uint64) {
	d := b.DXbar
	if w.port == flit.Local {
		d.env.ConsumeInjection(cycle)
	} else {
		b.popBuffer(w.port, cycle)
	}
	b.sendVia(out, w.f, cycle)
}

// popBuffer reads the head out of buffer p and returns its credit.
func (b *branchyDXbar) popBuffer(p flit.Port, cycle uint64) {
	d := b.DXbar
	d.buffers[p].Pop()
	if d.buffers[p].Len() == 0 {
		d.bufMask &^= 1 << uint(p)
	}
	d.env.Stats().BufferRead(cycle)
	d.env.ReturnCredit(p)
}

// allocateDegradedPrimary is degraded mode B (secondary dead, detected):
// per input row, one candidate — the incoming flit, or the buffer head when
// no flit arrived (or when the fairness flip prefers waiters) — contends
// for the primary crossbar; incoming flits that are not the row candidate
// are buffered. The injection port may use an idle row.
func (b *branchyDXbar) allocateDegradedPrimary(incoming []candidate, flip bool, cycle uint64) (primaryWon, waiterWon bool) {
	d := b.DXbar
	type rowCand struct {
		f        *flit.Flit
		isWaiter bool
	}
	var rows [flit.NumLinkPorts]rowCand
	for _, in := range incoming {
		rows[in.port] = rowCand{f: in.f}
	}
	for p := flit.North; p <= flit.West; p++ {
		if d.buffers[p].Len() == 0 {
			continue
		}
		h := d.buffers[p].At(0)
		if rows[p].f == nil || flip {
			// The steering crossbar hands the row to the buffered flit;
			// a displaced incoming flit is demuxed into the buffer.
			if rows[p].f != nil {
				d.bufferFlit(rows[p].f, p, cycle)
			}
			rows[p] = rowCand{f: h.F, isWaiter: true}
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
		ports := b.waiterPorts(cand.f)
		done := false
		for k := 0; k < ports.Len(); k++ {
			out := ports.At(k)
			if !d.env.CanSend(out) || d.primary.TryConnect(int(p), int(out)) != crossbar.OK {
				continue
			}
			usedRow[p] = true
			if cand.isWaiter {
				b.popBuffer(p, cycle)
				waiterWon = true
			} else {
				d.env.ReturnCredit(p)
				d.env.Events().Record(cycle, events.PrimaryWin, d.env.Node, p, cand.f.PacketID, cand.f.ID, int32(out))
				primaryWon = true
			}
			b.sendVia(out, cand.f, cycle)
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
			ports := b.waiterPorts(f)
			for k := 0; k < ports.Len(); k++ {
				out := ports.At(k)
				if !d.env.CanSend(out) || d.primary.TryConnect(int(p), int(out)) != crossbar.OK {
					continue
				}
				d.env.ConsumeInjection(cycle)
				b.sendVia(out, f, cycle)
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

// sendVia launches f through output port out, charging the crossbar
// traversal and computing the look-ahead route through the Algorithm.
func (b *branchyDXbar) sendVia(out flit.Port, f *flit.Flit, cycle uint64) {
	env := b.env
	env.Stats().RoutedEvent(cycle)
	if out != flit.Local {
		next := env.Mesh().Neighbor(env.Node, out)
		f.Route = routing.Request(b.algo, env.Mesh(), next, int(f.Dst))
	}
	env.Send(out, f)
}

// lockstepNet is an 8×8 DXbar network under Bernoulli traffic with a flight
// recorder attached, its routers fast or their branchy twins.
type lockstepNet struct {
	eng  *sim.Engine
	coll *stats.Collector
}

type lockstepCase struct {
	name      string
	algo      routing.Algorithm
	load      float64
	depth     int
	portOrder bool
	plan      *faults.Plan
	// flipped holds every router's fairness counter at its threshold before
	// each Step, so every cycle with waiters is a flipped one.
	flipped bool
}

// heldFlip is a router whose fairness counter is set to its threshold before
// every Step (lockstepCase.flipped).
type heldFlip struct {
	lockstepRouter
	fair *fairness
}

type lockstepRouter interface {
	sim.Router
	sim.RouterState
}

func (h heldFlip) Step(cycle uint64) bool {
	h.fair.count = h.fair.threshold
	return h.lockstepRouter.Step(cycle)
}

const (
	lockstepCycles = 1000
	lockstepEvery  = 50
)

func newLockstepNet(t *testing.T, c lockstepCase, branchy bool) lockstepNet {
	t.Helper()
	mesh := topology.MustMesh(8, 8)
	pat, err := traffic.New("UR", mesh)
	if err != nil {
		t.Fatal(err)
	}
	bern, err := traffic.NewBernoulli(mesh, pat, c.load, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := lockstepNet{coll: stats.NewCollector(mesh.Nodes(), 100, lockstepCycles)}
	n.eng, err = sim.New(sim.Config{
		Mesh: mesh, Stats: n.coll, Source: &sim.SourceAdapter{B: bern},
		BufferDepth: c.depth, Events: events.NewRecorder(mesh.Nodes(), 256),
	}, func(env *sim.Env) sim.Router {
		f, ok := c.plan.ForRouter(env.Node)
		d := NewDXbarDepth(env, c.algo, FairnessThreshold, c.depth, faults.NewDetector(f, c.plan.DetectionDelay, ok))
		d.SetPortOrderArbitration(c.portOrder)
		var r lockstepRouter = d
		if branchy {
			r = &branchyDXbar{DXbar: d, algo: c.algo}
		}
		if c.flipped {
			r = heldFlip{r, &d.fair}
		}
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDXbarFastMatchesBranchy runs the fast routers and their branchy twins
// side by side: Engine.Snapshot (every latch, buffer, credit, fairness
// counter, the collector and the event ring) must be byte-equal
// every 50 cycles, and the final results equal. In the fault rows faults
// manifest at cycle 40 and are detected after the paper's 5 cycles, or after
// 400 on the row that keeps every router undetected-faulty for most of the
// run. The crosspoint rows compare the steering fallbacks; the crossbar rows
// (a mix of dead primaries and dead secondaries) compare the two degraded
// modes, the flipped row with every waiting cycle under a fairness flip.
func TestDXbarFastMatchesBranchy(t *testing.T) {
	crosspoints := func(frac float64, detectionDelay uint64) *faults.Plan {
		p, err := faults.NewCrosspointPlan(64, frac, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		p.DetectionDelay = detectionDelay
		return p
	}
	crossbars := func(frac float64) *faults.Plan {
		p, err := faults.NewPlan(64, frac, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []lockstepCase{
		{name: "dor", algo: routing.DOR{}, load: 0.3},
		{name: "dor/saturated", algo: routing.DOR{}, load: 0.6},
		{name: "wf", algo: routing.WestFirst{}, load: 0.3},
		{name: "wf/saturated", algo: routing.WestFirst{}, load: 0.6},
		{name: "port-order", algo: routing.DOR{}, load: 0.35, portOrder: true},
		{name: "depth8", algo: routing.DOR{}, load: 0.45, depth: 8},
		{name: "wf/depth3", algo: routing.WestFirst{}, load: 0.6, depth: 3},
		{name: "crosspoint/0.50", algo: routing.WestFirst{}, load: 0.35, plan: crosspoints(0.5, faults.DefaultDetectionDelay)},
		{name: "crosspoint/1.00", algo: routing.DOR{}, load: 0.35, plan: crosspoints(1, faults.DefaultDetectionDelay)},
		{name: "crosspoint/1.00/late-detection", algo: routing.WestFirst{}, load: 0.35, plan: crosspoints(1, 400)},
		{name: "crossbar/0.50", algo: routing.WestFirst{}, load: 0.35, plan: crossbars(0.5)},
		{name: "crossbar/1.00", algo: routing.DOR{}, load: 0.35, plan: crossbars(1)},
		{name: "crossbar/1.00/port-order", algo: routing.DOR{}, load: 0.35, portOrder: true, plan: crossbars(1)},
		{name: "crossbar/1.00/saturated", algo: routing.WestFirst{}, load: 0.6, plan: crossbars(1)},
		{name: "crossbar/1.00/flipped", algo: routing.WestFirst{}, load: 0.35, flipped: true, plan: crossbars(1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.depth == 0 {
				c.depth = BufferDepth
			}
			if c.plan == nil {
				c.plan = faults.Empty()
			}
			fast, ref := newLockstepNet(t, c, false), newLockstepNet(t, c, true)
			var fs, rs bytes.Buffer
			for cycle := lockstepEvery; cycle <= lockstepCycles; cycle += lockstepEvery {
				fast.eng.Run(lockstepEvery)
				ref.eng.Run(lockstepEvery)
				fs.Reset()
				rs.Reset()
				if err := errors.Join(fast.eng.Snapshot(&fs), ref.eng.Snapshot(&rs)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fs.Bytes(), rs.Bytes()) {
					t.Fatalf("fast and branchy engines diverged by cycle %d", cycle)
				}
			}
			fr, rr := fast.coll.Results(), ref.coll.Results()
			if fr.Packets == 0 {
				t.Fatal("the window measured no packets")
			}
			if !reflect.DeepEqual(fr, rr) || fast.coll.EnergyCounts() != ref.coll.EnergyCounts() {
				t.Errorf("final results differ: fast %d packets at latency %v, branchy %d at %v",
					fr.Packets, fr.AvgLatency, rr.Packets, rr.AvgLatency)
			}
		})
	}
}
