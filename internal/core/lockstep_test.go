package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"dxbar/internal/crossbar"
	"dxbar/internal/energy"
	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// branchyDXbar steps a DXbar the way its healthy operation was first written
// — arrivals and waiters in slices sorted by flit.Older, routing through the
// routing.Algorithm, sendability and crossbar probes one call per attempt —
// the oracle the bit-parallel stepFast is held to. A detected dead crossbar
// takes stepDegraded, as in DXbar.Step.
type branchyDXbar struct{ *DXbar }

func (b branchyDXbar) Step(cycle uint64) (quiescent bool) {
	d := b.DXbar
	d.primary.Reset()
	d.secondary.Reset()
	detected := d.applyFaults(cycle)
	if detected && (d.primary.Dead() || d.secondary.Dead()) {
		d.stepDegraded(cycle)
	} else {
		b.stepHealthy(cycle, detected)
	}
	return d.bufMask == 0 && (!d.detector.Active() || d.detectedSeen)
}

func (b branchyDXbar) stepHealthy(cycle uint64, detected bool) {
	d := b.DXbar
	incoming := d.gatherIncoming()
	waiters := d.collectWaiters()
	waitersExist := len(waiters) > 0
	flip := d.fair.flip(waitersExist)
	var primaryWon, waiterWon bool
	if flip {
		waiterWon = d.allocateWaiters(waiters, detected, cycle)
		primaryWon = b.allocateIncoming(incoming, cycle)
	} else {
		primaryWon = b.allocateIncoming(incoming, cycle)
		waiterWon = d.allocateWaiters(waiters, detected, cycle)
	}
	d.observeFairness(waitersExist, primaryWon, waiterWon, cycle)
}

// allocateIncoming is the primary-crossbar arbitration: each incoming flit,
// oldest first, attempts its look-ahead output port; winners traverse the
// primary crossbar and return their credit immediately, losers are demuxed
// into their input buffer.
func (b branchyDXbar) allocateIncoming(incoming []inFlit, cycle uint64) bool {
	d := b.DXbar
	won := false
	for _, in := range incoming {
		f, p := in.f, in.port
		out := b.requestPort(f)
		if out != flit.Invalid && d.env.CanSend(out) {
			if err := d.primary.Connect(int(p), int(out)); err == nil {
				d.env.ReturnCredit(p)
				d.env.Events().Record(cycle, events.PrimaryWin, d.env.Node, p, f.PacketID, f.ID, int32(out))
				d.sendVia(out, f, cycle)
				won = true
				continue
			} else if !errors.Is(err, crossbar.ErrFault) && !errors.Is(err, crossbar.ErrBusy) {
				panic(err)
			}
		}
		d.bufferFlit(f, p, cycle)
	}
	return won
}

// requestPort is the output an incoming flit asks for: Local when it has
// arrived, else its look-ahead route, recomputed through the Algorithm if
// that field is unusable.
func (b branchyDXbar) requestPort(f *flit.Flit) flit.Port {
	d := b.DXbar
	if int(f.Dst) == d.env.Node {
		return flit.Local
	}
	if f.Route.IsCardinal() && d.env.HasLink(f.Route) {
		return f.Route
	}
	return routing.Request(d.algo, d.env.Mesh(), d.env.Node, int(f.Dst))
}

// lockstepNet is an 8×8 DXbar network under Bernoulli traffic with a flight
// recorder attached, its routers fast or their branchy twins.
type lockstepNet struct {
	eng   *sim.Engine
	coll  *stats.Collector
	meter *energy.Meter
}

type lockstepCase struct {
	name      string
	algo      routing.Algorithm
	load      float64
	depth     int
	portOrder bool
	plan      *faults.Plan
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
	n := lockstepNet{coll: stats.NewCollector(mesh.Nodes(), 100, lockstepCycles), meter: energy.NewMeter()}
	n.eng, err = sim.New(sim.Config{
		Mesh: mesh, Meter: n.meter, Stats: n.coll, Source: &sim.SourceAdapter{B: bern},
		BufferDepth: c.depth, Events: events.NewRecorder(mesh.Nodes(), 256),
	}, func(env *sim.Env) sim.Router {
		f, ok := c.plan.ForRouter(env.Node)
		d := NewDXbarDepth(env, c.algo, FairnessThreshold, c.depth, faults.NewDetector(f, c.plan.DetectionDelay, ok))
		d.SetPortOrderArbitration(c.portOrder)
		if branchy {
			return branchyDXbar{d}
		}
		return d
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDXbarFastMatchesBranchy runs the fast routers and their branchy twins
// side by side: Engine.Snapshot (every latch, buffer, credit, fairness
// counter, the collector, the meter and the event ring) must be byte-equal
// every 50 cycles, and the final results equal. Crosspoint-degraded routers
// run the fast path, so the fault rows compare it across steering fallbacks:
// faults manifest at cycle 40 and are detected after the paper's 5 cycles, or
// after 400 on the row that keeps every router undetected-faulty for most of
// the run.
func TestDXbarFastMatchesBranchy(t *testing.T) {
	crosspoints := func(frac float64, detectionDelay uint64) *faults.Plan {
		p, err := faults.NewCrosspointPlan(64, frac, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		p.DetectionDelay = detectionDelay
		return p
	}
	cases := []lockstepCase{
		{name: "dor", algo: routing.DOR{}, load: 0.3},
		{name: "dor/saturated", algo: routing.DOR{}, load: 0.6},
		{name: "wf", algo: routing.WestFirst{}, load: 0.3},
		{name: "wf/saturated", algo: routing.WestFirst{}, load: 0.6},
		{name: "port-order", algo: routing.DOR{}, load: 0.35, portOrder: true},
		{name: "depth8", algo: routing.DOR{}, load: 0.45, depth: 8},
		{name: "crosspoint/0.50", algo: routing.WestFirst{}, load: 0.35, plan: crosspoints(0.5, faults.DefaultDetectionDelay)},
		{name: "crosspoint/1.00", algo: routing.DOR{}, load: 0.35, plan: crosspoints(1, faults.DefaultDetectionDelay)},
		{name: "crosspoint/1.00/late-detection", algo: routing.WestFirst{}, load: 0.35, plan: crosspoints(1, 400)},
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
			if !reflect.DeepEqual(fr, rr) || fast.meter.Snapshot() != ref.meter.Snapshot() {
				t.Errorf("final results differ: fast %d packets at latency %v, branchy %d at %v",
					fr.Packets, fr.AvgLatency, rr.Packets, rr.AvgLatency)
			}
		})
	}
}
