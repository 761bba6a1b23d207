package sim

import (
	"testing"

	"dxbar/internal/flit"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// passthrough is a trivial router that forwards every arrival East (or
// ejects at its destination) and injects whenever the East output is free.
// It exists to exercise the engine contract in isolation.
type passthrough struct{ env *Env }

func (r *passthrough) Step(cycle uint64) bool {
	env := r.env
	for p := flit.North; p <= flit.West; p++ {
		f := env.In[p]
		if f == nil {
			continue
		}
		env.In[p] = nil
		if int(f.Dst) == env.Node {
			env.Send(flit.Local, f)
			continue
		}
		if !env.CanSend(flit.East) {
			panic("passthrough test router has no East capacity")
		}
		env.ReturnCredit(p)
		env.Send(flit.East, f)
	}
	if f := env.InjectionHead(); f != nil && env.CanSend(flit.East) {
		env.ConsumeInjection(cycle)
		env.Send(flit.East, f)
	}
	return false
}

func testEngine(t *testing.T, src Source, depth int) (*Engine, *stats.Collector) {
	t.Helper()
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 0, 10000)
	eng, err := New(Config{Mesh: mesh, Stats: coll, Source: src, BufferDepth: depth},
		func(env *Env) Router { return &passthrough{env: env} })
	if err != nil {
		t.Fatal(err)
	}
	return eng, coll
}

// oneShot injects a single 1-flit packet at a fixed node/cycle.
type oneShot struct {
	node     int
	dst      int
	at       uint64
	injected bool
}

func (s *oneShot) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	if s.injected || node != s.node || cycle != s.at {
		return nil
	}
	s.injected = true
	return []*traffic.PacketSpec{{ID: 1, Src: s.node, Dst: s.dst, NumFlits: 1, Cycle: cycle}}
}

func TestHopTakesTwoCycles(t *testing.T) {
	// Node 0 -> node 1 is one hop East. Injection at cycle 0: ST at cycle
	// 0, LT at cycle 1, arrival+eject ST at cycle 2.
	src := &oneShot{node: 0, dst: 1, at: 0}
	eng, coll := testEngine(t, src, 0)
	eng.Run(5)
	r := coll.Results()
	if r.Packets != 1 {
		t.Fatalf("packets = %d, want 1", r.Packets)
	}
	if r.AvgLatency != 2 {
		t.Errorf("one-hop latency = %v cycles, want 2 (ST+LT per hop)", r.AvgLatency)
	}
}

func TestMultiHopLatencyScales(t *testing.T) {
	// Node 0 -> node 3 is three hops East: latency 3*2 = 6.
	src := &oneShot{node: 0, dst: 3, at: 0}
	eng, coll := testEngine(t, src, 0)
	eng.Run(10)
	r := coll.Results()
	if r.Packets != 1 || r.AvgLatency != 6 {
		t.Errorf("three-hop latency = %v (packets %d), want 6", r.AvgLatency, r.Packets)
	}
	if r.AvgHops != 3 {
		t.Errorf("hops = %v, want 3", r.AvgHops)
	}
}

func TestLinkEnergyCharged(t *testing.T) {
	src := &oneShot{node: 0, dst: 2, at: 0}
	eng, coll := testEngine(t, src, 0)
	eng.Run(10)
	c := coll.EnergyCounts()
	if c.LinkTraversals != 2 {
		t.Errorf("link traversals = %d, want 2", c.LinkTraversals)
	}
}

func TestEjectionAtWrongNodePanics(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 0, 100)
	// A router that ejects everything locally, even misrouted flits.
	eng, err := New(Config{Mesh: mesh, Stats: coll,
		Source: &oneShot{node: 0, dst: 5, at: 0}},
		func(env *Env) Router {
			return routerFunc(func(cycle uint64) {
				if f := env.InjectionHead(); f != nil {
					env.ConsumeInjection(cycle)
					env.Send(flit.Local, f) // wrong: dst is elsewhere
				}
				for p := flit.North; p <= flit.West; p++ {
					env.In[p] = nil
				}
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("ejecting at the wrong node must panic")
		}
	}()
	eng.Run(3)
}

// routerFunc adapts a closure to Router.
type routerFunc func(cycle uint64)

func (f routerFunc) Step(cycle uint64) bool { f(cycle); return false }

func TestUnconsumedInputPanics(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 0, 100)
	eng, err := New(Config{Mesh: mesh, Stats: coll,
		Source: &oneShot{node: 0, dst: 3, at: 0}},
		func(env *Env) Router {
			return routerFunc(func(cycle uint64) {
				// Forward injections but never consume arrivals.
				if f := env.InjectionHead(); f != nil && env.CanSend(flit.East) {
					env.ConsumeInjection(cycle)
					env.Send(flit.East, f)
				}
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("leaving an input latch unconsumed must panic")
		}
	}()
	eng.Run(5)
}

func TestScheduleRetransmitReinjects(t *testing.T) {
	src := &oneShot{node: 0, dst: 1, at: 0}
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 0, 1000)
	dropped := false
	if _, err := New(Config{Mesh: mesh, Stats: coll, Source: src}, nil); err == nil {
		t.Fatal("nil factory must be rejected")
	}
	// Build a network whose node 0 drops the first flit and retransmits.
	eng2, err := New(Config{Mesh: mesh, Stats: coll, Source: src},
		func(env *Env) Router {
			return routerFunc(func(cycle uint64) {
				for p := flit.North; p <= flit.West; p++ {
					f := env.In[p]
					if f == nil {
						continue
					}
					env.In[p] = nil
					if int(f.Dst) == env.Node {
						env.Send(flit.Local, f)
					} else if env.CanSend(flit.East) {
						env.Send(flit.East, f)
					}
				}
				if f := env.InjectionHead(); f != nil {
					if !dropped {
						dropped = true
						env.ConsumeInjection(cycle)
						env.ScheduleRetransmit(f, 3)
						return
					}
					if env.CanSend(flit.East) {
						env.ConsumeInjection(cycle)
						env.Send(flit.East, f)
					}
				}
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	eng2.Run(20)
	r := coll.Results()
	if r.Packets != 1 {
		t.Fatalf("retransmitted packet not delivered (packets=%d)", r.Packets)
	}
	if r.RetransmitsPerPacket != 1 {
		t.Errorf("retransmits = %v, want 1", r.RetransmitsPerPacket)
	}
}

func TestQueuedFlits(t *testing.T) {
	// A source that floods node 0 with traffic its router can't all send.
	flood := sourceFunc(func(node int, cycle uint64) []*traffic.PacketSpec {
		if node != 0 || cycle > 10 {
			return nil
		}
		return []*traffic.PacketSpec{
			{ID: cycle*2 + 1, Src: 0, Dst: 3, NumFlits: 1, Cycle: cycle},
			{ID: cycle*2 + 2, Src: 0, Dst: 3, NumFlits: 1, Cycle: cycle},
		}
	})
	eng, _ := testEngine(t, flood, 0)
	eng.Run(5)
	if eng.QueuedFlits() == 0 {
		t.Error("expected backlog in injection queue")
	}
	eng.Run(100)
	if eng.QueuedFlits() != 0 {
		t.Error("backlog must drain")
	}
}

type sourceFunc func(node int, cycle uint64) []*traffic.PacketSpec

func (f sourceFunc) Generate(node int, cycle uint64) []*traffic.PacketSpec { return f(node, cycle) }

func TestRunUntil(t *testing.T) {
	src := &oneShot{node: 0, dst: 1, at: 0}
	eng, coll := testEngine(t, src, 0)
	ok := eng.RunUntil(func() bool { return coll.Results().Packets == 1 }, 100)
	if !ok {
		t.Error("RunUntil must observe the delivery")
	}
	if eng.Cycle() == 0 || eng.Cycle() > 10 {
		t.Errorf("unexpected cycle count %d", eng.Cycle())
	}
	if eng.RunUntil(func() bool { return false }, 5) {
		t.Error("RunUntil with false predicate must time out")
	}
}

func TestSinkCallback(t *testing.T) {
	src := &oneShot{node: 0, dst: 1, at: 0}
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 0, 1000)
	var got []flit.Packet
	snk := sinkFunc(func(p flit.Packet, cycle uint64) { got = append(got, p) })
	eng, err := New(Config{Mesh: mesh, Stats: coll, Source: src, Sink: snk},
		func(env *Env) Router { return &passthrough{env: env} })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(10)
	if len(got) != 1 || got[0].Dst != 1 {
		t.Errorf("sink saw %v", got)
	}
}

type sinkFunc func(p flit.Packet, cycle uint64)

func (f sinkFunc) Deliver(p flit.Packet, cycle uint64) { f(p, cycle) }

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}, func(env *Env) Router { return nil }); err == nil {
		t.Error("missing mesh/stats must error")
	}
}

func TestCreditsWiredBothDirections(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 0, 1000)
	eng, err := New(Config{Mesh: mesh, Stats: coll, BufferDepth: 4},
		func(env *Env) Router {
			return routerFunc(func(cycle uint64) {
				for p := flit.North; p <= flit.West; p++ {
					env.In[p] = nil
				}
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	// Every cardinal port with a link must have a credit counter, and
	// consuming at one end must be returnable from the other.
	for n := 0; n < mesh.Nodes(); n++ {
		env := eng.Env(n)
		for p := flit.North; p <= flit.West; p++ {
			hasLink := mesh.HasPort(n, p)
			c := env.DownstreamCredits(p)
			if hasLink && c == nil {
				t.Fatalf("node %d port %s missing credits", n, p)
			}
			if !hasLink && c != nil {
				t.Fatalf("node %d port %s has credits without a link", n, p)
			}
		}
	}
	// Spot-check the return path: node 5 consumes a credit toward node 6
	// (East); node 6 returning a credit on its West input replenishes it.
	c := eng.Env(5).DownstreamCredits(flit.East)
	c.Consume()
	if c.Available() != 3 {
		t.Fatal("consume failed")
	}
	eng.Env(6).ReturnCredit(flit.West)
	eng.Run(1) // ticks the pipelines
	if c.Available() != 4 {
		t.Errorf("credit did not return across the link (available=%d)", c.Available())
	}
}
