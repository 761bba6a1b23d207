package router

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// The branchy twins: Flit-Bless and SCARAB as first written, the oracles the
// bit-parallel routers are held to. Candidates sit in a slice sorted by
// flit.SortByAge, routing goes through the routing.Algorithm (or mesh
// coordinates), and output availability is read off the env at every probe
// instead of from a bitmask the router keeps itself.

// outputFree reports whether output latch p exists and is still undriven.
func outputFree(env *sim.Env, p flit.Port) bool { return env.FreeOutMask()&(1<<uint(p)) != 0 }

type branchyBless struct {
	env  *sim.Env
	algo routing.Algorithm
}

func (b *branchyBless) Step(cycle uint64) (quiescent bool) {
	env := b.env
	mesh := env.Mesh()
	node := env.Node
	arrivals := make([]*flit.Flit, 0, flit.NumPorts)
	links := 0
	for p := flit.North; p <= flit.West; p++ {
		if mesh.HasPort(node, p) {
			links++
		}
		if f := env.In[p]; f != nil {
			env.In[p] = nil
			arrivals = append(arrivals, f)
		}
	}
	env.InMask = 0
	var injectee *flit.Flit
	if len(arrivals) < links {
		if f := env.InjectionHead(); f != nil {
			arrivals = append(arrivals, f)
			injectee = f
		}
	}
	flit.SortByAge(arrivals)
	for _, f := range arrivals {
		p := b.assign(f, cycle)
		if p == flit.Invalid {
			panic("router: branchy bless failed to assign an output port")
		}
		if f == injectee {
			env.ConsumeInjection(cycle)
		}
		b.send(p, f, cycle)
	}
	return true
}

// assign picks Local when f has arrived and the ejection port is free,
// otherwise the first free port in deflection order.
func (b *branchyBless) assign(f *flit.Flit, cycle uint64) flit.Port {
	env := b.env
	mesh := env.Mesh()
	node := env.Node
	if int(f.Dst) == node && outputFree(env, flit.Local) {
		return flit.Local
	}
	order := routing.DeflectionOrder(b.algo, mesh, node, int(f.Dst))
	prod := b.algo.Productive(mesh, node, int(f.Dst))
	for i := 0; i < order.Len(); i++ {
		p := order.At(i)
		if outputFree(env, p) {
			if int(f.Dst) == node || i >= prod.Len() {
				f.Deflections++
				env.Stats().DeflectedFlit()
				env.Events().Record(cycle, events.Deflect, node, p, f.PacketID, f.ID, int32(f.Deflections))
			}
			return p
		}
	}
	return flit.Invalid
}

func (b *branchyBless) send(p flit.Port, f *flit.Flit, cycle uint64) {
	env := b.env
	env.Stats().RoutedEvent(cycle)
	if p != flit.Local {
		next := env.Mesh().Neighbor(env.Node, p)
		f.Route = routing.Request(b.algo, env.Mesh(), next, int(f.Dst))
	}
	env.Send(p, f)
}

// branchyScarab shares Scarab's drop (the NACK and the retransmission); the
// switching decisions are its own.
type branchyScarab struct{ *Scarab }

// minimalPorts returns the (up to two) minimal directions toward dst,
// larger-offset dimension first — SCARAB's fully adaptive minimal set.
func minimalPorts(env *sim.Env, at, dst int) routing.PortList {
	m := env.Mesh()
	ax, ay := m.XY(at)
	dx, dy := m.XY(dst)
	var xPort, yPort flit.Port = flit.Invalid, flit.Invalid
	if dx > ax {
		xPort = flit.East
	} else if dx < ax {
		xPort = flit.West
	}
	if dy > ay {
		yPort = flit.South
	} else if dy < ay {
		yPort = flit.North
	}
	first, second := xPort, yPort
	if abs(dx-ax) < abs(dy-ay) {
		first, second = yPort, xPort
	}
	var ports routing.PortList
	for _, p := range []flit.Port{first, second} {
		if p != flit.Invalid {
			ports.Add(p)
		}
	}
	return ports
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func (s branchyScarab) Step(cycle uint64) (quiescent bool) {
	env := s.env
	mesh := env.Mesh()
	node := env.Node
	arrivals := make([]*flit.Flit, 0, flit.NumLinkPorts)
	links := 0
	for p := flit.North; p <= flit.West; p++ {
		if mesh.HasPort(node, p) {
			links++
		}
		if f := env.In[p]; f != nil {
			env.In[p] = nil
			arrivals = append(arrivals, f)
		}
	}
	env.InMask = 0
	flit.SortByAge(arrivals)
	for _, f := range arrivals {
		p := flit.Invalid
		if int(f.Dst) == node {
			if outputFree(env, flit.Local) {
				p = flit.Local
			}
		} else {
			p = s.freeProductive(f)
		}
		if p == flit.Invalid {
			s.drop(f, cycle)
			continue
		}
		s.send(p, f, cycle)
	}
	// Injection, when an input slot was free: a flit whose productive ports
	// are taken waits in the queue.
	if len(arrivals) < links {
		if f := env.InjectionHead(); f != nil {
			if int(f.Dst) == node {
				if outputFree(env, flit.Local) {
					env.ConsumeInjection(cycle)
					s.send(flit.Local, f, cycle)
				}
				return true
			}
			if p := s.freeProductive(f); p != flit.Invalid {
				env.ConsumeInjection(cycle)
				s.send(p, f, cycle)
			}
		}
	}
	return true
}

func (s branchyScarab) freeProductive(f *flit.Flit) flit.Port {
	ports := minimalPorts(s.env, s.env.Node, int(f.Dst))
	for i := 0; i < ports.Len(); i++ {
		if p := ports.At(i); outputFree(s.env, p) {
			return p
		}
	}
	return flit.Invalid
}

func (s branchyScarab) send(p flit.Port, f *flit.Flit, cycle uint64) {
	env := s.env
	env.Stats().RoutedEvent(cycle)
	if p != flit.Local {
		ports := minimalPorts(env, env.Mesh().Neighbor(env.Node, p), int(f.Dst))
		f.Route = flit.Local
		if ports.Len() > 0 {
			f.Route = ports.At(0)
		}
	}
	env.Send(p, f)
}

// lockstepNet is an 8×8 network on the newHarness pattern, under Bernoulli
// traffic with a flight recorder attached.
func lockstepNet(t *testing.T, factory sim.RouterFactory, pattern string, load float64, flits int) *harness {
	t.Helper()
	mesh := topology.MustMesh(8, 8)
	pat, err := traffic.New(pattern, mesh)
	if err != nil {
		t.Fatal(err)
	}
	bern, err := traffic.NewBernoulli(mesh, pat, load, flits, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{coll: stats.NewCollector(mesh.Nodes(), 100, 1000), mesh: mesh}
	h.eng, err = sim.New(sim.Config{Mesh: mesh, Stats: h.coll, Source: &sim.SourceAdapter{B: bern},
		Events: events.NewRecorder(mesh.Nodes(), 256)}, factory)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestBufferlessFastMatchesBranchy runs Flit-Bless (DOR and WF) and SCARAB (1-
// and 4-flit packets) beside their branchy twins at load 0.3, past saturation
// and under the transpose, butterfly and neighbour patterns: Engine.Snapshot
// (every latch, the retransmit wheel, the collector and the event ring) must be byte-equal every 50 cycles, and the final results equal.
func TestBufferlessFastMatchesBranchy(t *testing.T) {
	designs := []struct {
		name          string
		flits         int
		fast, branchy sim.RouterFactory
	}{
		{"bless-dor", 1, blessFactory(routing.DOR{}),
			func(env *sim.Env) sim.Router { return &branchyBless{env: env, algo: routing.DOR{}} }},
		{"bless-wf", 1, blessFactory(routing.WestFirst{}),
			func(env *sim.Env) sim.Router { return &branchyBless{env: env, algo: routing.WestFirst{}} }},
		{"scarab", 1, scarabFactory(),
			func(env *sim.Env) sim.Router { return branchyScarab{NewScarab(env)} }},
		{"scarab-4flit", 4, scarabFactory(),
			func(env *sim.Env) sim.Router { return branchyScarab{NewScarab(env)} }},
	}
	loads := []struct {
		pattern string
		load    float64
	}{{"UR", 0.3}, {"UR", 0.6}, {"MT", 0.25}, {"BF", 0.25}, {"NB", 0.25}}
	for _, d := range designs {
		for _, l := range loads {
			t.Run(fmt.Sprintf("%s/%s-%.2f", d.name, l.pattern, l.load), func(t *testing.T) {
				fast := lockstepNet(t, d.fast, l.pattern, l.load, d.flits)
				ref := lockstepNet(t, d.branchy, l.pattern, l.load, d.flits)
				var fs, rs bytes.Buffer
				for cycle := 50; cycle <= 1000; cycle += 50 {
					fast.eng.Run(50)
					ref.eng.Run(50)
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
}
