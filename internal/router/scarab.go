package router

import (
	"dxbar/internal/core"
	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
)

// Scarab is the SCARAB router: bufferless, minimally-adaptive, single-cycle.
// An incoming flit that finds no free productive output port is dropped; a
// NACK travels back to the source on a dedicated circuit-switched network
// (one cycle per hop) and triggers a retransmission. Ejection conflicts
// also drop (the losing flit cannot wait).
type Scarab struct {
	env *sim.Env

	// table is the precomputed minimal-adaptive routing (shared network-wide
	// when built by the factory); links caches the node's link count.
	table *routing.Table
	links int

	cands core.PortState // SoA gather, reused across cycles
}

// NewScarab builds a SCARAB router. SCARAB's routing is minimal adaptive
// without turn restrictions (bufferless networks cannot deadlock), so no
// routing.Algorithm parameter exists.
func NewScarab(env *sim.Env) *Scarab {
	return NewScarabTable(env, nil)
}

// NewScarabTable is NewScarab with a shared precomputed minimal-adaptive
// routing table (nil builds a private one — fine for single routers and
// small test meshes; network factories share one table across all routers).
func NewScarabTable(env *sim.Env, table *routing.Table) *Scarab {
	s := new(Scarab)
	s.Init(env, table)
	return s
}

// Init builds the router in place, as NewScarabTable does on a fresh
// allocation.
func (s *Scarab) Init(env *sim.Env, table *routing.Table) {
	mesh := env.Mesh()
	if table == nil {
		table = routing.NewTable(routing.MinimalAdaptive{}, mesh, mesh.Nodes())
	}
	*s = Scarab{env: env, table: table, links: mesh.LinkCount(env.Node)}
}

// Step implements sim.Router: arrivals gathered into an SoA PortState, output
// availability one bitmask, routing queries table loads. It always reports
// quiescent: like Flit-Bless the router holds nothing between cycles (a flit
// it cannot forward is dropped, and the retransmission comes back through the
// engine's wheel, which wakes the source), so a Step without latched or queued
// flits touches no state.
func (s *Scarab) Step(cycle uint64) (quiescent bool) {
	env := s.env
	node := env.Node

	ps := &s.cands
	ps.Reset()
	for p := flit.North; p <= flit.West; p++ {
		if f := env.In[p]; f != nil {
			env.In[p] = nil
			ps.Add(f, p)
		}
	}
	env.InMask = 0
	ps.SortAge()

	free := env.FreeOutMask()
	for i := 0; i < ps.N; i++ {
		k := ps.Order[i]
		f := ps.Flits[k]
		dst := int(ps.Dst[k])
		out := flit.Invalid
		if dst == node {
			if free&(1<<uint(flit.Local)) != 0 {
				out = flit.Local
			}
		} else {
			out = s.freeProductive(dst, free)
		}
		if out == flit.Invalid {
			s.drop(f, cycle)
			continue
		}
		free &^= 1 << uint(out)
		send(env, s.table, out, f, cycle)
	}

	// Injection: permitted when an input slot was free (arrivals counted
	// before injection); the new flit is simply not injected (it waits in the
	// queue) if its productive ports are taken — the source never drops.
	if ps.N < s.links {
		if f := env.InjectionHead(); f != nil {
			if int(f.Dst) == node {
				// Patterns never map a node to itself; defensive.
				if free&(1<<uint(flit.Local)) != 0 {
					env.ConsumeInjection(cycle)
					send(env, s.table, flit.Local, f, cycle)
				}
				return true
			}
			if p := s.freeProductive(int(f.Dst), free); p != flit.Invalid {
				env.ConsumeInjection(cycle)
				send(env, s.table, p, f, cycle)
			}
		}
	}
	return true
}

// freeProductive returns the first minimal direction toward dst that is
// free in the output bitmask, larger-offset dimension first — SCARAB's fully
// adaptive minimal set — or Invalid.
func (s *Scarab) freeProductive(dst int, free uint8) flit.Port {
	ports := s.table.ProductiveAt(s.env.Node, dst)
	for i := 0; i < ports.Len(); i++ {
		if p := ports.At(i); free&(1<<uint(p)) != 0 {
			return p
		}
	}
	return flit.Invalid
}

// drop discards f, charges the NACK network for the return trip to the
// source, and schedules the retransmission: the NACK needs one cycle per
// hop back, then the source re-injects.
func (s *Scarab) drop(f *flit.Flit, cycle uint64) {
	env := s.env
	dist := env.Mesh().Distance(env.Node, int(f.Src))
	env.Stats().DroppedFlit(cycle, env.Node)
	env.Events().Record(cycle, events.Drop, env.Node, flit.Invalid, f.PacketID, f.ID, int32(dist))
	env.Meter().NackHops(dist)
	env.ScheduleRetransmit(f, uint64(dist)+1)
}
