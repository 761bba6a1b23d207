package traffic

import (
	"fmt"
	"math/rand"

	"dxbar/internal/flit"
	"dxbar/internal/topology"
)

// PacketSpec describes one generated packet before its flits exist.
type PacketSpec struct {
	ID       uint64
	Src, Dst int
	NumFlits uint16
	Kind     flit.Kind
	Cycle    uint64
}

// MaterializeFlit builds flit seq of the packet out of the pool (the
// engine's lazy injection path materializes one packet at a time this way).
// Every flit is stamped with the packet's injection cycle (the age every
// arbitration decision uses), and flit IDs are derived from the packet ID so
// they are globally unique.
func (p PacketSpec) MaterializeFlit(pool *flit.Pool, seq uint16) *flit.Flit {
	f := pool.Get()
	*f = flit.Flit{
		ID:             p.ID*uint64(p.NumFlits) + uint64(seq),
		PacketID:       p.ID,
		Seq:            seq,
		NumFlits:       p.NumFlits,
		Src:            int32(p.Src),
		Dst:            int32(p.Dst),
		Kind:           p.Kind,
		InjectionCycle: p.Cycle,
	}
	return f
}

// Bernoulli is the open-loop injection process of §III.A: each node
// independently generates a packet each cycle with probability chosen so the
// offered load (flits per node per cycle) matches the configured fraction of
// capacity (1 flit/node/cycle).
type Bernoulli struct {
	pattern Pattern
	prob    float64 // per-node per-cycle packet probability
	nflits  uint16
	rng     *rand.Rand // draws from src
	nextID  uint64
	spec    PacketSpec // reused across Generate calls (see Generate)
	src     Source
}

// NewBernoulli returns an injector offering `load` flits/node/cycle with
// packets of flitsPerPacket flits each. The pattern carries the mesh; the
// mesh argument is not consulted.
func NewBernoulli(_ *topology.Mesh, p Pattern, load float64, flitsPerPacket int, seed int64) (*Bernoulli, error) {
	if !(load >= 0 && load <= 1) { // NaN fails both
		return nil, fmt.Errorf("traffic: load %v out of [0,1]", load)
	}
	if flitsPerPacket < 1 || flitsPerPacket > 64 {
		return nil, fmt.Errorf("traffic: flits per packet %d out of [1,64]", flitsPerPacket)
	}
	b := &Bernoulli{
		pattern: p,
		prob:    load / float64(flitsPerPacket),
		nflits:  uint16(flitsPerPacket),
		nextID:  1,
	}
	b.src.Seed(seed)
	b.rng = rand.New(&b.src)
	return b, nil
}

// Generate rolls the Bernoulli trial for one node at one cycle and returns
// the new packet spec, or nil. Packets whose pattern maps the node to itself
// are skipped (deterministic permutations can be self-mapping, e.g. the
// transpose diagonal).
//
// The returned spec is reused by the next Generate call: materialize (or
// copy) it before calling Generate again. The engine consumes each spec in
// the same cycle, so the injection hot path stays allocation-free.
func (b *Bernoulli) Generate(node int, cycle uint64) *PacketSpec {
	if b.rng.Float64() >= b.prob {
		return nil
	}
	dst := b.pattern.Dest(node, b.rng)
	if dst == node {
		return nil
	}
	b.spec = PacketSpec{
		ID:       b.nextID,
		Src:      node,
		Dst:      dst,
		NumFlits: b.nflits,
		Kind:     flit.Data,
		Cycle:    cycle,
	}
	b.nextID++
	return &b.spec
}
