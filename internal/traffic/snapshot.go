package traffic

import (
	"math/rand"

	"dxbar/internal/snapshot"
)

// maxDrawsPerGenerate is the most raw source draws one Generate call makes,
// read off its code: one Float64 for the Bernoulli trial, then Dest — NUR's
// worst case is a Float64 for the hot-spot coin, an Intn(4) for the hot node
// and, when that node is the source itself, an Intn over the others. Every
// math/rand call is one draw but for its rejection retries (Float64 resamples
// a rounding to 1.0, Intn of a non-power-of-two n resamples with probability
// below n/2^31), which a run's total never comes near to filling:
// TestDrawsPerGenerateBound holds all nine patterns to it at load 1.0.
const maxDrawsPerGenerate = 4

// State moves the injector's mutable state: the RNG stream position (raw
// source draws since seeding) and the next packet ID. The seed, load and
// pattern are configuration — the restore side reconstructs the injector from
// the run's config and overlays this state.
//
// Loading restores the stream position by reseeding the source and replaying
// the recorded number of raw draws: O(draws), microseconds per billion cycles
// of low-load simulation, and what makes the position portable — no generator
// internals are serialized, only how far the stream advanced. cycle is the
// snapshot's cycle. The engine asks each node at most once per cycle, so the
// count is capped at twice maxDrawsPerGenerate per node-cycle up to it: a
// forged count fails here instead of replaying for hours.
func (b *Bernoulli) State(s *snapshot.Stream, cycle uint64) error {
	s.Tag("BERN")
	draws := b.src.n
	s.U64(&draws)
	s.U64(&b.nextID)
	if b.nextID == 0 {
		return s.Failf("traffic: snapshot has invalid next packet ID 0")
	}
	if perCycle := 2 * maxDrawsPerGenerate * uint64(b.mesh.Nodes()); draws/perCycle > cycle {
		return s.Failf("traffic: snapshot RNG position %d exceeds %d draws per cycle over %d cycles", draws, perCycle, cycle)
	}
	if s.Loading() && s.Err() == nil {
		src := rand.NewSource(b.seed).(rand.Source64)
		for i := uint64(0); i < draws; i++ {
			src.Uint64()
		}
		b.src = &countingSource{src: src, n: draws}
		b.rng = rand.New(b.src)
	}
	return s.Err()
}

// State moves one queued packet spec, validating node indices against the
// mesh.
func (p *PacketSpec) State(s *snapshot.Stream, nodes int) error {
	s.U64(&p.ID)
	snapshot.Int(s, &p.Src)
	snapshot.Int(s, &p.Dst)
	s.U16(&p.NumFlits)
	snapshot.Byte(s, &p.Kind)
	s.U64(&p.Cycle)
	if p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes {
		return s.Failf("traffic: snapshot spec endpoints %d->%d out of range for %d nodes", p.Src, p.Dst, nodes)
	}
	if p.NumFlits < 1 || p.NumFlits > 64 {
		return s.Failf("traffic: snapshot spec flit count %d out of [1,64]", p.NumFlits)
	}
	return s.Err()
}
