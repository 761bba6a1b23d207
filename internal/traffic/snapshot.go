package traffic

import "dxbar/internal/snapshot"

// State moves the injector's mutable state: its RNG source and the next
// packet ID. Load, pattern and packet size are configuration, rebuilt from
// the run's config; the seed is spent, and the source's state is what is left.
func (b *Bernoulli) State(s *snapshot.Stream) error {
	s.Tag("BERN")
	if err := b.src.State(s); err != nil {
		return err
	}
	s.U64(&b.nextID)
	if b.nextID == 0 {
		return s.Failf("traffic: snapshot has invalid next packet ID 0")
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
