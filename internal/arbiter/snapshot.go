package arbiter

import "dxbar/internal/snapshot"

// State moves the rotation pointer — the arbiter's only persistent state (the
// grant history is the pointer).
func (r *RoundRobin) State(s *snapshot.Stream) error {
	snapshot.Int(s, &r.ptr)
	if r.ptr < 0 || r.ptr >= r.n {
		return s.Failf("arbiter: snapshot rotation pointer %d out of [0,%d)", r.ptr, r.n)
	}
	return s.Err()
}

// State moves the separable allocator: every output-stage and input-stage
// rotation pointer.
func (s *Separable) State(st *snapshot.Stream) error {
	for _, arbs := range [2][]*RoundRobin{s.outArb, s.inArb} {
		for _, a := range arbs {
			if err := a.State(st); err != nil {
				return err
			}
		}
	}
	return nil
}

// State moves the dual-input allocator. Its arbitration is age-based
// (stateless between cycles); only the swap counter persists.
func (d *DualInput) State(s *snapshot.Stream) error {
	s.U64(&d.swaps)
	return s.Err()
}
