package bitarb

import "dxbar/internal/snapshot"

// State moves the separable allocator: the per-output and per-input rotation
// pointers plus the match counter.
func (s *Separable) State(st *snapshot.Stream) error {
	for _, ptrs := range []*[Radix]uint8{&s.outPtr, &s.inPtr} {
		for i := range ptrs {
			p := int(ptrs[i])
			snapshot.Int(st, &p)
			if p < 0 || p >= Radix {
				return st.Failf("bitarb: snapshot rotation pointer %d out of [0,%d)", p, Radix)
			}
			ptrs[i] = uint8(p)
		}
	}
	st.U64(&s.grants)
	return st.Err()
}
