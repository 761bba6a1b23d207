package bitarb

import "dxbar/internal/snapshot"

// State moves the separable allocator: the per-output and per-input rotation
// pointers plus the match counter.
func (s *Separable) State(st *snapshot.Stream) error {
	for i := range s.outPtr[:s.numOut] {
		p := int(s.outPtr[i])
		snapshot.Int(st, &p)
		if p < 0 || p >= s.numIn {
			return st.Failf("bitarb: snapshot output pointer %d out of [0,%d)", p, s.numIn)
		}
		s.outPtr[i] = int32(p)
	}
	for i := range s.inPtr[:s.numIn] {
		p := int(s.inPtr[i])
		snapshot.Int(st, &p)
		if p < 0 || p >= s.numOut {
			return st.Failf("bitarb: snapshot input pointer %d out of [0,%d)", p, s.numOut)
		}
		s.inPtr[i] = int32(p)
	}
	st.U64(&s.grants)
	return st.Err()
}
