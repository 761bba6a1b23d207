package energy

import "dxbar/internal/snapshot"

// State moves the five counters, untagged: the meter's ENRG section and a
// checkpoint's warmup-boundary base share this codec.
func (c *Counts) State(s *snapshot.Stream) error {
	for _, f := range c.fields() {
		s.U64(f)
	}
	return s.Err()
}

// State moves the meter's event counters. The per-event energies (crossbarPJ,
// buffered8) are configuration, re-derived from the design on restore.
func (m *Meter) State(s *snapshot.Stream) error {
	s.Tag("ENRG")
	return m.counts.State(s)
}
