package energy

import "dxbar/internal/snapshot"

// SaveState writes the five counters, untagged: the meter's ENRG section and
// a checkpoint's warmup-boundary base share this codec.
func (c *Counts) SaveState(w *snapshot.Writer) {
	for _, f := range c.fields() {
		w.U64(*f)
	}
}

// LoadState reads what SaveState wrote; errors stay on the reader.
func (c *Counts) LoadState(r *snapshot.Reader) {
	for _, f := range c.fields() {
		*f = r.U64()
	}
}

// SaveState serializes the meter's event counters. The per-event energies
// (crossbarPJ, unified, buffered8) are configuration, re-derived from the
// design on restore.
func (m *Meter) SaveState(w *snapshot.Writer) {
	w.Tag("ENRG")
	m.counts.SaveState(w)
}

// LoadState restores the meter's event counters.
func (m *Meter) LoadState(r *snapshot.Reader) error {
	r.Expect("ENRG")
	m.counts.LoadState(r)
	return r.Err()
}
