package events

import "dxbar/internal/snapshot"

// State moves the master recorder: the kind mask, the whole-run total, the
// counter matrix and the ring events in chronological order (the ring phase
// is not captured — loading refills from slot 0, which keeps the byte stream
// canonical under any rotation).
//
// The receiver may be nil when loading (tracing disabled on the restoring
// side — e.g. a rewind with a different trace setup): the section is then
// decoded and discarded. If the snapshot ring is deeper than the receiver's,
// only the newest events are kept — the same overwrite-oldest semantics the
// live ring applies. Saving needs a non-nil master (not a stage) recorder.
func (r *Recorder) State(s *snapshot.Stream) error {
	s.Tag("EVNT")
	var discard Recorder
	if r == nil {
		r = &discard
	}
	s.U32(&r.mask)
	s.U64(&r.total)
	nc := s.Len(len(r.counts), 1<<24)
	if r != &discard && nc != len(r.counts) {
		return s.Failf("events: snapshot counter matrix size %d != configured %d", nc, len(r.counts))
	}
	var scratch uint64
	for i := 0; i < nc; i++ {
		v := &scratch
		if i < len(r.counts) {
			v = &r.counts[i]
		}
		s.U64(v)
	}
	size := s.Len(r.size, 1<<24)
	if s.Loading() {
		r.head, r.size = 0, 0
	}
	for i := 0; i < size; i++ {
		var e Event
		if !s.Loading() {
			e = r.ring[(r.head+i)%len(r.ring)]
		}
		s.U64(&e.Cycle)
		s.U64(&e.PacketID)
		s.U64(&e.FlitID)
		snapshot.Int(s, &e.Detail)
		snapshot.Int(s, &e.Node)
		snapshot.Byte(s, &e.Kind)
		snapshot.Byte(s, &e.Port)
		if int(e.Kind) >= NumKinds {
			return s.Failf("events: snapshot event kind %d out of range", e.Kind)
		}
		if r == &discard {
			continue
		}
		if int(e.Node) < 0 || int(e.Node) >= r.nodes {
			return s.Failf("events: snapshot event node %d out of range", e.Node)
		}
		if s.Loading() {
			r.refill(e)
		}
	}
	return s.Err()
}

// refill appends a loaded event with the ring's overwrite-oldest semantics,
// but without the mask filter or the counter bump — mask and counters were
// loaded wholesale.
func (r *Recorder) refill(e Event) {
	idx := r.head + r.size
	if idx >= len(r.ring) {
		idx -= len(r.ring)
	}
	r.ring[idx] = e
	if r.size < len(r.ring) {
		r.size++
	} else if r.head++; r.head == len(r.ring) {
		r.head = 0
	}
}
