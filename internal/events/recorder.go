package events

import "dxbar/internal/flit"

// Recorder is the flight recorder proper: a preallocated ring of Events plus
// the per-router × per-kind counter matrix. A nil *Recorder is the disabled
// recorder — every method no-ops (or returns zero values) on a nil receiver,
// so instrumentation sites call unconditionally and the disabled path costs
// a nil check.
//
// A Recorder belongs to one simulation run and is not safe for concurrent
// use (the engine is single-threaded; batch sweeps give each run its own).
type Recorder struct {
	ring []Event
	head int // index of the oldest event
	size int

	mask  uint32 // per-kind enable bits
	nodes int

	// counts is the flattened nodes × NumKinds counter matrix. Unlike the
	// ring it never overwrites, so per-router totals are exact for the
	// whole run even after the ring wraps.
	counts []uint64

	total uint64 // events accepted into the ring over the run

	// grow marks a staging recorder (NewStage): the ring grows instead of
	// overwriting, there is no counter matrix, and DrainTo replays the held
	// events into a real recorder. The sharded cycle engine gives each node
	// a stage so the router phase can record concurrently, then drains the
	// stages in node order at the cycle barrier — reproducing exactly the
	// ring the sequential engine would have written.
	grow bool
}

// MaskOf builds the enable bitmask for a set of kinds; no kinds means all.
func MaskOf(kinds ...Kind) uint32 {
	if len(kinds) == 0 {
		return 1<<uint(NumKinds) - 1
	}
	var m uint32
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

// NewRecorder returns a recorder for a network of the given node count with
// a ring of the given capacity. With no kinds every kind is recorded;
// otherwise only the listed kinds pass the record-time filter.
func NewRecorder(nodes, capacity int, kinds ...Kind) *Recorder {
	if nodes <= 0 || capacity <= 0 {
		panic("events: invalid recorder configuration")
	}
	return &Recorder{
		ring:   make([]Event, capacity),
		mask:   MaskOf(kinds...),
		nodes:  nodes,
		counts: make([]uint64, nodes*NumKinds),
	}
}

// Enabled reports whether events of kind k pass the recorder's filter
// (false on a nil recorder). Instrumentation sites with non-trivial event
// assembly may use it to skip the work entirely.
func (r *Recorder) Enabled(k Kind) bool {
	return r != nil && r.mask&(1<<uint(k)) != 0
}

// NewStage returns a staging recorder with the same kind mask as r: a
// growable event buffer with no counter matrix, filled by one node's router
// during the parallel router phase and emptied by DrainTo at the cycle
// barrier. A nil receiver yields a nil stage (tracing off). The buffer
// grows by amortized append, so after a few cycles of warmup staging
// allocates nothing.
func (r *Recorder) NewStage() *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{mask: r.mask, nodes: r.nodes, grow: true}
}

// DrainTo replays the staged events into dst in record order and empties
// the stage. Only meaningful on a stage; replay goes through dst.Record, so
// dst's ring, counter matrix and totals end up exactly as if the events had
// been recorded there directly.
func (r *Recorder) DrainTo(dst *Recorder) {
	if r == nil || r.size == 0 {
		return
	}
	for i := 0; i < r.size; i++ {
		ev := &r.ring[i]
		dst.Record(ev.Cycle, ev.Kind, int(ev.Node), ev.Port, ev.PacketID, ev.FlitID, ev.Detail)
	}
	r.ring = r.ring[:0]
	r.size = 0
	r.total = 0
}

// DrainMerged replays the events of several stages into dst in ascending
// node order and empties them. Every stage must already hold its events in
// ascending node order — the sharded engine's tiles record their ejections
// while walking their nodes in order — so this is a k-way merge that
// reproduces the sequence one recorder visited by every node in turn would
// hold; events of the same node keep their stage's order.
func DrainMerged(dst *Recorder, stages []*Recorder) {
	for {
		var next *Recorder
		for _, s := range stages {
			// A stage's head is otherwise always 0: it serves as the cursor.
			if s != nil && s.head < s.size && (next == nil || s.ring[s.head].Node < next.ring[next.head].Node) {
				next = s
			}
		}
		if next == nil {
			break
		}
		ev := &next.ring[next.head]
		next.head++
		dst.Record(ev.Cycle, ev.Kind, int(ev.Node), ev.Port, ev.PacketID, ev.FlitID, ev.Detail)
	}
	for _, s := range stages {
		if s != nil {
			s.ring, s.head, s.size, s.total = s.ring[:0], 0, 0, 0
		}
	}
}

// Record appends one event to the ring, overwriting the oldest entry once
// the ring is full, and bumps the node's counter for the kind. It never
// allocates; on a nil recorder (tracing disabled) or a masked-out kind it
// returns immediately. (Staging recorders grow instead of overwriting and
// keep no counters — amortized-zero allocation, see NewStage.)
func (r *Recorder) Record(cycle uint64, k Kind, node int, port flit.Port, packetID, flitID uint64, detail int32) {
	// Split so the disabled case (nil recorder / masked kind) inlines into
	// every hook site as a compare-and-skip; the ring write stays out of
	// line. Routers call Record millions of times per second with tracing
	// off, so the call overhead itself is what matters here.
	if r == nil || r.mask&(1<<uint(k)) == 0 {
		return
	}
	r.record(cycle, k, node, port, packetID, flitID, detail)
}

func (r *Recorder) record(cycle uint64, k Kind, node int, port flit.Port, packetID, flitID uint64, detail int32) {
	if r.grow {
		r.ring = append(r.ring, Event{
			Cycle:    cycle,
			PacketID: packetID,
			FlitID:   flitID,
			Detail:   detail,
			Node:     int32(node),
			Kind:     k,
			Port:     port,
		})
		r.size = len(r.ring)
		r.total++
		return
	}
	r.counts[node*NumKinds+int(k)]++
	r.total++
	idx := r.head + r.size
	if idx >= len(r.ring) {
		idx -= len(r.ring)
	}
	r.ring[idx] = Event{
		Cycle:    cycle,
		PacketID: packetID,
		FlitID:   flitID,
		Detail:   detail,
		Node:     int32(node),
		Kind:     k,
		Port:     port,
	}
	if r.size < len(r.ring) {
		r.size++
	} else {
		// Ring full: the slot we just wrote was the oldest entry; advance.
		r.head++
		if r.head == len(r.ring) {
			r.head = 0
		}
	}
}

// Len returns the number of events currently held in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.size
}

// Capacity returns the ring capacity (0 on a nil recorder).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Total returns the number of events recorded over the run, including those
// since overwritten.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Overwritten returns how many recorded events have been lost to ring
// overwrite (Total − Len).
func (r *Recorder) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(r.size)
}

// Events copies the ring out in chronological (record) order. End-of-run
// export path; allocates.
func (r *Recorder) Events() []Event {
	if r == nil || r.size == 0 {
		return nil
	}
	out := make([]Event, r.size)
	n := copy(out, r.ring[r.head:r.head+min(r.size, len(r.ring)-r.head)])
	copy(out[n:], r.ring[:r.size-n])
	return out
}

// Matrix snapshots the per-router × per-kind counter matrix.
func (r *Recorder) Matrix() *Matrix {
	if r == nil {
		return nil
	}
	return &Matrix{
		Nodes:  r.nodes,
		counts: append([]uint64(nil), r.counts...),
	}
}

// PacketPath reconstructs one packet's hop-by-hop history from the events
// still in the ring: every per-flit event carrying the packet ID, in
// chronological order. If the packet's early life has been overwritten the
// path starts mid-flight (no Inject event).
func (r *Recorder) PacketPath(packetID uint64) []Event {
	return PacketPath(r.Events(), packetID)
}

// PacketPath filters a chronological event slice down to one packet's
// per-flit events (exported standalone so it also works on a Result's
// copied-out event log).
func PacketPath(evs []Event, packetID uint64) []Event {
	var path []Event
	for _, e := range evs {
		if e.PacketID == packetID && e.Kind.PerFlit() {
			path = append(path, e)
		}
	}
	return path
}

// Matrix is a snapshot of the per-router × per-kind counter matrix.
type Matrix struct {
	// Nodes is the network's node count.
	Nodes  int
	counts []uint64
}

// At returns node n's count for kind k (0 on a nil matrix).
func (m *Matrix) At(n int, k Kind) uint64 {
	if m == nil {
		return 0
	}
	return m.counts[n*NumKinds+int(k)]
}

// PerNode returns the per-node counts for one kind, indexed by node.
func (m *Matrix) PerNode(k Kind) []uint64 {
	if m == nil {
		return nil
	}
	out := make([]uint64, m.Nodes)
	for n := range out {
		out[n] = m.counts[n*NumKinds+int(k)]
	}
	return out
}

// KindTotal returns the network-wide count for one kind.
func (m *Matrix) KindTotal(k Kind) uint64 {
	if m == nil {
		return 0
	}
	var total uint64
	for n := 0; n < m.Nodes; n++ {
		total += m.counts[n*NumKinds+int(k)]
	}
	return total
}
