package diag

import (
	"sync/atomic"

	"dxbar/internal/snapshot"
)

// scalars lists the detector state the DIAG section opens with, in stream
// order: the progress watchdog, the window baselines, the starvation latch and
// the dropped-record count.
func (m *Monitor) scalars() [numScalars]*uint64 {
	return [numScalars]*uint64{&m.lastEjected, &m.lastProgress, &m.nextWindow, &m.windows, &m.lastDeflect,
		&m.lastRetx, &m.deflectBase, &m.retxBase, &m.maxAgeSeen, &m.lastStarved, &m.dropped}
}

const numScalars = 11

// State moves the monitor's detector state so a restored run reproduces the
// exact anomaly stream of the uninterrupted one: the progress watchdog, the
// window baselines, the starvation latch, the recorded anomalies, and the
// fault-latency accounting. Hooks (dumper, stop flags) and registry handles
// are wiring, re-created on restore; the flit-age gauge's delta tracker is
// registry-coupled and starts fresh.
//
// The receiver may be nil when loading (diagnostics disabled on the restoring
// side): the section is then decoded and discarded. Loading keeps the record
// slice's backing array, so the MaxRecords capacity (and with it the overflow
// behaviour of future fires) survives the restore.
func (m *Monitor) State(s *snapshot.Stream) error {
	s.Tag("DIAG")
	var discard Monitor
	if m == nil {
		m = &discard
	}
	for _, p := range m.scalars() {
		s.U64(p)
	}
	var widened bool // retired "trace widened" flag: the byte keeps the section layout
	s.Bool(&widened)
	s.Bool(&m.dumped)
	for k := range m.counts {
		s.U64(&m.counts[k])
	}
	nrec := s.Len(len(m.records), 1<<16)
	if s.Loading() {
		m.records = m.records[:0]
	}
	for i := 0; i < nrec; i++ {
		var a Anomaly
		if !s.Loading() {
			a = m.records[i]
		}
		snapshot.Byte(s, &a.Kind)
		s.U64(&a.Cycle)
		snapshot.Int(s, &a.Node)
		s.U64(&a.PacketID)
		s.U64(&a.FlitID)
		s.U64(&a.Value)
		s.F64(&a.Baseline)
		if a.Kind >= NumKinds {
			return s.Failf("diag: snapshot anomaly kind %d out of range", a.Kind)
		}
		if s.Loading() && m != &discard {
			m.records = append(m.records, a)
		}
	}
	var scratch uint64
	nman := s.Len(len(m.manifest), 1<<24)
	if m != &discard && nman != len(m.manifest) {
		return s.Failf("diag: snapshot manifest length %d != %d nodes", nman, len(m.manifest))
	}
	for i := 0; i < nman; i++ {
		v := &scratch
		if i < len(m.manifest) {
			v = &m.manifest[i]
		}
		s.U64(v)
	}
	var scratchBucket atomic.Uint64
	nb := s.Len(len(m.faultBuckets), 64)
	if m != &discard && nb != len(m.faultBuckets) {
		return s.Failf("diag: snapshot fault-bucket count %d != %d", nb, len(m.faultBuckets))
	}
	for i := 0; i < nb; i++ {
		b := &scratchBucket
		if i < len(m.faultBuckets) {
			b = &m.faultBuckets[i]
		}
		atomicState(s, b)
	}
	atomicState(s, &m.faultCount)
	atomicState(s, &m.faultSum)
	return s.Err()
}

// atomicState moves an atomic counter.
func atomicState(s *snapshot.Stream, a *atomic.Uint64) {
	v := a.Load()
	s.U64(&v)
	a.Store(v)
}
