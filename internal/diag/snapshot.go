package diag

import (
	"fmt"

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

// SaveState serializes the monitor's detector state so a restored run
// reproduces the exact anomaly stream of the uninterrupted one: the progress
// watchdog, the window baselines, the starvation latch, the recorded
// anomalies, and the fault-latency accounting. Hooks (dumper, stop flags) and
// registry handles are wiring, re-created on restore; the flit-age gauge's
// delta tracker is registry-coupled and starts fresh.
func (m *Monitor) SaveState(w *snapshot.Writer) {
	w.Tag("DIAG")
	for _, p := range m.scalars() {
		w.U64(*p)
	}
	w.Bool(false) // retired "trace widened" flag: the byte keeps the section layout
	w.Bool(m.dumped)
	for k := Kind(0); k < NumKinds; k++ {
		w.U64(m.counts[k])
	}
	w.U32(uint32(len(m.records)))
	for i := range m.records {
		a := &m.records[i]
		w.U8(uint8(a.Kind))
		w.U64(a.Cycle)
		w.I64(int64(a.Node))
		w.U64(a.PacketID)
		w.U64(a.FlitID)
		w.U64(a.Value)
		w.F64(a.Baseline)
	}
	w.U32(uint32(len(m.manifest)))
	for _, v := range m.manifest {
		w.U64(v)
	}
	w.U32(uint32(len(m.faultBuckets)))
	for i := range m.faultBuckets {
		w.U64(m.faultBuckets[i].Load())
	}
	w.U64(m.faultCount.Load())
	w.U64(m.faultSum.Load())
}

// LoadState restores a monitor built with the same configuration and node
// count. dst may be nil (diagnostics disabled on the restore side), in which
// case the section is decoded and discarded.
func LoadState(r *snapshot.Reader, dst *Monitor) error {
	r.Expect("DIAG")
	var scalars [numScalars]uint64 // staged, so a nil dst still decodes the section
	for i := range scalars {
		scalars[i] = r.U64()
	}
	r.Bool() // retired "trace widened" flag
	dumped := r.Bool()
	var counts [NumKinds]uint64
	for k := Kind(0); k < NumKinds; k++ {
		counts[k] = r.U64()
	}
	nrec := r.Len(1 << 16)
	if err := r.Err(); err != nil {
		return err
	}
	records := make([]Anomaly, 0, nrec)
	for i := 0; i < nrec; i++ {
		var a Anomaly
		a.Kind = Kind(r.U8())
		a.Cycle = r.U64()
		a.Node = int32(r.I64())
		a.PacketID = r.U64()
		a.FlitID = r.U64()
		a.Value = r.U64()
		a.Baseline = r.F64()
		if err := r.Err(); err != nil {
			return err
		}
		if a.Kind >= NumKinds {
			return fmt.Errorf("diag: snapshot anomaly kind %d out of range", a.Kind)
		}
		records = append(records, a)
	}
	nman := r.Len(1 << 24)
	if err := r.Err(); err != nil {
		return err
	}
	if dst != nil && nman != len(dst.manifest) {
		return fmt.Errorf("diag: snapshot manifest length %d != %d nodes", nman, len(dst.manifest))
	}
	manifest := make([]uint64, nman)
	for i := range manifest {
		manifest[i] = r.U64()
	}
	nb := r.Len(64)
	if err := r.Err(); err != nil {
		return err
	}
	if dst != nil && nb != len(dst.faultBuckets) {
		return fmt.Errorf("diag: snapshot fault-bucket count %d != %d", nb, len(dst.faultBuckets))
	}
	buckets := make([]uint64, nb)
	for i := range buckets {
		buckets[i] = r.U64()
	}
	faultCount := r.U64()
	faultSum := r.U64()
	if err := r.Err(); err != nil {
		return err
	}

	if dst == nil {
		return nil
	}
	for i, p := range dst.scalars() {
		*p = scalars[i]
	}
	dst.dumped = dumped
	dst.counts = counts
	// Append into the existing backing array so the MaxRecords capacity (and
	// with it the overflow behaviour of future fires) survives the restore.
	dst.records = append(dst.records[:0], records...)
	copy(dst.manifest, manifest)
	for i := range buckets {
		dst.faultBuckets[i].Store(buckets[i])
	}
	dst.faultCount.Store(faultCount)
	dst.faultSum.Store(faultSum)
	return nil
}
