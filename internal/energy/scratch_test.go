package energy

import (
	"bytes"
	"testing"

	"dxbar/internal/snapshot"
)

// TestScratchAbsorb checks every counter crosses the scratch→master fold
// exactly once: absorbing a scratch adds its counts and zeroes it, and
// repeated rounds accumulate like direct metering.
func TestScratchAbsorb(t *testing.T) {
	master := NewMeter()
	direct := NewMeter()
	scratch := master.Scratch()

	record := func(m *Meter) {
		m.CrossbarTraversal()
		m.CrossbarTraversal()
		m.LinkTraversal()
		m.BufferWrite()
		m.BufferWrite()
		m.BufferWrite()
		m.BufferRead()
		m.NackHops(4)
	}
	for round := 0; round < 3; round++ {
		record(direct)
		record(scratch)
		master.Absorb(scratch)
		if scratch.Snapshot() != (Counts{}) {
			t.Fatalf("round %d: scratch not zeroed after absorb: %+v", round, scratch.Snapshot())
		}
	}
	if master.Snapshot() != direct.Snapshot() {
		t.Errorf("absorbed totals differ from direct metering:\nmaster: %+v\ndirect: %+v", master.Snapshot(), direct.Snapshot())
	}
	// Energy conversion sees the absorbed counts through the master's params.
	if master.TotalPJ() != direct.TotalPJ() {
		t.Errorf("energy differs: master %f pJ, direct %f pJ", master.TotalPJ(), direct.TotalPJ())
	}
}

// TestCountsFields is the same walk over every counter of Counts: a scratch
// meter hands it to the master and is left zero, Sub takes it off again, and
// the shared codec (the ENRG section and a checkpoint's base) round-trips it.
func TestCountsFields(t *testing.T) {
	for i := range (&Counts{}).fields() {
		var want Counts
		*want.fields()[i] = 7
		master, scratch := NewMeter(), NewMeter().Scratch()
		scratch.counts = want
		master.Absorb(scratch)
		if master.Snapshot() != want || scratch.Snapshot() != (Counts{}) {
			t.Fatalf("field %d: after Absorb master %+v, scratch %+v", i, master.Snapshot(), scratch.Snapshot())
		}
		if got := master.Snapshot().Sub(want); got != (Counts{}) {
			t.Errorf("field %d: Sub left %+v", i, got)
		}

		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		master.SaveState(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := snapshot.NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		restored := NewBuffered8Meter()
		if err := restored.LoadState(r); err != nil {
			t.Fatal(err)
		}
		if restored.Snapshot() != want {
			t.Errorf("field %d: round trip gave %+v, want %+v", i, restored.Snapshot(), want)
		}
	}
}
