package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeterAccumulation(t *testing.T) {
	m := NewMeter()
	m.CrossbarTraversal()
	m.AddLinkTraversals(1)
	m.AddLinkTraversals(1)
	m.BufferWrite()
	m.BufferRead()
	m.NackHops(3)
	want := CrossbarPerFlit + 2*LinkPerFlit + BufferWritePerFlit + BufferReadPerFlit + 3*NackPerHop
	if got := m.TotalPJ(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalPJ = %v, want %v", got, want)
	}
}

func TestUnifiedMeterUsesHigherCrossbarEnergy(t *testing.T) {
	m, u := NewMeter(), NewUnifiedMeter()
	m.CrossbarTraversal()
	u.CrossbarTraversal()
	if u.TotalPJ()-m.TotalPJ() != UnifiedCrossbarPerFlit-CrossbarPerFlit {
		t.Error("unified meter must charge 2 pJ more per crossbar traversal")
	}
}

func TestBuffered8MeterUsesLargerBufferEnergy(t *testing.T) {
	m, b8 := NewMeter(), NewBuffered8Meter()
	m.BufferWrite()
	m.BufferRead()
	b8.BufferWrite()
	b8.BufferRead()
	if b8.TotalPJ() <= m.TotalPJ() {
		t.Error("buffered8 meter must charge more per buffer access")
	}
}

func TestSnapshotSub(t *testing.T) {
	m := NewMeter()
	m.AddLinkTraversals(1)
	base := m.Snapshot()
	m.AddLinkTraversals(1)
	m.CrossbarTraversal()
	d := m.Snapshot().Sub(base)
	if d.LinkTraversals != 1 || d.CrossbarTraversals != 1 {
		t.Errorf("diff = %+v", d)
	}
	if got := m.EnergyPJ(d); math.Abs(got-(LinkPerFlit+CrossbarPerFlit)) > 1e-9 {
		t.Errorf("windowed energy = %v", got)
	}
}

// Property: energy is linear in event counts and non-negative.
func TestEnergyLinearityProperty(t *testing.T) {
	m := NewMeter()
	f := func(x, l, w, r uint8) bool {
		c := Counts{
			CrossbarTraversals: uint64(x),
			LinkTraversals:     uint64(l),
			BufferWrites:       uint64(w),
			BufferReads:        uint64(r),
		}
		double := Counts{
			CrossbarTraversals: 2 * uint64(x),
			LinkTraversals:     2 * uint64(l),
			BufferWrites:       2 * uint64(w),
			BufferReads:        2 * uint64(r),
		}
		e := m.EnergyPJ(c)
		return e >= 0 && math.Abs(m.EnergyPJ(double)-2*e) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouterAreaRelations(t *testing.T) {
	area := func(d string) float64 {
		a, err := RouterArea(d)
		if err != nil {
			t.Fatalf("RouterArea(%s): %v", d, err)
		}
		return a
	}
	fb, sc := area("flitbless"), area("scarab")
	b4, b8 := area("buffered4"), area("buffered8")
	dx, un := area("dxbar"), area("unified")

	// §III.B prose relations.
	if !(dx > b4) {
		t.Error("DXbar must be larger than Buffered 4")
	}
	if !(dx < b8) {
		t.Error("DXbar must be smaller than Buffered 8")
	}
	if !(un < dx) {
		t.Error("unified must be smaller than DXbar")
	}
	if r := dx / fb; r < 1.28 || r > 1.38 {
		t.Errorf("DXbar/Flit-Bless area ratio = %.3f, want ~1.33", r)
	}
	if r := un / fb; r < 1.20 || r > 1.30 {
		t.Errorf("unified/Flit-Bless area ratio = %.3f, want ~1.25", r)
	}
	if sc < fb {
		t.Error("SCARAB must not be smaller than Flit-Bless (NACK network)")
	}
	// Buffers larger than crossbar.
	if !(FourBuffers4MM2 > Crossbar5x5MM2) {
		t.Error("buffer area must exceed crossbar area")
	}
}

func TestRouterAreaUnknownDesign(t *testing.T) {
	if _, err := RouterArea("bogus"); err == nil {
		t.Error("unknown design must error")
	}
	if _, err := BufferEnergyPerFlit("bogus"); err == nil {
		t.Error("unknown design must error")
	}
}

func TestBufferEnergyPerFlit(t *testing.T) {
	for _, d := range []string{"flitbless", "scarab"} {
		if e, _ := BufferEnergyPerFlit(d); e != 0 {
			t.Errorf("%s buffer energy = %v, want 0", d, e)
		}
	}
	b4, _ := BufferEnergyPerFlit("buffered4")
	b8, _ := BufferEnergyPerFlit("buffered8")
	if !(b8 > b4) {
		t.Error("buffered8 must consume more buffer energy than buffered4")
	}
	dx, _ := BufferEnergyPerFlit("dxbar")
	if dx != b4 {
		t.Error("DXbar has the same buffer organization as buffered4")
	}
}

func TestTable3Complete(t *testing.T) {
	rows := Table3()
	if len(rows) != 6 {
		t.Fatalf("Table III must have 6 rows, got %d", len(rows))
	}
	wantOrder := []string{"flitbless", "scarab", "buffered4", "buffered8", "dxbar", "unified"}
	for i, r := range rows {
		if r.Design != wantOrder[i] {
			t.Errorf("row %d = %s, want %s", i, r.Design, wantOrder[i])
		}
		if r.AreaMM2 <= 0 {
			t.Errorf("row %s has non-positive area", r.Design)
		}
	}
}

func TestTimingUnderClock(t *testing.T) {
	// §III.B: both critical-path values are under the 1 ns clock.
	if LinkTraversalNS >= ClockCycleNS || UnifiedSwitchWorstNS >= ClockCycleNS {
		t.Error("critical paths must fit in the clock cycle")
	}
}
