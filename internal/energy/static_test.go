package energy

import (
	"math"
	"testing"
)

func TestRouterStaticOrdering(t *testing.T) {
	get := func(d string) float64 {
		v, err := RouterStaticPJPerCycle(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		return v
	}
	fb, b4, b8, dx := get("flitbless"), get("buffered4"), get("buffered8"), get("dxbar")
	if !(fb < b4 && b4 < b8) {
		t.Errorf("leakage ordering wrong: flitbless %.2f, buffered4 %.2f, buffered8 %.2f", fb, b4, b8)
	}
	if !(dx > b4) {
		t.Errorf("DXbar (extra crossbar) must leak more than buffered4: %.2f vs %.2f", dx, b4)
	}
	if _, err := RouterStaticPJPerCycle("bogus"); err == nil {
		t.Error("unknown design must error")
	}
}

func TestBufferStaticZeroForBufferless(t *testing.T) {
	for _, d := range []string{"flitbless", "scarab"} {
		v, err := BufferStaticPJPerCycle(d)
		if err != nil || v != 0 {
			t.Errorf("%s buffer leakage = %v, %v; want 0", d, v, err)
		}
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	c := Counts{
		CrossbarTraversals: 1000,
		LinkTraversals:     1000,
		BufferWrites:       1000,
		BufferReads:        1000,
	}
	b, err := Breakdown("buffered4", c, 1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.TotalMW-(b.BufferDynamicMW+b.BufferStaticMW+b.OtherDynamicMW+b.OtherStaticMW)) > 1e-9 {
		t.Error("breakdown parts must sum to total")
	}
	// 1000 writes+reads over 1000 cycles: buffer dynamic = 25 mW.
	if math.Abs(b.BufferDynamicMW-25) > 1e-9 {
		t.Errorf("buffer dynamic = %v mW, want 25", b.BufferDynamicMW)
	}
	// 16 slots × 0.8 pJ/cycle × 64 nodes = 819.2 mW.
	if math.Abs(b.BufferStaticMW-16*BufferSlotLeakPJPerCycle*64) > 1e-9 {
		t.Errorf("buffer static = %v mW", b.BufferStaticMW)
	}
	if b.BufferShareOfTot <= 0 || b.BufferShareOfTot >= 1 {
		t.Errorf("buffer share = %v out of (0,1)", b.BufferShareOfTot)
	}
}

func TestBreakdownValidation(t *testing.T) {
	if _, err := Breakdown("buffered4", Counts{}, 0, 64); err == nil {
		t.Error("zero cycles must error")
	}
	if _, err := Breakdown("bogus", Counts{}, 10, 64); err == nil {
		t.Error("unknown design must error")
	}
}

// The §I motivation: at a typical operating point the buffers of a generic
// buffered router account for ~40% of total power. The model constants are
// calibrated to land there; this test pins the calibration using a typical
// event mix (per node per cycle at UR load 0.3: ~1.6 flit-hops, each with a
// buffer write+read, crossbar and link traversal).
func TestBufferPowerShareMatchesMotivation(t *testing.T) {
	const nodes, cycles = 64, 10000
	perNodePerCycle := 1.6
	events := uint64(perNodePerCycle * nodes * cycles)
	c := Counts{
		CrossbarTraversals: events,
		LinkTraversals:     events,
		BufferWrites:       events,
		BufferReads:        events,
	}
	b, err := Breakdown("buffered4", c, cycles, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if b.BufferShareOfTot < 0.33 || b.BufferShareOfTot > 0.47 {
		t.Errorf("buffer share of total power = %.1f%%, want ~40%% (paper §I)",
			b.BufferShareOfTot*100)
	}
}
