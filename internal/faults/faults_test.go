package faults

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewPlanCount(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		want int
	}{{0, 0}, {0.25, 16}, {0.5, 32}, {0.75, 48}, {1.0, 64}} {
		p, err := NewPlan(64, tc.frac, 100, 42)
		if err != nil {
			t.Fatalf("NewPlan(%v): %v", tc.frac, err)
		}
		if p.Count() != tc.want {
			t.Errorf("fraction %v: count = %d, want %d", tc.frac, p.Count(), tc.want)
		}
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, 0.5, 0, 1); err == nil {
		t.Error("n=0 must fail")
	}
	if _, err := NewPlan(64, -0.1, 0, 1); err == nil {
		t.Error("negative fraction must fail")
	}
	if _, err := NewPlan(64, 1.5, 0, 1); err == nil {
		t.Error("fraction > 1 must fail")
	}
	if _, err := NewPlan(64, math.NaN(), 0, 1); err == nil {
		t.Error("NaN fraction must fail")
	}
}

func TestPlanDeterministic(t *testing.T) {
	a, _ := NewPlan(64, 0.5, 10, 7)
	b, _ := NewPlan(64, 0.5, 10, 7)
	for r := 0; r < 64; r++ {
		fa, oka := a.ForRouter(r)
		fb, okb := b.ForRouter(r)
		if oka != okb || fa != fb {
			t.Fatalf("plans with same seed differ at router %d", r)
		}
	}
}

// Paper methodology: "the same random seed but varying percentages" — the
// smaller plan must be a subset of the larger one.
func TestPlanNesting(t *testing.T) {
	small, _ := NewPlan(64, 0.25, 10, 7)
	large, _ := NewPlan(64, 0.75, 10, 7)
	for r := 0; r < 64; r++ {
		fs, ok := small.ForRouter(r)
		if !ok {
			continue
		}
		fl, ok := large.ForRouter(r)
		if !ok {
			t.Fatalf("router %d faulty at 25%% but not at 75%%", r)
		}
		if fs.Crossbar != fl.Crossbar {
			t.Fatalf("router %d crossbar choice changed between fractions", r)
		}
	}
}

func TestPlanFullCoverage(t *testing.T) {
	p, _ := NewPlan(64, 1.0, 0, 3)
	for r := 0; r < 64; r++ {
		if _, ok := p.ForRouter(r); !ok {
			t.Fatalf("100%% plan must cover every router, missing %d", r)
		}
	}
}

func TestEmptyPlan(t *testing.T) {
	p := Empty()
	if p.Count() != 0 {
		t.Error("empty plan must have no faults")
	}
	if _, ok := p.ForRouter(0); ok {
		t.Error("empty plan must return no fault")
	}
	if p.DetectionDelay != DefaultDetectionDelay {
		t.Error("empty plan must still carry the default detection delay")
	}
}

func TestCrossbarIDString(t *testing.T) {
	if Primary.String() != "primary" || Secondary.String() != "secondary" {
		t.Error("CrossbarID strings wrong")
	}
}

func TestDetectorLifecycle(t *testing.T) {
	d := NewDetector(Fault{Router: 3, Crossbar: Primary, ManifestCycle: 100}, 5, true)
	if d.Manifest(99) || d.Detected(99) {
		t.Error("fault must be latent before manifestation")
	}
	if !d.Manifest(100) || d.Detected(100) {
		t.Error("fault must be manifest-undetected at cycle 100")
	}
	if !d.Manifest(104) || d.Detected(104) {
		t.Error("fault must still be undetected at cycle 104")
	}
	if !d.Detected(105) {
		t.Error("fault must be detected at manifest+delay")
	}
	if !d.Active() || d.Fault().Router != 3 {
		t.Error("accessors wrong")
	}
}

func TestDetectorInactive(t *testing.T) {
	d := NewDetector(Fault{ManifestCycle: 0}, 5, false)
	if d.Manifest(1000) || d.Detected(1000) || d.Active() {
		t.Error("inactive detector must never fire")
	}
}

// Property: detection implies manifestation, and the undetected window is
// exactly `delay` cycles.
func TestDetectorWindowProperty(t *testing.T) {
	f := func(manifest uint32, delay uint8, probe uint32) bool {
		d := NewDetector(Fault{ManifestCycle: uint64(manifest)}, uint64(delay), true)
		c := uint64(probe)
		if d.Detected(c) && !d.Manifest(c) {
			return false
		}
		wantManifest := c >= uint64(manifest)
		wantDetected := c >= uint64(manifest)+uint64(delay)
		return d.Manifest(c) == wantManifest && d.Detected(c) == wantDetected
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrosspointPlan(t *testing.T) {
	p, err := NewCrosspointPlan(64, 0.5, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 32 {
		t.Fatalf("count = %d, want 32", p.Count())
	}
	for r := 0; r < 64; r++ {
		f, ok := p.ForRouter(r)
		if !ok {
			continue
		}
		if f.Granularity != Crosspoint {
			t.Fatal("granularity must be Crosspoint")
		}
		if f.In < 0 || f.In > 3 || f.Out < 0 || f.Out > 4 {
			t.Fatalf("crosspoint (%d,%d) out of range", f.In, f.Out)
		}
		if f.ManifestCycle != 20 {
			t.Fatal("manifest cycle wrong")
		}
	}
}

func TestCrosspointPlanNesting(t *testing.T) {
	small, _ := NewCrosspointPlan(64, 0.25, 0, 7)
	large, _ := NewCrosspointPlan(64, 1.0, 0, 7)
	for r := 0; r < 64; r++ {
		fs, ok := small.ForRouter(r)
		if !ok {
			continue
		}
		fl, ok := large.ForRouter(r)
		if !ok || fs != fl {
			t.Fatalf("crosspoint plans not nested at router %d", r)
		}
	}
}

func TestCrosspointPlanValidation(t *testing.T) {
	if _, err := NewCrosspointPlan(0, 0.5, 0, 1); err == nil {
		t.Error("n=0 must fail")
	}
	if _, err := NewCrosspointPlan(64, 1.5, 0, 1); err == nil {
		t.Error("fraction > 1 must fail")
	}
	if _, err := NewCrosspointPlan(64, math.NaN(), 0, 1); err == nil {
		t.Error("NaN fraction must fail")
	}
}

func TestGranularityString(t *testing.T) {
	if WholeCrossbar.String() != "crossbar" || Crosspoint.String() != "crosspoint" {
		t.Error("granularity names wrong")
	}
}
