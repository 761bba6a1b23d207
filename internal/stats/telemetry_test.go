package stats

import (
	"sort"
	"testing"

	"dxbar/internal/flit"
	"dxbar/internal/metrics"
)

func TestWholeRunTotals(t *testing.T) {
	c := NewCollector(4, 100, 200)
	// Out-of-window activity must still reach the whole-run totals.
	c.GeneratedFlits(5, 3)
	c.EjectedFlit(5)
	c.DroppedFlit(5, 1)
	c.PacketInjected(5)
	c.PacketDone(flit.Packet{InjectionCycle: 5, CompletionCycle: 9})
	// In-window activity reaches both.
	c.GeneratedFlits(150, 2)
	c.EjectedFlit(150)
	c.DroppedFlit(150, 0)

	if got := c.Total("totalGenerated"); got != 5 {
		t.Errorf("TotalGenerated = %d, want 5", got)
	}
	if got := c.TotalEjected(); got != 2 {
		t.Errorf("TotalEjected = %d, want 2", got)
	}
	if got := c.Total("totalDropped"); got != 2 {
		t.Errorf("TotalDropped = %d, want 2", got)
	}
	if got := c.Total("totalPacketsInjected"); got != 1 {
		t.Errorf("TotalPacketsInjected = %d, want 1", got)
	}
	if got := c.Total("totalPacketsDelivered"); got != 1 {
		t.Errorf("TotalPacketsDelivered = %d, want 1", got)
	}
	if r := c.Results(); r.DroppedFlits != 1 {
		t.Errorf("windowed DroppedFlits = %d, want 1 (window gating broken)", r.DroppedFlits)
	}
}

func TestAbsorbRouterPhaseTotalDropped(t *testing.T) {
	c := NewCollector(4, 100, 200)
	s := c.Scratch()
	// A drop outside the window leaves the windowed counter zero — the exact
	// case the absorb early-return used to skip entirely.
	s.DroppedFlit(5, 2)
	c.AbsorbTile(s)
	if got := c.Total("totalDropped"); got != 1 {
		t.Fatalf("TotalDropped after absorb = %d, want 1", got)
	}
	if s.n[totalDropped] != 0 {
		t.Fatal("scratch totalDropped not zeroed by absorb")
	}
}

func TestLatencyBucketUppers(t *testing.T) {
	uppers := LatencyBucketUppers()
	if len(uppers) != histBuckets {
		t.Fatalf("len = %d, want %d", len(uppers), histBuckets)
	}
	if !sort.Float64sAreSorted(uppers) {
		t.Fatal("bucket uppers not ascending")
	}
	if uppers[0] != 0 || uppers[histSubCount-1] != histSubCount-1 {
		t.Fatal("unit buckets must be exact")
	}
}

func TestPublishLatency(t *testing.T) {
	c := NewCollector(4, 0, 1000)
	c.PacketDone(flit.Packet{InjectionCycle: 10, CompletionCycle: 30}) // lat 20
	c.PacketDone(flit.Packet{InjectionCycle: 10, CompletionCycle: 15}) // lat 5

	h := metrics.NewHistogram(LatencyBucketUppers())
	c.PublishLatency(h)

	allocs := testing.AllocsPerRun(100, func() { c.PublishLatency(h) })
	if allocs != 0 {
		t.Errorf("PublishLatency allocates %.1f per call, want 0", allocs)
	}
}
