package stats

import (
	"math"
	"testing"
	"testing/quick"

	"dxbar/internal/energy"
	"dxbar/internal/flit"
)

func TestWindowFiltering(t *testing.T) {
	c := NewCollector(64, 100, 200)
	if c.InWindow(99) || !c.InWindow(100) || !c.InWindow(199) || c.InWindow(200) {
		t.Error("window boundaries wrong")
	}
	c.GeneratedFlits(50, 10) // before window: ignored
	c.GeneratedFlits(150, 5)
	c.EjectedFlit(150)
	c.EjectedFlit(250) // after window: ignored
	r := c.Results()
	if got := r.OfferedLoad; math.Abs(got-5.0/(100*64)) > 1e-12 {
		t.Errorf("offered = %v", got)
	}
	if got := r.AcceptedLoad; math.Abs(got-1.0/(100*64)) > 1e-12 {
		t.Errorf("accepted = %v", got)
	}
}

func TestPacketLatency(t *testing.T) {
	c := NewCollector(64, 0, 1000)
	c.PacketDone(flit.Packet{InjectionCycle: 10, CompletionCycle: 30, Hops: 5})
	c.PacketDone(flit.Packet{InjectionCycle: 20, CompletionCycle: 80, Hops: 7, Deflections: 2, Retransmits: 1})
	r := c.Results()
	if r.Packets != 2 {
		t.Fatalf("packets = %d", r.Packets)
	}
	if r.AvgLatency != 40 {
		t.Errorf("avg latency = %v, want 40", r.AvgLatency)
	}
	if r.MaxLatency != 60 {
		t.Errorf("max latency = %v, want 60", r.MaxLatency)
	}
	if r.AvgHops != 6 || r.DeflectionsPerPacket != 1 || r.RetransmitsPerPacket != 0.5 {
		t.Errorf("per-packet stats wrong: %+v", r)
	}
}

func TestPacketOutsideWindowIgnored(t *testing.T) {
	c := NewCollector(64, 100, 200)
	c.PacketDone(flit.Packet{InjectionCycle: 50, CompletionCycle: 150})
	c.PacketDone(flit.Packet{InjectionCycle: 250, CompletionCycle: 300})
	if r := c.Results(); r.Packets != 0 || r.AvgLatency != 0 {
		t.Errorf("out-of-window packets must be ignored: %+v", r)
	}
}

func TestBufferingProbability(t *testing.T) {
	c := NewCollector(64, 0, 100)
	for i := 0; i < 12; i++ {
		c.RoutedEvent(10)
	}
	c.BufferingEvent(10)
	c.BufferingEvent(10)
	r := c.Results()
	if math.Abs(r.BufferingProbability-2.0/12.0) > 1e-12 {
		t.Errorf("buffering probability = %v, want 1/6", r.BufferingProbability)
	}
}

func TestDroppedFlits(t *testing.T) {
	c := NewCollector(64, 0, 100)
	c.DroppedFlit(5, 7)
	c.DroppedFlit(500, 7) // outside window
	r := c.Results()
	if r.DroppedFlits != 1 {
		t.Errorf("dropped = %d, want 1", r.DroppedFlits)
	}
	if len(r.DroppedByNode) != 64 || r.DroppedByNode[7] != 1 {
		t.Errorf("DroppedByNode = %v, want node 7 -> 1", r.DroppedByNode)
	}
}

func TestDroppedByNodeNilWhenNoDrops(t *testing.T) {
	c := NewCollector(16, 0, 100)
	if r := c.Results(); r.DroppedByNode != nil {
		t.Errorf("DroppedByNode = %v, want nil when nothing dropped", r.DroppedByNode)
	}
}

func TestFairnessFlips(t *testing.T) {
	c := NewCollector(16, 0, 100)
	c.FairnessFlip(5)
	c.FairnessFlip(50)
	c.FairnessFlip(500) // outside window
	if r := c.Results(); r.FairnessFlips != 2 {
		t.Errorf("fairness flips = %d, want 2", r.FairnessFlips)
	}
}

func TestEmptyCollectorSafe(t *testing.T) {
	r := NewCollector(64, 0, 100).Results()
	if r.AvgLatency != 0 || r.BufferingProbability != 0 || r.Packets != 0 {
		t.Error("empty collector must produce zeros")
	}
}

func TestNewCollectorValidation(t *testing.T) {
	for _, bad := range [][3]uint64{{0, 0, 10}, {64, 10, 10}, {64, 20, 10}} {
		func() {
			defer func() { recover() }()
			NewCollector(int(bad[0]), bad[1], bad[2])
			t.Errorf("NewCollector(%v) must panic", bad)
		}()
	}
}

// pkt builds a completed packet with the given injection cycle and latency.
func pkt(injection, latency uint64) flit.Packet {
	return flit.Packet{InjectionCycle: injection, CompletionCycle: injection + latency}
}

// TestEventRecorderWindowing: the microarchitectural event recorders
// (BufferingEvent, RoutedEvent, DroppedFlit and the energy model's
// BufferRead, LinkTraversals and NackHops) count only inside the measurement
// window — the BufferingEvent doc used to claim "any cycle".
func TestEventRecorderWindowing(t *testing.T) {
	c := NewCollector(64, 100, 200)
	for _, cycle := range []uint64{99, 100, 150, 199, 200} { // 3 in-window
		c.BufferingEvent(cycle)
		c.RoutedEvent(cycle)
		c.DroppedFlit(cycle, 0)
		c.BufferRead(cycle)
		c.LinkTraversals(cycle, 2)
		c.NackHops(cycle, 3)
	}
	want := energy.Counts{CrossbarTraversals: 3, LinkTraversals: 6, BufferWrites: 3, BufferReads: 3, NackHops: 9}
	if got := c.EnergyCounts(); got != want {
		t.Errorf("energy counts = %+v, want %+v", got, want)
	}
	if c.n[bufferedSum] != 3 {
		t.Errorf("buffered = %d, want 3 (window [100,200))", c.n[bufferedSum])
	}
	if c.n[routedFlits] != 3 {
		t.Errorf("routed = %d, want 3", c.n[routedFlits])
	}
	r := c.Results()
	if r.DroppedFlits != 3 {
		t.Errorf("dropped = %d, want 3", r.DroppedFlits)
	}
	if r.BufferingProbability != 1.0 {
		t.Errorf("buffering probability = %v, want 1 (3 bufferings / 3 traversals)", r.BufferingProbability)
	}
}

// TestInFlightPackets: packets injected in-window that never complete must
// be reported, not silently dropped from the latency statistics.
func TestInFlightPackets(t *testing.T) {
	c := NewCollector(64, 100, 200)
	c.PacketInjected(50)  // before window: not tracked
	c.PacketInjected(120) // completes below
	c.PacketInjected(130) // still in flight at run end
	c.PacketInjected(140) // still in flight at run end
	c.PacketDone(pkt(120, 30))
	r := c.Results()
	if r.Packets != 1 {
		t.Fatalf("packets = %d, want 1", r.Packets)
	}
	if r.InFlightPackets != 2 {
		t.Errorf("in-flight = %d, want 2", r.InFlightPackets)
	}
}

// TestInFlightPacketsNeverUnderflows: a collector fed completions without
// injection events (unit-test style usage) must report zero, not wrap.
func TestInFlightPacketsNeverUnderflows(t *testing.T) {
	c := NewCollector(64, 0, 100)
	c.PacketDone(pkt(10, 5))
	if r := c.Results(); r.InFlightPackets != 0 {
		t.Errorf("in-flight = %d, want 0", r.InFlightPackets)
	}
}

// Property: average latency is always between min and max of contributed
// latencies, and AcceptedLoad <= OfferedLoad has no meaning here (retries),
// but both are non-negative and finite.
func TestResultsSanityProperty(t *testing.T) {
	f := func(lats []uint16) bool {
		c := NewCollector(4, 0, 1000)
		var min, max uint64 = math.MaxUint64, 0
		for _, l := range lats {
			lat := uint64(l)
			c.PacketDone(flit.Packet{InjectionCycle: 0, CompletionCycle: lat})
			if lat < min {
				min = lat
			}
			if lat > max {
				max = lat
			}
		}
		r := c.Results()
		if len(lats) == 0 {
			return r.AvgLatency == 0
		}
		return r.AvgLatency >= float64(min) && r.AvgLatency <= float64(max) && r.MaxLatency == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Truncate re-normalizes the per-cycle rates by the cycles actually
// simulated — the interrupted-run path, where the configured window never
// completed.
func TestCollectorTruncate(t *testing.T) {
	c := NewCollector(4, 100, 1100) // window of 1000 cycles, 4 nodes
	c.GeneratedFlits(200, 400)
	for i := 0; i < 200; i++ {
		c.EjectedFlit(300)
	}
	full := c.Results()
	if full.OfferedLoad != 0.1 || full.AcceptedLoad != 0.05 {
		t.Fatalf("pre-truncate rates offered=%v accepted=%v, want 0.1/0.05", full.OfferedLoad, full.AcceptedLoad)
	}

	c.Truncate(600) // interrupted halfway: 500 cycles actually measured
	half := c.Results()
	if half.OfferedLoad != 0.2 || half.AcceptedLoad != 0.1 {
		t.Errorf("truncated rates offered=%v accepted=%v, want 0.2/0.1", half.OfferedLoad, half.AcceptedLoad)
	}

	// Truncating past the current end is a no-op; truncating before the
	// window opened clamps to a zero-width window with defined (zero-ish,
	// finite) rates rather than a division blow-up.
	c.Truncate(5000)
	if got := c.Results(); got.OfferedLoad != 0.2 {
		t.Errorf("late Truncate changed rates: %v", got.OfferedLoad)
	}
	c.Truncate(50)
	got := c.Results()
	if math.IsInf(got.OfferedLoad, 0) || math.IsNaN(got.OfferedLoad) {
		t.Errorf("zero-width window produced non-finite rate %v", got.OfferedLoad)
	}
}
