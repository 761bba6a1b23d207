package stats

import (
	"dxbar/internal/metrics"
	"testing"
)

func TestTimeSeriesDisabledByDefault(t *testing.T) {
	c := NewCollector(4, 0, 100)
	if c.SampleDue(0) || c.SampleDue(99) || c.Samples() != nil || c.SampleInterval() != 0 {
		t.Error("sampling must be off until enabled")
	}
	c.RecordSample(10, metrics.SimGauges{}) // must be a no-op
	if c.Samples() != nil {
		t.Error("RecordSample without enabling must not record")
	}
}

func TestTimeSeriesSamplesFlowDeltas(t *testing.T) {
	c := NewCollector(4, 50, 150) // window does not cover the whole run
	c.EnableTimeSeries(10, 64)
	if c.SampleInterval() != 10 {
		t.Fatalf("interval = %d", c.SampleInterval())
	}
	for cycle := uint64(0); cycle < 30; cycle++ {
		c.GeneratedFlits(cycle, 2)
		if cycle%2 == 0 {
			c.EjectedFlit(cycle)
		}
		if c.SampleDue(cycle) {
			c.RecordSample(cycle, metrics.SimGauges{InFlightFlits: int(cycle), QueuedFlits: 1, BufferedFlits: 3})
		}
	}
	s := c.Samples()
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3", len(s))
	}
	// Samples land at the end of each interval: cycles 9, 19, 29. The flow
	// deltas must be unwindowed (the collector window starts at 50).
	for i, want := range []uint64{9, 19, 29} {
		if s[i].Cycle != want {
			t.Errorf("sample %d at cycle %d, want %d", i, s[i].Cycle, want)
		}
		if s[i].InjectedFlits != 20 {
			t.Errorf("sample %d injected = %d, want 20 (deltas must ignore the window)", i, s[i].InjectedFlits)
		}
		if s[i].EjectedFlits != 5 {
			t.Errorf("sample %d ejected = %d, want 5", i, s[i].EjectedFlits)
		}
		if s[i].QueuedFlits != 1 || s[i].BufferedFlits != 3 {
			t.Errorf("sample %d gauges = %+v", i, s[i])
		}
	}
	if s[2].InFlightFlits != 29 {
		t.Errorf("gauge passthrough wrong: %+v", s[2])
	}
}

// TestTimeSeriesRingOverwritesOldest: a full ring keeps the most recent
// samples and stays at its preallocated capacity.
func TestTimeSeriesRingOverwritesOldest(t *testing.T) {
	c := NewCollector(4, 0, 1000)
	c.EnableTimeSeries(1, 4)
	for cycle := uint64(0); cycle < 10; cycle++ {
		if !c.SampleDue(cycle) {
			t.Fatalf("interval-1 sampling must be due every cycle (cycle %d)", cycle)
		}
		c.RecordSample(cycle, metrics.SimGauges{})
	}
	s := c.Samples()
	if len(s) != 4 {
		t.Fatalf("got %d samples, want capacity 4", len(s))
	}
	for i, want := range []uint64{6, 7, 8, 9} {
		if s[i].Cycle != want {
			t.Errorf("sample %d at cycle %d, want %d (oldest must be overwritten)", i, s[i].Cycle, want)
		}
	}
}

func TestTimeSeriesRecordSampleDoesNotAllocate(t *testing.T) {
	c := NewCollector(4, 0, 1<<30)
	c.EnableTimeSeries(1, 8)
	cycle := uint64(0)
	avg := testing.AllocsPerRun(100, func() {
		c.GeneratedFlits(cycle, 1)
		c.EjectedFlit(cycle)
		c.RecordSample(cycle, metrics.SimGauges{InFlightFlits: 1})
		cycle++
	})
	if avg != 0 {
		t.Errorf("RecordSample allocates %.2f per sample, want 0", avg)
	}
}

func TestEnableTimeSeriesValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 8}, {10, 0}, {10, -1}} {
		func() {
			defer func() { recover() }()
			NewCollector(4, 0, 100).EnableTimeSeries(uint64(bad[0]), bad[1])
			t.Errorf("EnableTimeSeries(%d, %d) must panic", bad[0], bad[1])
		}()
	}
}
