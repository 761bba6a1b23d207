package metrics

import (
	"strings"
	"testing"
	"time"
)

// noTotals is the read function of an engine that has counted nothing.
func noTotals(string) uint64 { return 0 }

func TestSimTelemetryNil(t *testing.T) {
	var st *SimTelemetry
	st.OnPublish(1, noTotals, SimGauges{}, nil, nil)
	st.Detach()
	if st.PublishDue(0) {
		t.Fatal("nil telemetry must never be due")
	}
	if st.Latency() != nil {
		t.Fatal("nil telemetry must have nil latency histogram")
	}
}

// TestSimTelemetryCounterDeltas drives every row of the counter table the way
// an engine does: the row's running total moves every cycle, the series moves
// only when a publish is due (once per interval, by the delta since the last
// one), a final publish — the engine's FlushTelemetry — makes it exact, and a
// second engine over the same registry aggregates instead of overwriting.
func TestSimTelemetryCounterDeltas(t *testing.T) {
	seen := map[string]bool{}
	for i, row := range simCounters {
		if row.name == "" || row.help == "" || row.source == "" || seen[row.name] || seen[row.source] {
			t.Fatalf("row %d (%+v): name, help and source must be set and unique", i, row)
		}
		seen[row.name], seen[row.source] = true, true
		t.Run(row.name, func(t *testing.T) {
			r := NewRegistry()
			st := NewSimTelemetry(r, SimTelemetryOptions{})
			var running uint64 // this row's total; every other source reads 0
			read := func(source string) uint64 {
				if source == row.source {
					return running
				}
				return 0
			}
			series := r.Counter(row.name, "")
			publishes := 0
			for c := uint64(0); c < 150; c++ {
				running += 3
				if !st.PublishDue(c) {
					continue
				}
				st.OnPublish(c, read, SimGauges{}, nil, nil)
				publishes++
				if got := series.Value(); got != running {
					t.Fatalf("cycle %d: series = %d right after a publish, want the total %d", c, got, running)
				}
			}
			if publishes != 2 { // cycles 63 and 127
				t.Fatalf("%d publishes in 150 cycles at interval 64, want 2", publishes)
			}
			if got := series.Value(); got != 384 {
				t.Fatalf("series = %d between publishes, want 384 (the total at cycle 127)", got)
			}
			st.OnPublish(150, read, SimGauges{}, nil, nil) // the flush
			if got := series.Value(); got != running {
				t.Fatalf("series = %d after the flush, want exactly %d", got, running)
			}
			st2 := NewSimTelemetry(r, SimTelemetryOptions{})
			st2.OnPublish(63, func(string) uint64 { return 10 }, SimGauges{}, nil, nil)
			if got := series.Value(); got != running+10 {
				t.Fatalf("series = %d with a second engine, want %d", got, running+10)
			}
		})
	}
}

func TestSimTelemetryPublishInterval(t *testing.T) {
	const n = DefaultPublishInterval
	st := NewSimTelemetry(NewRegistry(), SimTelemetryOptions{})
	if st.PublishDue(0) || st.PublishDue(n-2) {
		t.Fatalf("cycles 0 and %d must not be due with interval %d", n-2, n)
	}
	if !st.PublishDue(n - 1) {
		t.Fatalf("cycle %d must be due with interval %d", n-1, n)
	}
	st.OnPublish(n-1, noTotals, SimGauges{}, nil, nil)
	if st.PublishDue(n) {
		t.Fatalf("cycle %d must not be due right after a publish at %d", n, n-1)
	}
	if !st.PublishDue(2*n - 1) {
		t.Fatalf("cycle %d must be due", 2*n-1)
	}
}

func TestSimTelemetryGaugesAndDetach(t *testing.T) {
	r := NewRegistry()
	st := NewSimTelemetry(r, SimTelemetryOptions{})
	st.OnPublish(63, noTotals, SimGauges{InFlightFlits: 5, QueuedFlits: 3, BufferedFlits: 2}, nil, nil)

	inFlight := r.Gauge(MetricInFlight, "")
	if got := inFlight.Value(); got != 5 {
		t.Fatalf("in-flight gauge = %d, want 5", got)
	}
	// Second engine contributes additively.
	st2 := NewSimTelemetry(r, SimTelemetryOptions{})
	st2.OnPublish(63, noTotals, SimGauges{InFlightFlits: 2}, nil, nil)
	if got := inFlight.Value(); got != 7 {
		t.Fatalf("in-flight gauge after second engine = %d, want 7", got)
	}
	// Detach removes only this engine's residual contribution.
	st.Detach()
	if got := inFlight.Value(); got != 2 {
		t.Fatalf("in-flight gauge after detach = %d, want 2", got)
	}
	st2.Detach()
	if got := inFlight.Value(); got != 0 {
		t.Fatalf("in-flight gauge after both detach = %d, want 0", got)
	}
}

func TestSimTelemetryShardSeries(t *testing.T) {
	r := NewRegistry()
	st := NewSimTelemetry(r, SimTelemetryOptions{Shards: 2})
	busy := []time.Duration{3 * time.Second, time.Second}
	wait := []time.Duration{0, 2 * time.Second}
	st.OnPublish(63, noTotals, SimGauges{}, busy, wait)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		MetricShardBusy + `{shard="0"} 3`,
		MetricShardBusy + `{shard="1"} 1`,
		MetricShardWait + `{shard="1"} 2`,
		// max/mean = 3 / ((3+1)/2) = 1.5
		MetricShardImbalance + " 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Cumulative inputs must publish as deltas: doubling busy time adds the
	// difference, not the new total.
	busy[0], busy[1] = 6*time.Second, 2*time.Second
	st.OnPublish(127, noTotals, SimGauges{}, busy, wait)
	fc := r.FloatCounter(MetricShardBusy, "", Label{Key: "shard", Value: "0"})
	if got := fc.Value(); got != 6 {
		t.Fatalf("shard 0 busy counter = %v, want 6", got)
	}
}

func TestSimTelemetryProgress(t *testing.T) {
	p := NewProgress("cycles", 100)
	st := NewSimTelemetry(nil, SimTelemetryOptions{Progress: p})
	st.OnPublish(41, func(source string) uint64 {
		if source == simCounters[0].source {
			return 42
		}
		return 0
	}, SimGauges{}, nil, nil)
	if got := p.Snapshot().Done; got != 42 {
		t.Fatalf("progress done = %d, want 42", got)
	}
}

func TestSimTelemetryLatencyRegistered(t *testing.T) {
	r := NewRegistry()
	st := NewSimTelemetry(r, SimTelemetryOptions{LatencyBounds: []float64{1, 2, 4}})
	if st.Latency() == nil {
		t.Fatal("latency histogram not registered despite bounds")
	}
	st.Latency().Update([]uint64{1, 1, 0}, 2, 3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), MetricLatency+`_count 2`) {
		t.Fatalf("latency histogram missing from exposition:\n%s", sb.String())
	}
}
