package dxbar

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dxbar/internal/diag"
	"dxbar/internal/metrics"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
)

// steadyTelemeteredNetwork is steadyShardedNetwork with a full live-metrics
// attachment (counters, gauges, latency histogram, per-shard profile series),
// for the telemetry allocation and race guards.
func steadyTelemeteredNetwork(t *testing.T, shards int) (*Network, *metrics.Registry) {
	t.Helper()
	mesh := topology.MustMesh(8, 8)
	coll := stats.NewCollector(mesh.Nodes(), 0, 1<<40)
	coll.EnableTimeSeries(64, 32)
	reg := metrics.NewRegistry()
	tel := metrics.NewSimTelemetry(reg, metrics.SimTelemetryOptions{
		Shards:        sim.ResolveShards(shards, mesh.Width, mesh.Height),
		LatencyBounds: stats.LatencyBucketUppers(),
		Progress:      metrics.NewProgress("cycles", 0),
	})
	net, err := NewNetwork(NetworkOptions{
		Design:    DesignDXbar,
		Mesh:      mesh,
		Source:    bernoulliSource(t, mesh, "UR", 0.3, 1, 42),
		Stats:     coll,
		Shards:    shards,
		Telemetry: tel,
		// Run-health detectors publish into the same registry; the zero-alloc
		// and scrape-race guards must hold with them attached (short window so
		// the windowed leg runs during the measured cycles).
		Diag: diag.NewMonitor(diag.Config{Window: 64, Registry: reg}, mesh.Nodes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, reg
}

// TestStepZeroAllocTelemetry extends the zero-allocation guard to a fully
// telemetered engine: the per-cycle counter publication and the periodic
// gauge/histogram publish must both reuse capacity once warm.
func TestStepZeroAllocTelemetry(t *testing.T) {
	net, _ := steadyTelemeteredNetwork(t, 0)
	net.Engine.Run(3000)
	avg := testing.AllocsPerRun(5, func() { net.Engine.Run(200) })
	if avg != 0 {
		t.Errorf("%.2f allocations per 200-cycle telemetered run in steady state, want 0", avg)
	}
}

// TestStepZeroAllocObserved is the guard with the full observability stack
// attached: the ledger counter families registered on the same registry and
// the /live endpoint read through metrics.Handler before and after the
// counted window. The reads stay outside the window because
// testing.AllocsPerRun counts the whole process's mallocs, and a read's JSON
// encode would land in it; a read concurrent with a run is
// TestShardMetricsScrapeRace's. The engine's cycle loop must stay
// allocation-free, and the second read must see the cycles advance.
func TestStepZeroAllocObserved(t *testing.T) {
	net, reg := steadyTelemeteredNetwork(t, 0)
	records, hits := ledgerMetrics(reg)
	records.Add(1)
	hits.Add(1)
	live := metrics.Handler(reg, nil)
	readLive := func() metrics.LiveFrame {
		t.Helper()
		rec := httptest.NewRecorder()
		live.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/live", nil))
		var f metrics.LiveFrame
		if err := json.Unmarshal(rec.Body.Bytes(), &f); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("GET /live = %d, %v: %s", rec.Code, err, rec.Body)
		}
		return f
	}

	net.Engine.Run(3000)
	before := readLive()
	avg := testing.AllocsPerRun(5, func() { net.Engine.Run(200) })
	if avg != 0 {
		t.Errorf("%.2f allocations per 200-cycle observed run in steady state, want 0", avg)
	}
	if after := readLive(); after.Cycles <= before.Cycles || after.LedgerRecords != 1 {
		t.Errorf("/live read %d cycles (%d ledger records) after the window, %d before; want more cycles and 1 record",
			after.Cycles, after.LedgerRecords, before.Cycles)
	}
}

// TestShardZeroAllocTelemetry is the same guard on the sharded engine, where
// publication additionally reads the per-shard execution profile.
func TestShardZeroAllocTelemetry(t *testing.T) {
	net, _ := steadyTelemeteredNetwork(t, 4)
	net.Engine.Run(3000)
	avg := testing.AllocsPerRun(5, func() { net.Engine.Run(200) })
	if avg != 0 {
		t.Errorf("%.2f allocations per 200-cycle telemetered sharded run in steady state, want 0", avg)
	}
}

// TestShardMetricsScrapeRace scrapes the registry continuously while the
// sharded engine runs on another goroutine — the race-detector guard for the
// /metrics and /live read paths (atomics and the histogram mutex only, never
// engine state). The name keeps it inside the Makefile's test-race matcher.
func TestShardMetricsScrapeRace(t *testing.T) {
	net, reg := steadyTelemeteredNetwork(t, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		net.Engine.Run(4000)
	}()
	scrapes := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			time.Sleep(time.Millisecond)
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(io.Discard, b.String()); err != nil {
			t.Fatal(err)
		}
		metrics.ReadLive(reg, nil)
		scrapes++
	}
	if scrapes < 2 {
		t.Errorf("only %d scrapes completed, want at least one mid-run", scrapes)
	}
	// Engine.Run publishes every DefaultPublishInterval cycles, so the frame
	// trails the run by less than one interval.
	if f := metrics.ReadLive(reg, nil); f.Cycles+metrics.DefaultPublishInterval <= 4000 || f.Cycles > 4000 {
		t.Errorf("/live frame after the run reads %d cycles, want within %d of 4000",
			f.Cycles, metrics.DefaultPublishInterval)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		metrics.MetricCycles,
		metrics.MetricShardWait,
		metrics.MetricShardImbalance,
	} {
		if !strings.Contains(b.String(), series) {
			t.Errorf("final exposition is missing %s", series)
		}
	}
}
