package dxbar

import (
	"os"
	"regexp"
	"testing"

	"dxbar/internal/diag"
	"dxbar/internal/metrics"
	"dxbar/internal/stats"
)

// TestMetricsDocumented keeps METRICS.md and the registry in lockstep: every
// metric family a fully-instrumented run registers must have a doc entry, and
// every documented dxbar_* name must still be registered. Adding a metric
// without documenting it (or documenting a ghost) fails here.
func TestMetricsDocumented(t *testing.T) {
	// Register everything an instrumented run can: full engine telemetry with
	// the sharded series and the latency histogram, plus the run-health
	// monitor.
	reg := metrics.NewRegistry()
	tel := metrics.NewSimTelemetry(reg, metrics.SimTelemetryOptions{
		Shards:        2,
		LatencyBounds: stats.LatencyBucketUppers(),
	})
	defer tel.Detach()
	mon := diag.NewMonitor(diag.Config{Registry: reg}, 64)
	defer mon.Detach()
	// The run-ledger counters.
	ledgerMetrics(reg)

	registered := map[string]bool{}
	for _, f := range reg.Families() {
		registered[f.Name] = true
	}
	if len(registered) == 0 {
		t.Fatal("no metric families registered")
	}

	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatalf("METRICS.md missing: %v", err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`(dxbar_[a-z0-9_]+)`").FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}

	for name := range registered {
		if !documented[name] {
			t.Errorf("metric %s is registered but undocumented — add it to METRICS.md", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("METRICS.md documents %s, which no instrumented run registers — remove or fix it", name)
		}
	}
}
