package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the exact exposition bytes for a registry
// exercising every metric kind, labels, and the histogram's cumulative-bucket
// rendering. Run with -update to regenerate after an intentional format
// change.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dxbar_cycles_total", "Simulated cycles.")
	c.Add(12345)
	fc0 := r.FloatCounter("dxbar_shard_router_phase_seconds_total",
		"Cumulative router-phase execution time per shard.",
		Label{Key: "shard", Value: "0"})
	fc1 := r.FloatCounter("dxbar_shard_router_phase_seconds_total",
		"Cumulative router-phase execution time per shard.",
		Label{Key: "shard", Value: "1"})
	fc0.Add(1.5)
	fc1.Add(0.25)
	g := r.Gauge("dxbar_in_flight_flits", "Live flits anywhere in the network.")
	g.Set(-3) // gauges may legitimately transit below zero mid-detach
	fg := r.FloatGauge("dxbar_shard_imbalance_ratio", "Max/mean shard busy time.")
	fg.Set(1.0625)
	h := r.Histogram("dxbar_packet_latency_cycles", "Packet latency in cycles.",
		[]float64{8, 16, 32, 64})
	h.Update([]uint64{2, 0, 5, 1}, 8, 333)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1.5: "1.5",
		0:   "0",
		1e9: "1e+09",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
