package dxbar

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dxbar/internal/diag"
	"dxbar/internal/metrics"
)

// bundleFileSet is the complete post-mortem bundle: what every dump — anomaly,
// signal, interrupt — must contain. The golden list the smoke script and the
// forced-anomaly test both assert.
var bundleFileSet = []string{
	"anomalies.json", "config.json", "goroutines.txt", "latency.json",
	"manifest.json", "metrics.prom", "run.json", "shards.json", "trace.json",
}

// findBundle returns the single bundle directory under dir and its parsed
// manifest.
func findBundle(t *testing.T, dir string) (string, map[string]any) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected exactly one bundle under %s, found %d", dir, len(entries))
	}
	bdir := filepath.Join(dir, entries[0].Name())
	return bdir, readManifest(t, bdir)
}

// readManifest parses a bundle directory's manifest.json.
func readManifest(t *testing.T, bdir string) map[string]any {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(bdir, "manifest.json"))
	if err != nil {
		t.Fatalf("bundle incomplete (no manifest): %v", err)
	}
	var manifest map[string]any
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatalf("manifest.json invalid: %v", err)
	}
	return manifest
}

// assertBundleComplete checks the bundle holds exactly the golden file set and
// that the manifest indexes every file except itself.
func assertBundleComplete(t *testing.T, bdir string, manifest map[string]any) {
	t.Helper()
	entries, err := os.ReadDir(bdir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, bundleFileSet) {
		t.Errorf("bundle files %v, want %v", got, bundleFileSet)
	}
	files, _ := manifest["files"].([]any)
	if len(files) != len(bundleFileSet)-1 {
		t.Errorf("manifest indexes %d files, want %d (everything but itself)", len(files), len(bundleFileSet)-1)
	}
}

// TestDiagForcedStarvation drives the network far past saturation with a low
// age watermark: the starvation detector must fire, count in
// dxbar_anomaly_total, surface in the Result, and leave one complete
// post-mortem bundle behind.
func TestDiagForcedStarvation(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	res := run(t, Config{
		Design: DesignDXbar, Routing: "DOR", Pattern: "UR",
		Load:         0.95, // far past saturation: the injection backlog ages fast
		WarmupCycles: 200, MeasureCycles: 3000, Seed: 42,
		Metrics: reg,
		DiagDir: dir,
		Diag: &diag.Config{
			MaxFlitAge: 500,
			Window:     128,
			// Keep the stall watchdog out of the picture so the first
			// anomaly — the one that auto-dumps — is deterministic.
			StallCycles: 1 << 40,
			Registry:    reg,
		},
	})

	if len(res.Anomalies) == 0 {
		t.Fatal("no anomalies on a saturated run with a 500-cycle age watermark")
	}
	for _, a := range res.Anomalies {
		if a.Kind != diag.KindStarvation {
			t.Errorf("unexpected anomaly kind %s (the stall watchdog is off and a DXbar run stays under the default storm floor)", a.Kind)
		}
	}
	first := res.Anomalies[0]
	if first.Value < 500 || first.Node < 0 {
		t.Errorf("starvation record %+v lacks the offending age/node", first)
	}

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), diag.MetricAnomalies+`{kind="starvation"}`) {
		t.Errorf("registry missing the starvation anomaly counter:\n%s", prom.String())
	}

	if !strings.Contains(AnomaliesText(res), "starvation") {
		t.Errorf("AnomaliesText does not mention the starvation:\n%s", AnomaliesText(res))
	}

	bdir, manifest := findBundle(t, dir)
	if reason := manifest["reason"]; reason != "anomaly-starvation" {
		t.Errorf("bundle reason %v, want anomaly-starvation", reason)
	}
	assertBundleComplete(t, bdir, manifest)

	// The bundle's anomaly record matches the run's first firing.
	raw, err := os.ReadFile(filepath.Join(bdir, "anomalies.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Anomalies []diag.Anomaly `json:"anomalies"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Anomalies) == 0 || rec.Anomalies[0] != first {
		t.Errorf("bundle anomalies %+v do not start with the run's first anomaly %+v", rec.Anomalies, first)
	}
}

// TestDiagSignalDump is the in-process SIGQUIT path: a pending dump request
// is consumed at the next detector-window boundary, writing a complete bundle
// without disturbing the run.
func TestDiagSignalDump(t *testing.T) {
	dir := t.TempDir()
	diag.RequestDump()
	res := run(t, Config{
		Design: DesignDXbar, Routing: "DOR", Pattern: "UR", Load: 0.3,
		WarmupCycles: 200, MeasureCycles: 800, Seed: 42,
		DiagDir: dir,
		// The run is shorter than the default 1024-cycle window; shrink it so
		// a boundary (the sequential point that consumes dump requests) falls
		// inside the run.
		Diag: &diag.Config{Window: 128},
	})
	if res.Interrupted {
		t.Error("a dump request must not interrupt the run")
	}
	if res.Packets == 0 {
		t.Error("run delivered nothing")
	}
	bdir, manifest := findBundle(t, dir)
	if reason := manifest["reason"]; reason != "signal" {
		t.Errorf("bundle reason %v, want signal", reason)
	}
	assertBundleComplete(t, bdir, manifest)
}

// TestDiagInterrupt is the graceful-shutdown path: with the process-wide
// interrupt flag raised, Run stops at a cycle boundary, reports partial
// results with Interrupted set, and leaves an interrupt bundle.
func TestDiagInterrupt(t *testing.T) {
	t.Cleanup(diag.ClearInterrupt)
	dir := t.TempDir()
	diag.Interrupt()
	res := run(t, Config{
		Design: DesignDXbar, Routing: "DOR", Pattern: "UR", Load: 0.3,
		WarmupCycles: 200, MeasureCycles: 1 << 40, // would run ~forever without the interrupt
		Seed:    42,
		DiagDir: dir,
	})
	if !res.Interrupted {
		t.Fatal("Result.Interrupted not set on an interrupted run")
	}
	bdir, manifest := findBundle(t, dir)
	if reason := manifest["reason"]; reason != "interrupt" {
		t.Errorf("bundle reason %v, want interrupt", reason)
	}
	assertBundleComplete(t, bdir, manifest)
}

// TestDiagFaultLatency: a fault-injection run (the Fig. 11/12 setup) must
// close manifest->detected windows into the latency histogram, on both
// engines — the hooks are called from shard workers on the sharded one.
func TestDiagFaultLatency(t *testing.T) {
	for _, shards := range []int{0, 2} {
		reg := metrics.NewRegistry()
		run(t, Config{
			Design: DesignDXbar, Routing: "WF", Pattern: "UR", Load: 0.3,
			WarmupCycles: 200, MeasureCycles: 1500, Seed: 42,
			FaultFraction: 0.5, FaultGranularity: "crossbar",
			Shards:  shards,
			Metrics: reg,
			Diag:    &diag.Config{Registry: reg, Window: 128},
		})
		var prom strings.Builder
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(prom.String(), diag.MetricFaultDetectLatency+"_count") {
			t.Errorf("shards %d: fault-latency histogram missing:\n%s", shards, prom.String())
			continue
		}
		for _, line := range strings.Split(prom.String(), "\n") {
			if strings.HasPrefix(line, diag.MetricFaultDetectLatency+"_count ") &&
				strings.HasSuffix(line, " 0") {
				t.Errorf("shards %d: no fault detection latencies recorded on a half-faulty mesh: %s", shards, line)
			}
		}
	}
}

// TestDiagDefaultsRouting: the diagnostics a sweep's options carry — detector
// config and bundle directory — reach every run of the batch, whose Configs
// carry no diagnostics knobs of their own (the dxbar-sweep path), and a run's
// own DisableDiag still wins over them.
func TestDiagDefaultsRouting(t *testing.T) {
	dir := t.TempDir()
	opts := SweepOptions{
		Diag: &diag.Config{
			MaxFlitAge: 500, Window: 128,
			StallCycles: 1 << 40,
		},
		DiagDir: dir,
	}
	saturated := Config{
		Design: DesignDXbar, Routing: "DOR", Pattern: "UR",
		Load: 0.95, WarmupCycles: 200, MeasureCycles: 3000, Seed: 42,
	}
	other, off := saturated, saturated
	other.Seed = 43
	off.DisableDiag = true
	res, err := opts.runMany([]Config{saturated, other, off})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Anomalies) == 0 || len(res[1].Anomalies) == 0 {
		t.Fatal("the options' detector config did not reach every run")
	}
	if len(res[2].Anomalies) != 0 {
		t.Error("DisableDiag run still recorded anomalies")
	}
	// One auto-dumped bundle per monitored run, none for the disabled one.
	bundles, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Fatalf("%d bundles under the options' DiagDir, want 2", len(bundles))
	}
	for _, b := range bundles {
		bdir := filepath.Join(dir, b.Name())
		assertBundleComplete(t, bdir, readManifest(t, bdir))
	}
}
