package diag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dxbar/internal/metrics"
)

// TestStallWatchdog: the progress watchdog fires when no flit has been
// ejected for StallCycles while flits are in flight, re-arms so a persistent
// stall fires once per threshold interval, and any ejection resets it.
func TestStallWatchdog(t *testing.T) {
	m := NewMonitor(Config{StallCycles: 100}, 4)
	for c := uint64(0); c < 99; c++ {
		m.ObserveCycle(c, 0, 1)
	}
	if got := m.AnomalyCount(KindStall); got != 0 {
		t.Fatalf("fired %d stall anomalies below the threshold", got)
	}
	m.ObserveCycle(100, 0, 1)
	if got := m.AnomalyCount(KindStall); got != 1 {
		t.Fatalf("stall anomalies at threshold = %d, want 1", got)
	}
	// Persistent stall: one more firing per full interval, not per cycle.
	for c := uint64(101); c <= 200; c++ {
		m.ObserveCycle(c, 0, 1)
	}
	if got := m.AnomalyCount(KindStall); got != 2 {
		t.Fatalf("stall anomalies after re-arm interval = %d, want 2", got)
	}
	rec := m.Anomalies()
	if len(rec) != 2 || rec[0].Kind != KindStall || rec[0].Cycle != 100 || rec[0].Value != 100 {
		t.Fatalf("unexpected stall records %+v", rec)
	}

	// An ejection resets the watchdog.
	m2 := NewMonitor(Config{StallCycles: 100}, 4)
	for c := uint64(0); c < 1000; c++ {
		m2.ObserveCycle(c, c/50, 1) // ejections every 50 cycles
	}
	if got := m2.AnomalyCount(KindStall); got != 0 {
		t.Fatalf("watchdog fired %d times despite steady ejections", got)
	}

	// No flits in flight (drained network) is not a stall.
	m3 := NewMonitor(Config{StallCycles: 100}, 4)
	for c := uint64(0); c < 1000; c++ {
		m3.ObserveCycle(c, 0, 0)
	}
	if got := m3.AnomalyCount(KindStall); got != 0 {
		t.Fatalf("watchdog fired %d times on an idle network", got)
	}
}

// TestStarvationWatermark: the flit-age detector fires when the oldest
// engine-visible flit crosses MaxFlitAge, at most once per stuck packet.
func TestStarvationWatermark(t *testing.T) {
	m := NewMonitor(Config{Window: 64, MaxFlitAge: 500}, 4)
	m.ObserveWindow(WindowSample{Cycle: 63, OldestAge: 499, OldestPacket: 7, OldestNode: 2})
	if got := m.AnomalyCount(KindStarvation); got != 0 {
		t.Fatalf("starvation fired below the watermark (%d)", got)
	}
	m.ObserveWindow(WindowSample{Cycle: 127, OldestAge: 500, OldestPacket: 7, OldestFlit: 3, OldestNode: 2})
	if got := m.AnomalyCount(KindStarvation); got != 1 {
		t.Fatalf("starvation at the watermark = %d, want 1", got)
	}
	// Same stuck packet again: rate-limited, no second alarm.
	m.ObserveWindow(WindowSample{Cycle: 191, OldestAge: 564, OldestPacket: 7, OldestNode: 2})
	if got := m.AnomalyCount(KindStarvation); got != 1 {
		t.Fatalf("starvation re-fired for the same packet (%d)", got)
	}
	// A different starving packet is a new alarm.
	m.ObserveWindow(WindowSample{Cycle: 255, OldestAge: 600, OldestPacket: 9, OldestNode: 1})
	if got := m.AnomalyCount(KindStarvation); got != 2 {
		t.Fatalf("starvation for a second packet = %d, want 2", got)
	}

	a := m.Anomalies()[0]
	if a.Node != 2 || a.PacketID != 7 || a.FlitID != 3 || a.Value != 500 {
		t.Fatalf("starvation record %+v missing the offending flit identity", a)
	}
	if m.MaxFlitAge() != 600 {
		t.Fatalf("MaxFlitAge = %d, want 600", m.MaxFlitAge())
	}
}

// TestStormDetectors: a window's deflection/retransmission count fires only
// when it clears both the absolute floor (DefaultStormMinCount, 512) and the
// factor (DefaultStormFactor, 8) over the trailing per-window mean; the first
// window only seeds the baseline.
func TestStormDetectors(t *testing.T) {
	m := NewMonitor(Config{Window: 64}, 4)
	// Window 1: huge count, but no baseline yet — seeds only.
	m.ObserveWindow(WindowSample{Cycle: 63, OldestNode: -1, Deflected: 1000, Retransmits: 10})
	if got := m.AnomalyCount(KindDeflectStorm); got != 0 {
		t.Fatalf("deflect storm fired on the baseline-seeding window (%d)", got)
	}
	// Window 2: delta 1000 vs mean 1000 — not a spike.
	m.ObserveWindow(WindowSample{Cycle: 127, OldestNode: -1, Deflected: 2000, Retransmits: 20})
	if got := m.AnomalyCount(KindDeflectStorm); got != 0 {
		t.Fatalf("deflect storm fired at the steady rate (%d)", got)
	}
	// Window 3: delta 9000 vs mean 1000 — a 9x spike over the 8x factor.
	m.ObserveWindow(WindowSample{Cycle: 191, OldestNode: -1, Deflected: 11000, Retransmits: 110})
	if got := m.AnomalyCount(KindDeflectStorm); got != 1 {
		t.Fatalf("deflect storm at 9x baseline = %d, want 1", got)
	}
	// Retransmits spiked too (10/window -> 90, 9x), but under the floor.
	if got := m.AnomalyCount(KindRetransmitStorm); got != 0 {
		t.Fatalf("retransmit storm fired under the absolute floor (%d)", got)
	}
	// Window 4: retransmit delta 890 vs mean 110/3 — fires.
	m.ObserveWindow(WindowSample{Cycle: 255, OldestNode: -1, Deflected: 11100, Retransmits: 1000})
	if got := m.AnomalyCount(KindRetransmitStorm); got != 1 {
		t.Fatalf("retransmit storm = %d, want 1", got)
	}

	var storm Anomaly
	for _, a := range m.Anomalies() {
		if a.Kind == KindDeflectStorm {
			storm = a
		}
	}
	if storm.Value != 9000 || storm.Baseline != 1000 {
		t.Fatalf("deflect storm record %+v, want value 9000 over baseline 1000", storm)
	}
}

// TestWindowDue: the engine-side window check matches the monitor's schedule.
func TestWindowDue(t *testing.T) {
	m := NewMonitor(Config{Window: 64}, 4)
	if m.WindowDue(62) {
		t.Fatal("window due before the first boundary")
	}
	if !m.WindowDue(63) {
		t.Fatal("window not due at the first boundary (Window-1)")
	}
	m.ObserveWindow(WindowSample{Cycle: 63, OldestNode: -1})
	if m.WindowDue(126) || !m.WindowDue(127) {
		t.Fatal("window schedule did not advance by Window after ObserveWindow")
	}
}

// TestFaultDetectionLatency: manifest->detected intervals land in the right
// histogram bucket, per node, and unmatched detections are ignored.
func TestFaultDetectionLatency(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMonitor(Config{Registry: reg, Window: 64}, 16)

	m.FaultManifested(3, 100)
	m.FaultDetected(3, 130) // latency 30 -> bucket le=32
	m.FaultDetected(5, 200) // never manifested: ignored
	m.FaultManifested(7, 1000)
	m.FaultDetected(7, 1001) // latency 1 -> bucket le=1
	m.Detach()               // publishes the final snapshot

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		MetricFaultDetectLatency + `_bucket{le="1"} 1`,
		MetricFaultDetectLatency + `_bucket{le="32"} 2`,
		MetricFaultDetectLatency + `_count 2`,
		MetricFaultDetectLatency + `_sum 31`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Nil monitor: both hooks are no-ops.
	var nilMon *Monitor
	nilMon.FaultManifested(0, 1)
	nilMon.FaultDetected(0, 2)
}

// TestAnomalyMetricsAndRecords: counters are exact past the record cap, the
// record slice is bounded, and the overflow is reported.
func TestAnomalyMetricsAndRecords(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMonitor(Config{StallCycles: 10, Registry: reg}, 4)
	// Three threshold intervals past the default cap, with flits in flight
	// and no ejections.
	const stalls = DefaultMaxRecords + 3
	for c := uint64(0); c <= 10*stalls; c++ {
		m.ObserveCycle(c, 0, 1)
	}
	if got := m.AnomalyCount(KindStall); got != stalls {
		t.Fatalf("stall count = %d, want %d", got, stalls)
	}
	if got := len(m.Anomalies()); got != DefaultMaxRecords {
		t.Fatalf("records kept = %d, want cap %d", got, DefaultMaxRecords)
	}
	if got := m.DroppedAnomalies(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`%s{kind="stall"} %d`, MetricAnomalies, stalls); !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, buf.String())
	}
}

// TestDumpTriggers: the first anomaly auto-dumps once; dump requests are
// consumed at window boundaries; FinalDump only writes when nothing else has.
func TestDumpTriggers(t *testing.T) {
	var dumps []string
	newMon := func() *Monitor {
		m := NewMonitor(Config{StallCycles: 10, Window: 64}, 4)
		m.SetDumper(func(cycle uint64, reason string) { dumps = append(dumps, reason) })
		return m
	}

	dumps = nil
	m := newMon()
	for c := uint64(0); c <= 30; c++ { // three stall firings
		m.ObserveCycle(c, 0, 1)
	}
	if len(dumps) != 1 || dumps[0] != "anomaly-stall" {
		t.Fatalf("anomaly dumps = %v, want one anomaly-stall", dumps)
	}
	m.FinalDump(31, "interrupt")
	if len(dumps) != 1 {
		t.Fatalf("FinalDump wrote despite an earlier auto-dump: %v", dumps)
	}

	dumps = nil
	m = newMon()
	m.RequestDump()
	m.ObserveCycle(1, 0, 1) // not a window boundary: nothing yet
	if len(dumps) != 0 {
		t.Fatalf("dump request consumed outside a window boundary: %v", dumps)
	}
	m.ObserveWindow(WindowSample{Cycle: 63, OldestNode: -1})
	if len(dumps) != 1 || dumps[0] != "signal" {
		t.Fatalf("signal dumps = %v, want one signal", dumps)
	}
	// Signal dumps do not exhaust the once-per-run anomaly dump.
	for c := uint64(64); c <= 80; c++ {
		m.ObserveCycle(c, 0, 1)
	}
	if len(dumps) != 2 || dumps[1] != "anomaly-stall" {
		t.Fatalf("dumps after signal = %v, want signal then anomaly-stall", dumps)
	}

	dumps = nil
	m = newMon()
	m.FinalDump(100, "interrupt")
	if len(dumps) != 1 || dumps[0] != "interrupt" {
		t.Fatalf("FinalDump = %v, want one interrupt", dumps)
	}
}

// TestStopAndInterrupt: the per-monitor stop and the process-wide interrupt
// flag both surface through StopRequested; a nil monitor never stops.
func TestStopAndInterrupt(t *testing.T) {
	t.Cleanup(ClearInterrupt)
	m := NewMonitor(Config{}, 4)
	if m.StopRequested() {
		t.Fatal("fresh monitor already stopping")
	}
	m.RequestStop()
	if !m.StopRequested() {
		t.Fatal("RequestStop not visible")
	}

	m2 := NewMonitor(Config{}, 4)
	Interrupt()
	if !Interrupted() {
		t.Fatal("process interrupt flag not visible")
	}
	if !m2.StopRequested() {
		t.Fatal("process interrupt not visible through the monitor")
	}
	ClearInterrupt()
	if m2.StopRequested() {
		t.Fatal("ClearInterrupt did not clear")
	}

	var nilMon *Monitor
	if nilMon.StopRequested() {
		t.Fatal("nil monitor reports a stop")
	}
}

// TestAnomalyLogging: each firing emits one structured Warn record through
// the configured logger.
func TestAnomalyLogging(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, LogJSON, false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(Config{StallCycles: 10, Logger: logger}, 4)
	for c := uint64(0); c <= 10; c++ {
		m.ObserveCycle(c, 0, 1)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("anomaly log is not one JSON record: %v\n%s", err, buf.String())
	}
	if rec["level"] != "WARN" || rec["kind"] != "stall" {
		t.Fatalf("anomaly log record %v, want WARN stall", rec)
	}
}

// TestKindEncoding: kinds render by name in logs and JSON bundles.
func TestKindEncoding(t *testing.T) {
	want := map[Kind]string{
		KindStall: "stall", KindStarvation: "starvation",
		KindDeflectStorm: "deflect_storm", KindRetransmitStorm: "retransmit_storm",
		NumKinds: "unknown",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), name)
		}
	}
	b, err := json.Marshal(Anomaly{Kind: KindDeflectStorm, Cycle: 9, Node: -1, Value: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"deflect_storm"`) {
		t.Errorf("anomaly JSON %s does not name its kind", b)
	}
}

// TestNewLogger: both formats work, verbosity gates Debug, and an unknown
// format is an error.
func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, LogText, false)
	if err != nil {
		t.Fatal(err)
	}
	logger.Debug("hidden")
	logger.Info("shown", "k", "v")
	if out := buf.String(); strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Fatalf("text logger at info level produced:\n%s", out)
	}

	buf.Reset()
	logger, err = NewLogger(&buf, LogJSON, true)
	if err != nil {
		t.Fatal(err)
	}
	logger.Debug("now visible")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json logger output invalid: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "now visible" {
		t.Fatalf("json debug record %v", rec)
	}

	if _, err := NewLogger(&buf, "yaml", false); err == nil {
		t.Fatal("unknown log format accepted")
	}
}
