package metrics

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// liveTestRegistry returns a registry populated with known values for every
// family the live frame reads, plus a latency histogram whose quantiles are
// exact.
func liveTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter(MetricCycles, "t").Add(1500)
	reg.FloatGauge(MetricCyclesPerSec, "t").Set(250000)
	reg.Counter(MetricInjectedFlits, "t").Add(900)
	reg.Counter(MetricEjectedFlits, "t").Add(850)
	reg.Counter(MetricDroppedFlits, "t").Add(3)
	reg.Counter(MetricDeflectedFlits, "t").Add(47)
	reg.Counter(MetricRetransmits, "t").Add(2)
	reg.Counter(MetricPacketsOut, "t").Add(850)
	reg.Gauge(MetricInFlight, "t").Add(21)
	reg.Gauge(MetricQueued, "t").Add(5)
	reg.Gauge(MetricBuffered, "t").Add(0)
	reg.FloatGauge(MetricShardImbalance, "t").Set(1.25)
	reg.Counter(MetricLedgerRecords, "t").Add(2)
	reg.Counter(anomalyFamily, "t", Label{Key: "kind", Value: "livelock"}).Add(1)
	reg.Counter(anomalyFamily, "t", Label{Key: "kind", Value: "starvation"}).Add(2)
	// 10 observations in buckets ≤4 and ≤16: ranks 1-6 land in the first,
	// 7-10 in the second, so p50=4 and p99=16 exactly.
	h := reg.Histogram(MetricLatency, "t", []float64{4, 16, 64})
	h.Update([]uint64{6, 4, 0}, 10, 70)
	return reg
}

// getLive serves GET /live through Handler(reg, nil) and returns the body,
// failing the test on a non-200 reply or a wrong header.
func getLive(t *testing.T, reg *Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler(reg, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/live", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /live = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/live Content-Type = %q", ct)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/live Cache-Control = %q, want no-store", cc)
	}
	return rec.Body.String()
}

// TestLiveFrameGolden pins the /live frame shape: the exact JSON the
// dashboard and any external watcher parse. A field rename or reorder is a
// schema change and must show up here (and bump LiveSchema).
func TestLiveFrameGolden(t *testing.T) {
	const golden = `{"schema":2,"cycles":1500,"cycles_per_second":250000,` +
		`"flits_injected":900,"flits_ejected":850,"flits_dropped":3,` +
		`"flits_deflected":47,"flits_retransmitted":2,"packets_delivered":850,` +
		`"in_flight_flits":21,"queued_flits":5,"buffered_flits":0,` +
		`"latency_p50_cycles":4,"latency_p99_cycles":16,` +
		`"shard_imbalance":1.25,"anomalies":3,"ledger_records":2,` +
		`"progress":{"unit":"","done":0,"total":0,"percent":0,` +
		`"per_second":0,"elapsed_seconds":0,"eta_seconds":0}}` + "\n"
	if got := getLive(t, liveTestRegistry()); got != golden {
		t.Errorf("/live JSON drifted from the golden shape\ngot:  %s\nwant: %s", got, golden)
	}
}

// TestLiveFrameEmptyRegistry: a registry with nothing published (or a nil
// registry) reads as a zero frame, not a panic.
func TestLiveFrameEmptyRegistry(t *testing.T) {
	for name, reg := range map[string]*Registry{"empty": NewRegistry(), "nil": nil} {
		if s := ReadLive(reg, nil); s != (LiveFrame{Schema: LiveSchema}) {
			t.Errorf("%s registry: unexpected frame %+v", name, s)
		}
	}
}

// TestLiveFrameStateless: with no registry change in between, two GETs of
// /live return byte-identical bodies — no reader's request moves state that
// another reader's frame depends on.
func TestLiveFrameStateless(t *testing.T) {
	reg := liveTestRegistry()
	first, second := getLive(t, reg), getLive(t, reg)
	if first != second {
		t.Errorf("two reads of an unchanged registry differ\nfirst:  %s\nsecond: %s", first, second)
	}
	reg.Counter(MetricCycles, "t").Add(10)
	if third := getLive(t, reg); !strings.Contains(third, `"cycles":1510,`) {
		t.Errorf("a read after 10 more cycles does not report 1510: %s", third)
	}
}

// TestDashboardServed: the root path serves the self-contained dashboard,
// and only the root path (no accidental catch-all). /events, the retired
// streaming endpoint, is a 404 so a stale client fails at once.
func TestDashboardServed(t *testing.T) {
	srv := httptest.NewServer(Handler(liveTestRegistry(), nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	html := string(body)
	for _, want := range []string{"<title>dxbar telemetry</title>", `fetch("/live"`} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard HTML is missing %q", want)
		}
	}
	for _, ext := range []string{"<script src", "<link ", "@import", "url(http"} {
		if strings.Contains(html, ext) {
			t.Errorf("dashboard must be self-contained, found %q", ext)
		}
	}

	for _, path := range []string{`/no-such-page`, `/events`} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRegistryReadAPI covers the introspection layer the frame builder
// uses: Value on each series kind, label-summed families, and histogram
// quantile edge ranks.
func TestRegistryReadAPI(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "t").Add(7)
	reg.Gauge("g", "t").Add(-3)
	reg.FloatGauge("fg", "t").Set(2.5)
	if v, ok := reg.Value("c_total"); !ok || v != 7 {
		t.Errorf("counter Value = %v, %v", v, ok)
	}
	if v, ok := reg.Value("g"); !ok || v != -3 {
		t.Errorf("gauge Value = %v, %v", v, ok)
	}
	if v, ok := reg.Value("fg"); !ok || v != 2.5 {
		t.Errorf("float gauge Value = %v, %v", v, ok)
	}
	if _, ok := reg.Value("absent"); ok {
		t.Error("Value invented an unregistered series")
	}
	reg.Counter("lab_total", "t", Label{Key: "k", Value: "a"}).Add(1)
	reg.Counter("lab_total", "t", Label{Key: "k", Value: "b"}).Add(2)
	if v, ok := reg.Sum("lab_total"); !ok || v != 3 {
		t.Errorf("Sum = %v, %v, want 3", v, ok)
	}
	if _, ok := reg.Value("lab_total"); ok {
		t.Error("unlabeled Value matched a labeled-only family")
	}

	h := reg.Histogram("lat", "t", []float64{1, 2, 4})
	if _, ok := reg.HistogramQuantile("lat", 0.5); ok {
		t.Error("quantile of an empty histogram reported ok")
	}
	h.Update([]uint64{1, 1, 2}, 4, 10)
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.25, 1}, {0.5, 2}, {0.75, 4}, {1, 4}} {
		if v, ok := reg.HistogramQuantile("lat", tc.q); !ok || v != tc.want {
			t.Errorf("q%.2f = %v, %v, want %v", tc.q, v, ok, tc.want)
		}
	}
	var nilReg *Registry
	if _, ok := nilReg.Value("x"); ok {
		t.Error("nil registry Value reported ok")
	}
}
