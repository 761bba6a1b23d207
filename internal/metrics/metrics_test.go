package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "h")
	fc := r.FloatCounter("fc", "h")
	g := r.Gauge("g", "h")
	fg := r.FloatGauge("fg", "h")
	h := r.Histogram("h", "h", []float64{1, 2})
	if c != nil || fc != nil || g != nil || fg != nil || h != nil {
		t.Fatal("nil registry must hand out nil metric handles")
	}
	// All operations on nil handles must be no-ops, not panics.
	c.Add(1)
	fc.Add(1.5)
	g.Set(3)
	g.Add(-1)
	fg.Set(2.5)
	fg.Add(0.5)
	h.Update([]uint64{1}, 1, 1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if c.Value() != 0 || g.Value() != 0 || fc.Value() != 0 || fg.Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
}

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dxbar_test_total", "help")
	c.Add(0) // zero deltas are skipped but must be legal
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	g := r.Gauge("dxbar_test_gauge", "help")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
	fc := r.FloatCounter("dxbar_test_seconds_total", "help")
	fc.Add(0.5)
	fc.Add(0.25)
	if got := fc.Value(); got != 0.75 {
		t.Fatalf("float counter = %v, want 0.75", got)
	}
	fg := r.FloatGauge("dxbar_test_ratio", "help")
	fg.Set(2)
	fg.Add(-0.5)
	if got := fg.Value(); got != 1.5 {
		t.Fatalf("float gauge = %v, want 1.5", got)
	}
}

func TestRegistryDedupByNameAndLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dxbar_dup_total", "help", Label{Key: "shard", Value: "0"})
	b := r.Counter("dxbar_dup_total", "help", Label{Key: "shard", Value: "0"})
	c := r.Counter("dxbar_dup_total", "help", Label{Key: "shard", Value: "1"})
	if a != b {
		t.Fatal("same name+labels must return the same series")
	}
	if a == c {
		t.Fatal("different labels must return distinct series")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatal("deduped handles must share state")
	}
}

// Runs that register the same series at the same moment — a sweep's workers
// sharing one registry — must all get the one handle, or increments are lost
// (run under -race: the handle is created inside the registry lock).
func TestRegistryDedupConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Counter("dxbar_shared_total", "help").Add(1)
			r.Histogram("dxbar_shared_hist", "help", []float64{1, 2})
		}()
	}
	wg.Wait()
	if got, _ := r.Sum("dxbar_shared_total"); got != workers {
		t.Fatalf("shared counter = %v after %d concurrent registrations, want %d", got, workers, workers)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dxbar_kind_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering the same family under a different kind must panic")
		}
	}()
	r.Gauge("dxbar_kind_total", "help")
}

func TestLabelRenderingSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("dxbar_lbl_total", "help",
		Label{Key: "z", Value: "last"}, Label{Key: "a", Value: "first"})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `dxbar_lbl_total{a="first",z="last"} 0`) {
		t.Fatalf("labels not sorted by key:\n%s", sb.String())
	}
}

func TestConcurrentPublishAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dxbar_conc_total", "help")
	h := r.Histogram("dxbar_conc_hist", "help", []float64{1, 2, 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		counts := []uint64{1, 2, 3}
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Add(1)
			h.Update(counts, 6, 17)
		}
	}()
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestHistogramUpdateShrinks(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Update([]uint64{5, 5, 5}, 15, 30)
	h.Update([]uint64{1}, 1, 1) // shorter source must zero the tail
	buckets, count, sum := h.snapshotInto(nil)
	if count != 1 || sum != 1 {
		t.Fatalf("count=%d sum=%v, want 1/1", count, sum)
	}
	if len(buckets) != 1 || buckets[0].le != 1 || buckets[0].cum != 1 {
		t.Fatalf("buckets = %+v, want one bucket le=1 cum=1", buckets)
	}
}
