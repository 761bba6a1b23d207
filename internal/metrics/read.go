package metrics

import "math"

// Value-read introspection: the live frame builder ReadLive (and any other
// registry consumer that holds no handles) reads current series values by
// name. Reads take the registry mutex only to find the series; the value
// load itself is the same atomic the scrape path uses, so reading never
// perturbs a publishing engine.

// value returns a series' current reading as float64, whatever its
// underlying representation.
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.floatCounter != nil:
		return s.floatCounter.Value()
	case s.gauge != nil:
		return float64(s.gauge.Value())
	case s.floatGauge != nil:
		return s.floatGauge.Value()
	}
	return 0
}

// findSeries returns the series for (name, labels) without creating it.
func (r *Registry) findSeries(name string, labels []Label) *series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.index[name]
	if !ok {
		return nil
	}
	return f.index[renderLabels(labels)]
}

// Value returns the current value of the series (name, labels), or (0,
// false) when it is not registered. Histograms are not values; use
// HistogramQuantile. Nil-safe.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	s := r.findSeries(name, labels)
	if s == nil {
		return 0, false
	}
	return s.value(), true
}

// Sum returns the sum over every series of a family — the label-aggregated
// reading of counters like dxbar_anomaly_total{kind=…}. (0, false) when the
// family is not registered. Nil-safe.
func (r *Registry) Sum(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.index[name]
	if !ok {
		return 0, false
	}
	var total float64
	for _, s := range f.series {
		total += s.value()
	}
	return total, true
}

// HistogramQuantile returns the nearest-rank q-quantile of a registered
// histogram's published snapshot: the upper bound of the bucket holding the
// value of rank ceil(q·count). (0, false) when the family is absent, not a
// histogram, or empty. Nil-safe.
func (r *Registry) HistogramQuantile(name string, q float64) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	f, ok := r.index[name]
	var h *Histogram
	if ok && f.kind == kindHistogram && len(f.series) > 0 {
		h = f.series[0].hist
	}
	r.mu.Unlock()
	if h == nil {
		return 0, false
	}
	return h.quantile(q)
}

// quantile computes the nearest-rank q-quantile of the published snapshot.
func (h *Histogram) quantile(q float64) (float64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			return h.bounds[i], true
		}
	}
	return h.bounds[len(h.bounds)-1], true
}
