// Package metrics is the live-telemetry registry: named counters, gauges
// and histograms that the simulation engine publishes into while it runs and
// an HTTP scraper reads concurrently (Prometheus text exposition, the
// /progress JSON endpoint).
//
// The design constraints mirror the flight recorder's (internal/events):
//
//   - Publishing must be allocation-free. Every metric is a preallocated
//     struct updated with atomic operations (histograms use a short
//     mutex-guarded copy at a configurable interval), so the cycle loop keeps
//     its zero-allocation steady state with telemetry enabled.
//   - A disabled registry must be free. All handle types no-op on a nil
//     receiver, and a nil *Registry hands out nil handles, so instrumented
//     code publishes unconditionally.
//   - Scrapes never touch simulation state. The engine pushes values into
//     the registry; the HTTP side only ever reads atomics (or takes the
//     histogram mutex), so a scrape cannot perturb a run and results are
//     bit-identical with the server on or off.
//
// Counters are published as deltas (Add), which makes a registry shared by
// several engines — the RunMany worker pool during a sweep — aggregate
// naturally: the series are process-wide totals. Gauges are last-writer-wins
// between engines; SimTelemetry removes a finished engine's gauge
// contribution so idle series drain back to zero.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready for use; all methods no-op (or return 0) on a nil receiver.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil && n != 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a signed instantaneous value. Add-based publication lets several
// publishers share one gauge as a sum of their contributions.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (d may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil && d != 0 {
		g.v.Add(d)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatCounter is a monotonically increasing float64 metric (cumulative
// seconds). Add uses a CAS loop; it is meant for interval publication, not
// per-cycle hot paths.
type FloatCounter struct{ bits atomic.Uint64 }

// Add increments the counter by v.
func (c *FloatCounter) Add(v float64) {
	if c == nil || v == 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// FloatGauge is an instantaneous float64 value.
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by d (CAS loop; interval publication only).
func (g *FloatGauge) Add(d float64) {
	if g == nil || d == 0 {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Label is one key="value" pair attached to a series.
type Label struct{ Key, Value string }

// metricKind discriminates the exposition TYPE of a family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance within a family. Exactly one of the value
// fields is set, matching the family's kind.
type series struct {
	labels string // rendered `key="value",...` (no braces), "" when unlabeled

	counter      *Counter
	floatCounter *FloatCounter
	gauge        *Gauge
	floatGauge   *FloatGauge
	hist         *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name, help string
	kind       metricKind
	series     []*series          // registration order (scrape order)
	index      map[string]*series // by rendered label string
}

// Registry holds the registered metric families. Registration (the Counter /
// Gauge / … methods) is get-or-create by (name, labels) and safe for
// concurrent use; handles returned from it are updated lock-free. A nil
// *Registry is the disabled registry: every registration returns a nil
// handle, whose methods all no-op.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order
	index    map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// renderLabels builds the canonical `k="v",...` form, sorted by key so the
// same label set always maps to the same series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// lookup returns the series for (name, labels), creating family and series
// as needed, and runs init on it before releasing the registry lock — where
// the accessors create the series' handle, so that runs registering the same
// series concurrently (a sweep's workers sharing one registry) all get the
// one handle. Registering an existing name with a different kind or help
// string panics: both are programmer errors, not runtime conditions.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, init func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.index[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, index: make(map[string]*series)}
		r.index[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	key := renderLabels(labels)
	s, ok := f.index[key]
	if !ok {
		s = &series{labels: key}
		f.index[key] = s
		f.series = append(f.series, s)
	}
	init(s)
	return s
}

// FamilyInfo describes one registered metric family: its name, exposition
// type, help string, and the label keys its series carry (sorted, deduped).
// It backs the METRICS.md coverage test and any other registry introspection.
type FamilyInfo struct {
	Name   string
	Kind   string // "counter", "gauge" or "histogram"
	Help   string
	Labels []string
}

// Families returns a snapshot of the registered families in registration
// order. Nil-safe (returns nil on a nil or empty registry).
func (r *Registry) Families() []FamilyInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		info := FamilyInfo{Name: f.name, Kind: f.kind.String(), Help: f.help}
		seen := map[string]bool{}
		for _, s := range f.series {
			if s.labels == "" {
				continue
			}
			for _, kv := range strings.Split(s.labels, ",") {
				if eq := strings.IndexByte(kv, '='); eq > 0 {
					key := kv[:eq]
					if !seen[key] {
						seen[key] = true
						info.Labels = append(info.Labels, key)
					}
				}
			}
		}
		sort.Strings(info.Labels)
		out = append(out, info)
	}
	return out
}

// Counter returns the counter for (name, labels), registering it on first
// use. Returns nil (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels, func(s *series) {
		if s.counter == nil && s.floatCounter == nil {
			s.counter = &Counter{}
		}
	}).counter
}

// FloatCounter returns the float counter for (name, labels). A name holds
// either uint64 or float64 counters, never both.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels, func(s *series) {
		if s.floatCounter == nil && s.counter == nil {
			s.floatCounter = &FloatCounter{}
		}
	}).floatCounter
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels, func(s *series) {
		if s.gauge == nil && s.floatGauge == nil {
			s.gauge = &Gauge{}
		}
	}).gauge
}

// FloatGauge returns the float gauge for (name, labels).
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels, func(s *series) {
		if s.floatGauge == nil && s.gauge == nil {
			s.floatGauge = &FloatGauge{}
		}
	}).floatGauge
}

// Histogram returns the histogram for (name, labels), creating it with the
// given bucket upper bounds on first use (see NewHistogram).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, labels, func(s *series) {
		if s.hist == nil {
			s.hist = NewHistogram(bounds)
		}
	}).hist
}
