// Package diag is the always-on run-health layer: anomaly detectors hooked
// into the engine's cycle loop, post-mortem bundle writing, structured
// logging for the CLIs, and the process-wide interrupt/dump flags behind
// graceful shutdown.
//
// The detectors share the observability contract of internal/events and
// internal/metrics:
//
//   - They observe, never steer. Every detector input is deterministic
//     simulation state read at a sequential point of the cycle loop, so the
//     anomaly stream itself is deterministic and results are bit-identical
//     with diagnostics on or off (and sequential vs. sharded).
//   - Steady state is allocation-free. The per-cycle leg is two compares;
//     the windowed leg is arithmetic over preallocated state; anomaly records
//     land in a fixed-capacity slice (overflow is counted, not stored).
//   - Disabled is free. The engine guards every hook behind a nil check, and
//     the fault hooks no-op on a nil *Monitor.
package diag

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sync/atomic"

	"dxbar/internal/metrics"
)

// Metric names published by a Monitor. Exported so tests and METRICS.md
// assert against the same strings the detectors publish (the engine-owned
// names live in internal/metrics).
const (
	MetricAnomalies          = "dxbar_anomaly_total"
	MetricFlitAgeMax         = "dxbar_flit_age_max"
	MetricFaultDetectLatency = "dxbar_fault_detect_latency_cycles"
)

// Kind classifies an anomaly.
type Kind uint8

// The detector kinds. Stall is the progress watchdog (no ejection while
// flits are in flight); Starvation the flit-age watermark; the storm kinds
// compare a window's deflection/retransmission count against the run's
// trailing per-window baseline.
const (
	KindStall Kind = iota
	KindStarvation
	KindDeflectStorm
	KindRetransmitStorm
	NumKinds
)

var kindNames = [NumKinds]string{"stall", "starvation", "deflect_storm", "retransmit_storm"}

// String returns the kind's snake_case name (the metric label value).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind by name, so anomaly records in post-mortem
// bundles are readable without the enum table.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind by name, so bundle readers round-trip
// anomalies.json.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("diag: unknown anomaly kind %q", s)
}

// Anomaly is one detector firing. All fields are plain scalars derived from
// deterministic simulation state, so the anomaly stream of a run is itself
// deterministic (and identical between the sequential and sharded engines).
type Anomaly struct {
	Kind  Kind   `json:"kind"`
	Cycle uint64 `json:"cycle"`
	// Node is the offending node (-1 when the anomaly is network-wide).
	Node int32 `json:"node"`
	// PacketID and FlitID identify the offending flit for starvation alarms
	// (0 when not applicable).
	PacketID uint64 `json:"packet_id,omitempty"`
	FlitID   uint64 `json:"flit_id,omitempty"`
	// Value is the measured quantity that crossed the threshold: stalled
	// cycles, flit age, or the window's event count.
	Value uint64 `json:"value"`
	// Baseline is the trailing per-window mean the storm detectors compared
	// Value against (0 for the threshold detectors).
	Baseline float64 `json:"baseline,omitempty"`
}

// Detector defaults. Chosen so healthy below-saturation runs never fire:
// a network with flits in flight ejects within the mesh diameter, and even
// deeply congested short runs stay under the age watermark.
const (
	DefaultWindow        = 1024
	DefaultStallCycles   = 10_000
	DefaultMaxFlitAge    = 50_000
	DefaultStormFactor   = 8.0
	DefaultStormMinCount = 512
	DefaultMaxRecords    = 64
)

// FaultLatencyBounds returns the bucket upper bounds of the
// fault-detection-latency histogram (cycles from fault-manifest to
// fault-detected), ascending. Allocates; call at registration.
func FaultLatencyBounds() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}
}

// Config tunes a Monitor. The zero value selects every default; detectors
// cannot be individually disabled (set thresholds high instead), only the
// whole monitor (dxbar.Config.DisableDiag).
type Config struct {
	// Window is the detector window in cycles: the flit-age scan, the storm
	// baselines and dump-request consumption all run once per window.
	Window uint64
	// StallCycles is the progress watchdog threshold: an anomaly fires when
	// no flit has been ejected for that many cycles while flits are in
	// flight (livelock, deadlock, or a wedged design).
	StallCycles uint64
	// MaxFlitAge is the starvation threshold: an anomaly fires when the
	// oldest engine-visible flit (injection-queue heads, input latches,
	// link stages) exceeds that age in cycles. At most one alarm per stuck
	// packet.
	MaxFlitAge uint64
	// StormFactor and StormMinCount gate the deflection/retransmission storm
	// detectors: a window fires when its event count is at least
	// StormMinCount AND exceeds StormFactor × the trailing per-window mean.
	StormFactor   float64
	StormMinCount uint64
	// MaxRecords caps the anomaly records kept in memory (the overflow is
	// counted in DroppedAnomalies, and the dxbar_anomaly_total counters are
	// exact regardless).
	MaxRecords int
	// Logger, when non-nil, receives one structured Warn record per anomaly.
	Logger *slog.Logger
	// Registry, when non-nil, receives the dxbar_anomaly_total{kind}
	// counters, the dxbar_flit_age_max gauge and the
	// dxbar_fault_detect_latency_cycles histogram.
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.StallCycles == 0 {
		c.StallCycles = DefaultStallCycles
	}
	if c.MaxFlitAge == 0 {
		c.MaxFlitAge = DefaultMaxFlitAge
	}
	if c.StormFactor == 0 {
		c.StormFactor = DefaultStormFactor
	}
	if c.StormMinCount == 0 {
		c.StormMinCount = DefaultStormMinCount
	}
	if c.MaxRecords == 0 {
		c.MaxRecords = DefaultMaxRecords
	}
	return c
}

// WindowSample is the windowed detector input the engine gathers at a window
// boundary: the oldest engine-visible flit and the whole-run deflection and
// retransmission totals.
type WindowSample struct {
	Cycle uint64
	// OldestAge is the age (cycles since generation) of the oldest flit
	// visible to the engine; OldestPacket/OldestFlit/OldestNode identify it.
	// OldestNode is -1 when no flit is in flight.
	OldestAge    uint64
	OldestPacket uint64
	OldestFlit   uint64
	OldestNode   int32
	// Deflected and Retransmits are whole-run totals; the monitor windows
	// them itself.
	Deflected   uint64
	Retransmits uint64
}

// Monitor is one run's health monitor. The engine owns the call points: the
// per-cycle ObserveCycle, the per-window ObserveWindow (fed by the engine's
// flit scan), and the fault hooks, which routers reach through their Env.
// All detector state mutates only at sequential points of the cycle loop;
// the fault-latency histogram uses atomics because routers call the fault
// hooks from shard workers.
type Monitor struct {
	cfg Config

	// Progress watchdog.
	lastEjected  uint64
	lastProgress uint64

	// Window state.
	nextWindow  uint64
	windows     uint64
	lastDeflect uint64
	lastRetx    uint64
	deflectBase uint64 // sum of completed windows' deltas
	retxBase    uint64
	maxAgeSeen  uint64
	lastAgePub  int64  // last gauge contribution (delta-tracked, like SimTelemetry)
	lastStarved uint64 // packet that already fired a starvation alarm

	records []Anomaly
	counts  [NumKinds]uint64
	dropped uint64

	dump   func(cycle uint64, reason string)
	dumped bool

	stop    atomic.Bool
	dumpReq atomic.Bool

	// Fault-detection latency. manifest[n] holds node n's manifest cycle +1
	// (0 = none); written only by the node's owning worker, read by the same
	// node's detect hook, so plain stores are race-free. The buckets are
	// shared across workers, hence atomic.
	manifest     []uint64
	faultBuckets []atomic.Uint64
	faultBounds  []float64
	faultCount   atomic.Uint64
	faultSum     atomic.Uint64
	faultScratch []uint64

	anomalyTotal [NumKinds]*metrics.Counter
	flitAgeMax   *metrics.Gauge
	faultHist    *metrics.Histogram
}

// NewMonitor builds a monitor for a network of the given node count,
// registering its metric series when cfg.Registry is set.
func NewMonitor(cfg Config, nodes int) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:         cfg,
		nextWindow:  cfg.Window - 1,
		records:     make([]Anomaly, 0, cfg.MaxRecords),
		manifest:    make([]uint64, nodes),
		faultBounds: FaultLatencyBounds(),
	}
	m.faultBuckets = make([]atomic.Uint64, len(m.faultBounds))
	m.faultScratch = make([]uint64, len(m.faultBounds))
	if r := cfg.Registry; r != nil {
		for k := Kind(0); k < NumKinds; k++ {
			m.anomalyTotal[k] = r.Counter(MetricAnomalies,
				"Run-health anomalies detected, by kind (stall, starvation, deflect_storm, retransmit_storm).",
				metrics.Label{Key: "kind", Value: k.String()})
		}
		m.flitAgeMax = r.Gauge(MetricFlitAgeMax,
			"Age in cycles of the oldest engine-visible in-flight flit, sampled per detector window.")
		m.faultHist = r.Histogram(MetricFaultDetectLatency,
			"Cycles from fault manifestation to BIST detection, per faulty router.",
			m.faultBounds)
	}
	return m
}

// SetDumper installs the post-mortem bundle writer. The monitor calls it
// from the engine goroutine: once on the first anomaly, and on every
// consumed dump request (SIGQUIT). Nil-safe.
func (m *Monitor) SetDumper(fn func(cycle uint64, reason string)) {
	if m != nil {
		m.dump = fn
	}
}

// ObserveCycle is the per-cycle detector leg: the progress watchdog. Two
// compares on the healthy path. ejected is the run's ejection total,
// inFlight the live flit count.
func (m *Monitor) ObserveCycle(cycle, ejected uint64, inFlight int) {
	if ejected != m.lastEjected {
		m.lastEjected = ejected
		m.lastProgress = cycle
		return
	}
	if inFlight > 0 && cycle-m.lastProgress >= m.cfg.StallCycles {
		m.fire(Anomaly{
			Kind:  KindStall,
			Cycle: cycle,
			Node:  -1,
			Value: cycle - m.lastProgress,
		})
		// Re-arm so a persistent stall fires once per threshold interval,
		// not once per cycle.
		m.lastProgress = cycle
	}
}

// WindowDue reports whether the windowed detector leg is due at cycle c.
func (m *Monitor) WindowDue(c uint64) bool { return c >= m.nextWindow }

// ObserveWindow runs the windowed detectors on the engine's sample: the
// flit-age watermark, the storm baselines, the fault-latency publication and
// dump-request consumption. Allocation-free.
func (m *Monitor) ObserveWindow(s WindowSample) {
	m.nextWindow = s.Cycle + m.cfg.Window

	// A SIGQUIT-style dump request (per-monitor or process-global) is
	// consumed at window boundaries — a sequential point where every staged
	// side effect has been replayed, so the bundle sees consistent state.
	if m.dump != nil && (m.dumpReq.CompareAndSwap(true, false) || consumeDumpRequest()) {
		m.dump(s.Cycle, "signal")
	}

	// Flit-age watermark.
	if s.OldestAge > m.maxAgeSeen {
		m.maxAgeSeen = s.OldestAge
	}
	m.flitAgeMax.Add(int64(s.OldestAge) - m.lastAgePub)
	m.lastAgePub = int64(s.OldestAge)
	if s.OldestNode >= 0 && s.OldestAge >= m.cfg.MaxFlitAge && s.OldestPacket != m.lastStarved {
		m.lastStarved = s.OldestPacket
		m.fire(Anomaly{
			Kind:     KindStarvation,
			Cycle:    s.Cycle,
			Node:     s.OldestNode,
			PacketID: s.OldestPacket,
			FlitID:   s.OldestFlit,
			Value:    s.OldestAge,
		})
	}

	// Storm detectors: this window's count vs. the trailing per-window mean
	// of every earlier window. The first window only seeds the baseline.
	dDelta := s.Deflected - m.lastDeflect
	rDelta := s.Retransmits - m.lastRetx
	m.lastDeflect, m.lastRetx = s.Deflected, s.Retransmits
	if m.windows > 0 {
		base := float64(m.deflectBase) / float64(m.windows)
		if dDelta >= m.cfg.StormMinCount && float64(dDelta) > m.cfg.StormFactor*base {
			m.fire(Anomaly{Kind: KindDeflectStorm, Cycle: s.Cycle, Node: -1, Value: dDelta, Baseline: base})
		}
		base = float64(m.retxBase) / float64(m.windows)
		if rDelta >= m.cfg.StormMinCount && float64(rDelta) > m.cfg.StormFactor*base {
			m.fire(Anomaly{Kind: KindRetransmitStorm, Cycle: s.Cycle, Node: -1, Value: rDelta, Baseline: base})
		}
	}
	m.deflectBase += dDelta
	m.retxBase += rDelta
	m.windows++

	m.publishFaultLatency()
}

// fire records one anomaly: counters, the bounded record slice, the metric,
// the structured log record, and — once — the automatic post-mortem dump.
func (m *Monitor) fire(a Anomaly) {
	m.counts[a.Kind]++
	m.anomalyTotal[a.Kind].Add(1)
	if len(m.records) < cap(m.records) {
		m.records = append(m.records, a)
	} else {
		m.dropped++
	}
	if l := m.cfg.Logger; l != nil {
		l.Warn("anomaly detected",
			"kind", a.Kind.String(), "cycle", a.Cycle, "node", a.Node,
			"packet", a.PacketID, "value", a.Value, "baseline", a.Baseline)
	}
	if m.dump != nil && !m.dumped {
		m.dumped = true
		m.dump(a.Cycle, "anomaly-"+a.Kind.String())
	}
}

// FaultManifested records that node's fault manifested at the given cycle
// (the start of the BIST detection window). Nil-safe; called from the
// router's owning worker.
func (m *Monitor) FaultManifested(node int, cycle uint64) {
	if m == nil {
		return
	}
	m.manifest[node] = cycle + 1
}

// FaultDetected records that node's fault detection, closing the latency
// window opened by FaultManifested. Nil-safe; the bucket counters are atomic
// because detections on different shards may race.
func (m *Monitor) FaultDetected(node int, cycle uint64) {
	if m == nil {
		return
	}
	mc := m.manifest[node]
	if mc == 0 {
		return
	}
	m.manifest[node] = 0
	lat := cycle - (mc - 1)
	idx := len(m.faultBounds) - 1
	for i, b := range m.faultBounds {
		if float64(lat) <= b {
			idx = i
			break
		}
	}
	m.faultBuckets[idx].Add(1)
	m.faultCount.Add(1)
	m.faultSum.Add(lat)
}

// publishFaultLatency copies the atomic bucket counters into the registered
// histogram snapshot (preallocated scratch; no-op without a registry).
func (m *Monitor) publishFaultLatency() {
	if m.faultHist == nil {
		return
	}
	for i := range m.faultBuckets {
		m.faultScratch[i] = m.faultBuckets[i].Load()
	}
	m.faultHist.Update(m.faultScratch, m.faultCount.Load(), float64(m.faultSum.Load()))
}

// RequestStop asks the run to stop at the next cycle boundary (this monitor
// only; diag.Interrupt is the process-wide equivalent). Safe from any
// goroutine; nil-safe.
func (m *Monitor) RequestStop() {
	if m != nil {
		m.stop.Store(true)
	}
}

// RequestDump asks for a post-mortem bundle at the next window boundary
// (this monitor only; diag.RequestDump is the process-wide equivalent).
func (m *Monitor) RequestDump() {
	if m != nil {
		m.dumpReq.Store(true)
	}
}

// StopRequested reports whether the run should stop: a per-monitor stop or
// the process-wide interrupt flag. Two atomic loads; the engine checks it
// once per cycle. False on a nil monitor.
func (m *Monitor) StopRequested() bool {
	return m != nil && (m.stop.Load() || interruptFlag.Load())
}

// FinalDump writes the post-mortem bundle at end of run if none was written
// automatically (the interrupt path). Nil-safe.
func (m *Monitor) FinalDump(cycle uint64, reason string) {
	if m == nil || m.dump == nil || m.dumped {
		return
	}
	m.dumped = true
	m.dump(cycle, reason)
}

// Anomalies returns a copy of the recorded anomalies, in firing order (nil
// when none fired). Nil-safe.
func (m *Monitor) Anomalies() []Anomaly {
	if m == nil || len(m.records) == 0 {
		return nil
	}
	return append([]Anomaly(nil), m.records...)
}

// DroppedAnomalies counts anomalies beyond the record cap (their counters
// and callbacks still ran).
func (m *Monitor) DroppedAnomalies() uint64 {
	if m == nil {
		return 0
	}
	return m.dropped
}

// AnomalyCount returns the total anomalies of one kind over the run.
func (m *Monitor) AnomalyCount(k Kind) uint64 {
	if m == nil {
		return 0
	}
	return m.counts[k]
}

// MaxFlitAge returns the highest windowed flit-age watermark seen.
func (m *Monitor) MaxFlitAge() uint64 {
	if m == nil {
		return 0
	}
	return m.maxAgeSeen
}

// Detach publishes the final fault-latency snapshot and removes this run's
// flit-age gauge contribution from the shared registry (mirroring
// SimTelemetry.Detach). Nil-safe.
func (m *Monitor) Detach() {
	if m == nil {
		return
	}
	m.publishFaultLatency()
	m.flitAgeMax.Add(-m.lastAgePub)
	m.lastAgePub = 0
}
