package metrics

// The live frame: one JSON reading of the registry (progress, counter totals,
// latency quantiles, shard imbalance, anomaly counts) that GET /live serves
// and the dashboard at / polls once a second. ReadLive holds no state between
// calls — it reads the same atomics a /metrics scrape does — so any number of
// readers see the same frame for the same registry state, and a reader that
// wants per-interval deltas works them out from its own previous frame.

// LiveSchema versions the LiveFrame JSON shape served at /live.
const LiveSchema = 2

// anomalyFamily is the run-health monitor's per-kind anomaly counter
// (internal/diag registers it); the frame aggregates it over kinds.
const anomalyFamily = "dxbar_anomaly_total"

// LiveFrame is one /live reading. Every field is a process-wide registry
// reading (a total or a current gauge value).
type LiveFrame struct {
	Schema int `json:"schema"`

	Cycles           uint64  `json:"cycles"`
	CyclesPerSecond  float64 `json:"cycles_per_second"`
	FlitsInjected    uint64  `json:"flits_injected"`
	FlitsEjected     uint64  `json:"flits_ejected"`
	FlitsDropped     uint64  `json:"flits_dropped"`
	FlitsDeflected   uint64  `json:"flits_deflected"`
	Retransmits      uint64  `json:"flits_retransmitted"`
	PacketsDelivered uint64  `json:"packets_delivered"`

	InFlightFlits int64 `json:"in_flight_flits"`
	QueuedFlits   int64 `json:"queued_flits"`
	BufferedFlits int64 `json:"buffered_flits"`

	LatencyP50 float64 `json:"latency_p50_cycles"`
	LatencyP99 float64 `json:"latency_p99_cycles"`

	ShardImbalance float64 `json:"shard_imbalance"`
	Anomalies      uint64  `json:"anomalies"`
	LedgerRecords  uint64  `json:"ledger_records"`

	Progress ProgressSnapshot `json:"progress"`
}

// ReadLive builds one frame from the current state of reg and prog. Either
// may be nil; the frame then carries zeros for the missing side.
func ReadLive(reg *Registry, prog *Progress) LiveFrame {
	u := func(name string) uint64 {
		v, _ := reg.Value(name)
		return uint64(v)
	}
	i := func(name string) int64 {
		v, _ := reg.Value(name)
		return int64(v)
	}
	f := func(name string) float64 {
		v, _ := reg.Value(name)
		return v
	}
	s := LiveFrame{
		Schema:           LiveSchema,
		Cycles:           u(MetricCycles),
		CyclesPerSecond:  f(MetricCyclesPerSec),
		FlitsInjected:    u(MetricInjectedFlits),
		FlitsEjected:     u(MetricEjectedFlits),
		FlitsDropped:     u(MetricDroppedFlits),
		FlitsDeflected:   u(MetricDeflectedFlits),
		Retransmits:      u(MetricRetransmits),
		PacketsDelivered: u(MetricPacketsOut),
		InFlightFlits:    i(MetricInFlight),
		QueuedFlits:      i(MetricQueued),
		BufferedFlits:    i(MetricBuffered),
		ShardImbalance:   f(MetricShardImbalance),
		LedgerRecords:    u(MetricLedgerRecords),
		Progress:         prog.Snapshot(),
	}
	if p50, ok := reg.HistogramQuantile(MetricLatency, 0.50); ok {
		s.LatencyP50 = p50
	}
	if p99, ok := reg.HistogramQuantile(MetricLatency, 0.99); ok {
		s.LatencyP99 = p99
	}
	if anoms, ok := reg.Sum(anomalyFamily); ok {
		s.Anomalies = uint64(anoms)
	}
	return s
}
