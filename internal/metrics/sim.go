package metrics

import (
	"strconv"
	"time"
)

// Metric names published by a simulation engine (SimTelemetry). Exported so
// tests and the CI smoke probe assert against the same strings the engine
// publishes.
const (
	MetricCycles         = "dxbar_cycles_total"
	MetricInjectedFlits  = "dxbar_flits_injected_total"
	MetricEjectedFlits   = "dxbar_flits_ejected_total"
	MetricDroppedFlits   = "dxbar_flits_dropped_total"
	MetricRetransmits    = "dxbar_flits_retransmitted_total"
	MetricDeflectedFlits = "dxbar_flits_deflected_total"
	MetricPacketsIn      = "dxbar_packets_injected_total"
	MetricPacketsOut     = "dxbar_packets_delivered_total"
	MetricInFlight       = "dxbar_in_flight_flits"
	MetricQueued         = "dxbar_queued_flits"
	MetricBuffered       = "dxbar_buffered_flits"
	MetricCyclesPerSec   = "dxbar_cycles_per_second"
	MetricLatency        = "dxbar_packet_latency_cycles"
	MetricRouterSteps    = "dxbar_router_steps_total"
	MetricRouterSkipped  = "dxbar_router_steps_skipped_total"
	MetricShardBusy      = "dxbar_shard_router_phase_seconds_total"
	MetricShardWait      = "dxbar_shard_barrier_wait_seconds_total"
	MetricShardImbalance = "dxbar_shard_imbalance_ratio"
)

// Metric names published by the run ledger (dxbar.Config.LedgerDir).
const (
	MetricLedgerRecords   = "dxbar_ledger_records_total"
	MetricLedgerReuseHits = "dxbar_ledger_reuse_hits_total"
)

// DefaultPublishInterval is the publish period in cycles of every engine
// series. 64 cycles is under a millisecond of wall time, and every consumer —
// a scrape, a /live read, the progress line — samples at least 100 ms apart;
// the interval paces the O(nodes) gauge scans and the histogram copy.
const DefaultPublishInterval = 64

// simCounters declares the monotonic counters an engine publishes, once:
// series name, help text, and source — the name of the engine's running total
// the series follows (a stats.Collector whole-run total, or one the engine
// keeps itself). NewSimTelemetry registers the rows and OnPublish publishes
// each row's delta against the previous publish, so several engines sharing
// one registry (a sweep's worker pool) aggregate into process-wide series. A
// new counter series is one row here and its line in METRICS.md
// (TestMetricsDocumented compares the two). The cycle count leads because the
// simulation rate and the progress tracker read row 0.
var simCounters = [...]struct{ name, help, source string }{
	{MetricCycles, "Simulated cycles.", "cycle"},
	{MetricInjectedFlits, "Flits offered by traffic sources.", "totalGenerated"},
	{MetricEjectedFlits, "Flits delivered at their destination.", "totalEjected"},
	{MetricDroppedFlits, "Flits dropped in the network (SCARAB, fault casualties).", "totalDropped"},
	{MetricRetransmits, "Source retransmissions scheduled (NACKs, fault recovery).", "retransmits"},
	{MetricDeflectedFlits, "Flits deflected away from a productive output port (bufferless designs).", "totalDeflected"},
	{MetricPacketsIn, "Packets injected into the network.", "totalPacketsInjected"},
	{MetricPacketsOut, "Packets fully delivered (reassembled).", "totalPacketsDelivered"},
	{MetricRouterSteps, "Router-steps executed by the activity-driven router phase (awake routers).", "routerSteps"},
	{MetricRouterSkipped, "Router-steps skipped because the router was quiescent with no new input.", "routerStepsSkipped"},
}

// SimTelemetryOptions configures NewSimTelemetry.
type SimTelemetryOptions struct {
	// Shards is the engine's resolved shard count; > 1 registers the
	// per-shard profiler series (labels shard="0"…).
	Shards int
	// LatencyBounds are the latency histogram's bucket upper bounds
	// (stats.LatencyBucketUppers). Empty disables the latency series.
	LatencyBounds []float64
	// Progress, when non-nil, is advanced to the engine's cycle count at
	// every publish (the /progress source for single runs).
	Progress *Progress
}

// SimGauges is the instantaneous network state only the engine can see,
// gathered once per cycle in which a publish or a time-series sample
// (stats.Collector.RecordSample) is due.
type SimGauges struct {
	// InFlightFlits is the number of live flits anywhere in the network —
	// queues, latches, links, buffers and the retransmit wheel (the flit
	// pool's outstanding count).
	InFlightFlits int
	// QueuedFlits is the total injection-queue backlog across all nodes.
	QueuedFlits int
	// BufferedFlits is the number of downstream buffer slots held by credit
	// flow control (consumed credits, including those riding the return
	// pipeline). Always 0 for bufferless designs.
	BufferedFlits int
}

// SimTelemetry is one engine's handle into a Registry: it owns the
// delta-tracking state that turns the engine's running totals into counter
// increments, the publish-interval clock, and the per-shard profiler series.
// One SimTelemetry serves one run (the runner builds a fresh one per run);
// the registry handles behind it are shared and may aggregate several
// concurrent engines.
//
// All methods are nil-safe: a nil *SimTelemetry is the disabled telemetry,
// and the engine publishes unconditionally. With a non-nil SimTelemetry over
// a nil Registry only Progress is maintained.
type SimTelemetry struct {
	nextPublish uint64

	progress *Progress

	counters                   [len(simCounters)]*Counter
	inFlight, queued, buffered *Gauge
	cyclesPerSec               *FloatGauge
	latency                    *Histogram

	shardBusy, shardWait []*FloatCounter
	shardImbalance       *FloatGauge

	last      [len(simCounters)]uint64
	lastGauge SimGauges
	lastRate  float64

	lastBusy, lastWait []time.Duration
	rateWall           time.Time
	rateCycle          uint64
}

// NewSimTelemetry registers the engine-facing series in r and returns the
// publication handle. r may be nil (progress-only telemetry).
func NewSimTelemetry(r *Registry, o SimTelemetryOptions) *SimTelemetry {
	t := &SimTelemetry{
		nextPublish: DefaultPublishInterval - 1,
		progress:    o.Progress,
		rateWall:    time.Now(),
	}
	for i, row := range simCounters {
		t.counters[i] = r.Counter(row.name, row.help)
	}
	t.inFlight = r.Gauge(MetricInFlight, "Live flits anywhere in the network (pool outstanding).")
	t.queued = r.Gauge(MetricQueued, "Flits waiting in source injection queues.")
	t.buffered = r.Gauge(MetricBuffered, "Downstream buffer slots held by credit flow control.")
	t.cyclesPerSec = r.FloatGauge(MetricCyclesPerSec, "Simulation speed over the last publish interval.")
	if len(o.LatencyBounds) > 0 {
		t.latency = r.Histogram(MetricLatency, "In-window packet latency distribution, in cycles.", o.LatencyBounds)
	}
	if o.Shards > 1 {
		t.shardBusy = make([]*FloatCounter, o.Shards)
		t.shardWait = make([]*FloatCounter, o.Shards)
		t.lastBusy = make([]time.Duration, o.Shards)
		t.lastWait = make([]time.Duration, o.Shards)
		for i := 0; i < o.Shards; i++ {
			l := Label{Key: "shard", Value: strconv.Itoa(i)}
			t.shardBusy[i] = r.FloatCounter(MetricShardBusy, "Cumulative time per shard inside its tile's phases: router steps, link landing and launch, ejection, credit ticks.", l)
			t.shardWait[i] = r.FloatCounter(MetricShardWait, "Cumulative barrier-wait time per shard: the parallel phases' wall time, coordinator's release to last arrival seen, minus the shard's busy time (wake-up latency plus idling for the slowest shard).", l)
		}
		t.shardImbalance = r.FloatGauge(MetricShardImbalance, "Max/mean cumulative tile-phase time across shards (1.0 = perfectly balanced).")
	}
	return t
}

// Latency returns the registered latency histogram (nil when disabled); the
// engine hands it to the collector's publish method.
func (t *SimTelemetry) Latency() *Histogram {
	if t == nil {
		return nil
	}
	return t.latency
}

// PublishDue reports whether a publication (OnPublish and the latency
// histogram) is due at cycle c. False on nil telemetry.
func (t *SimTelemetry) PublishDue(c uint64) bool {
	return t != nil && c >= t.nextPublish
}

// OnPublish publishes every engine series at cycle c: the simCounters rows as
// deltas of the running totals (read is called with each row's source),
// progress, gauge deltas, the simulation rate, and — when busy/wait are
// non-empty — the per-shard profiler series and the imbalance ratio. busy and
// wait are the backend's cumulative per-shard tile-phase and barrier-wait
// times. Allocation-free.
func (t *SimTelemetry) OnPublish(c uint64, read func(source string) uint64, g SimGauges, busy, wait []time.Duration) {
	if t == nil {
		return
	}
	t.nextPublish = c + DefaultPublishInterval

	for i, row := range simCounters {
		now := read(row.source)
		t.counters[i].Add(now - t.last[i])
		t.last[i] = now
	}
	cycles := t.last[0]
	t.progress.Set(cycles)

	t.setGauges(g)

	now := time.Now()
	if dt := now.Sub(t.rateWall).Seconds(); dt > 0 {
		rate := float64(cycles-t.rateCycle) / dt
		t.cyclesPerSec.Add(rate - t.lastRate)
		t.lastRate = rate
	}
	t.rateWall = now
	t.rateCycle = cycles

	if len(busy) == 0 || t.shardBusy == nil {
		return
	}
	n := len(busy)
	if n > len(t.shardBusy) {
		n = len(t.shardBusy)
	}
	var total, max time.Duration
	for i := 0; i < n; i++ {
		t.shardBusy[i].Add((busy[i] - t.lastBusy[i]).Seconds())
		t.shardWait[i].Add((wait[i] - t.lastWait[i]).Seconds())
		t.lastBusy[i] = busy[i]
		t.lastWait[i] = wait[i]
		total += busy[i]
		if busy[i] > max {
			max = busy[i]
		}
	}
	if total > 0 {
		t.shardImbalance.Set(float64(max) * float64(n) / float64(total))
	}
}

// setGauges moves the shared gauges by this engine's change since its last
// reading, so concurrent engines contribute additively.
func (t *SimTelemetry) setGauges(g SimGauges) {
	t.inFlight.Add(int64(g.InFlightFlits - t.lastGauge.InFlightFlits))
	t.queued.Add(int64(g.QueuedFlits - t.lastGauge.QueuedFlits))
	t.buffered.Add(int64(g.BufferedFlits - t.lastGauge.BufferedFlits))
	t.lastGauge = g
}

// Detach removes this engine's contribution from the shared gauges (a
// finished run must not leave stale in-flight or rate readings behind) and
// stops advancing progress. Counters — cumulative by design — stay. The
// runner calls it after the run's final flush.
func (t *SimTelemetry) Detach() {
	if t == nil {
		return
	}
	t.setGauges(SimGauges{})
	t.cyclesPerSec.Add(-t.lastRate)
	t.lastRate = 0
}
