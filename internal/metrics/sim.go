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

// Metric names published by the run ledger (dxbar.Config.LedgerDir) and the
// SSE streaming hub (the /events endpoint).
const (
	MetricLedgerRecords   = "dxbar_ledger_records_total"
	MetricLedgerReuseHits = "dxbar_ledger_reuse_hits_total"
	MetricSSEClients      = "dxbar_sse_clients"
	MetricSSEFrames       = "dxbar_sse_frames_total"
	MetricSSEDropped      = "dxbar_sse_dropped_frames_total"
)

// DefaultPublishInterval is the gauge/histogram/shard-profile publish period
// in cycles. Counters publish every cycle (a handful of atomic adds); the
// interval only paces the O(nodes) gauge scans and the histogram copy.
const DefaultPublishInterval = 64

// SimTelemetryOptions configures NewSimTelemetry.
type SimTelemetryOptions struct {
	// Shards is the engine's resolved shard count; > 1 registers the
	// per-shard profiler series (labels shard="0"…).
	Shards int
	// LatencyBounds are the latency histogram's bucket upper bounds
	// (stats.LatencyBucketUppers). Empty disables the latency series.
	LatencyBounds []float64
	// Interval overrides DefaultPublishInterval (cycles between gauge /
	// histogram / shard publishes).
	Interval uint64
	// Progress, when non-nil, is advanced to the engine's cycle count every
	// cycle (the /progress source for single runs).
	Progress *Progress
}

// SimCounters is the per-cycle publication payload: running totals the
// engine reads off its collector and its own state. SimTelemetry converts
// them to deltas, so several engines sharing one registry (a sweep's worker
// pool) aggregate into process-wide series.
type SimCounters struct {
	Cycles           uint64
	InjectedFlits    uint64
	EjectedFlits     uint64
	DroppedFlits     uint64
	RetransmitFlits  uint64
	DeflectedFlits   uint64
	PacketsInjected  uint64
	PacketsDelivered uint64
}

// SimGauges is the interval publication payload: instantaneous network state
// only the engine can see.
type SimGauges struct {
	InFlightFlits int
	QueuedFlits   int
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
	interval    uint64
	nextPublish uint64

	progress *Progress

	cycles, injected, ejected, dropped, retransmitted *Counter
	deflected                                         *Counter
	packetsIn, packetsOut                             *Counter
	inFlight, queued, buffered                        *Gauge
	cyclesPerSec                                      *FloatGauge
	latency                                           *Histogram
	routerSteps, routerSkipped                        *Counter

	shardBusy, shardWait []*FloatCounter
	shardImbalance       *FloatGauge

	last      SimCounters
	lastGauge SimGauges
	lastRate  float64

	lastSteps, lastSkipped uint64
	lastBusy, lastWait     []time.Duration
	rateWall               time.Time
	rateCycle              uint64
}

// NewSimTelemetry registers the engine-facing series in r and returns the
// publication handle. r may be nil (progress-only telemetry).
func NewSimTelemetry(r *Registry, o SimTelemetryOptions) *SimTelemetry {
	t := &SimTelemetry{
		interval: o.Interval,
		progress: o.Progress,
		rateWall: time.Now(),
	}
	if t.interval == 0 {
		t.interval = DefaultPublishInterval
	}
	t.nextPublish = t.interval - 1
	t.cycles = r.Counter(MetricCycles, "Simulated cycles.")
	t.injected = r.Counter(MetricInjectedFlits, "Flits offered by traffic sources.")
	t.ejected = r.Counter(MetricEjectedFlits, "Flits delivered at their destination.")
	t.dropped = r.Counter(MetricDroppedFlits, "Flits dropped in the network (SCARAB, fault casualties).")
	t.retransmitted = r.Counter(MetricRetransmits, "Source retransmissions scheduled (NACKs, fault recovery).")
	t.deflected = r.Counter(MetricDeflectedFlits, "Flits deflected away from a productive output port (bufferless designs).")
	t.packetsIn = r.Counter(MetricPacketsIn, "Packets injected into the network.")
	t.packetsOut = r.Counter(MetricPacketsOut, "Packets fully delivered (reassembled).")
	t.inFlight = r.Gauge(MetricInFlight, "Live flits anywhere in the network (pool outstanding).")
	t.queued = r.Gauge(MetricQueued, "Flits waiting in source injection queues.")
	t.buffered = r.Gauge(MetricBuffered, "Downstream buffer slots held by credit flow control.")
	t.cyclesPerSec = r.FloatGauge(MetricCyclesPerSec, "Simulation speed over the last publish interval.")
	t.routerSteps = r.Counter(MetricRouterSteps, "Router-steps executed by the activity-driven router phase (awake routers).")
	t.routerSkipped = r.Counter(MetricRouterSkipped, "Router-steps skipped because the router was quiescent with no new input.")
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

// OnCycle publishes the cheap per-cycle series: counter deltas against the
// previous call, plus the progress tracker. Allocation-free.
func (t *SimTelemetry) OnCycle(now SimCounters) {
	if t == nil {
		return
	}
	t.cycles.Add(now.Cycles - t.last.Cycles)
	t.injected.Add(now.InjectedFlits - t.last.InjectedFlits)
	t.ejected.Add(now.EjectedFlits - t.last.EjectedFlits)
	t.dropped.Add(now.DroppedFlits - t.last.DroppedFlits)
	t.retransmitted.Add(now.RetransmitFlits - t.last.RetransmitFlits)
	t.deflected.Add(now.DeflectedFlits - t.last.DeflectedFlits)
	t.packetsIn.Add(now.PacketsInjected - t.last.PacketsInjected)
	t.packetsOut.Add(now.PacketsDelivered - t.last.PacketsDelivered)
	t.last = now
	t.progress.Set(now.Cycles)
}

// PublishDue reports whether the interval publication (OnPublish and the
// latency histogram) is due at cycle c. False on nil telemetry.
func (t *SimTelemetry) PublishDue(c uint64) bool {
	return t != nil && c >= t.nextPublish
}

// OnPublish publishes the interval series: gauge deltas, the simulation
// rate, and — when busy/wait are non-empty — the per-shard profiler series
// and the imbalance ratio. busy and wait are the backend's cumulative
// per-shard router-phase and barrier-wait times. Allocation-free.
func (t *SimTelemetry) OnPublish(c uint64, g SimGauges, busy, wait []time.Duration) {
	if t == nil {
		return
	}
	t.nextPublish = c + t.interval

	t.inFlight.Add(int64(g.InFlightFlits - t.lastGauge.InFlightFlits))
	t.queued.Add(int64(g.QueuedFlits - t.lastGauge.QueuedFlits))
	t.buffered.Add(int64(g.BufferedFlits - t.lastGauge.BufferedFlits))
	t.lastGauge = g

	now := time.Now()
	if dt := now.Sub(t.rateWall).Seconds(); dt > 0 {
		rate := float64(t.last.Cycles-t.rateCycle) / dt
		t.cyclesPerSec.Add(rate - t.lastRate)
		t.lastRate = rate
	}
	t.rateWall = now
	t.rateCycle = t.last.Cycles

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

// OnRouterSteps publishes the activity-driven router phase's running totals
// at the publish interval: router-steps executed and router-steps skipped
// (delta-tracked, like every engine counter). Their sum is nodes × cycles;
// skipped ÷ sum is the share of the router phase the run did not pay for.
// Allocation-free.
func (t *SimTelemetry) OnRouterSteps(executed, skipped uint64) {
	if t == nil {
		return
	}
	t.routerSteps.Add(executed - t.lastSteps)
	t.routerSkipped.Add(skipped - t.lastSkipped)
	t.lastSteps, t.lastSkipped = executed, skipped
}

// Detach removes this engine's contribution from the shared gauges (a
// finished run must not leave stale in-flight or rate readings behind) and
// stops advancing progress. Counters — cumulative by design — stay. The
// runner calls it after the run's final flush.
func (t *SimTelemetry) Detach() {
	if t == nil {
		return
	}
	t.inFlight.Add(int64(-t.lastGauge.InFlightFlits))
	t.queued.Add(int64(-t.lastGauge.QueuedFlits))
	t.buffered.Add(int64(-t.lastGauge.BufferedFlits))
	t.lastGauge = SimGauges{}
	t.cyclesPerSec.Add(-t.lastRate)
	t.lastRate = 0
}
