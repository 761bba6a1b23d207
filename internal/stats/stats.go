// Package stats collects the performance metrics the paper reports:
// accepted throughput (flits per node per cycle, as a fraction of the
// 1 flit/node/cycle injection capacity), average and maximum packet latency,
// and the microarchitectural event counters (deflections, retransmissions,
// bufferings) that explain the energy results, energy counts included.
//
// Measurements follow the standard warmup/measurement-window methodology:
// only packets *injected* inside the window count toward latency, and only
// flits generated/ejected inside the window count toward offered/accepted
// load.
package stats

import (
	"dxbar/internal/energy"
	"dxbar/internal/flit"
)

// Collector accumulates metrics for one simulation run.
type Collector struct {
	nodes      int
	start, end uint64 // measurement window [start, end)

	// n is the counter block: every summed event count of the run, indexed by
	// the counter enum below. Everything that must treat the counters alike —
	// tile absorption, the snapshot section — loops
	// over it, so a counter is declared once, in the enum.
	n [numCounters]uint64
	// latencyMax is a maximum, not a sum, so it lives outside the block: a
	// loop that adds blocks together must not touch it.
	latencyMax uint64

	// droppedByNode counts in-window drops at each router, so heatmaps can
	// show *where* drops cluster instead of only how many happened.
	droppedByNode []uint64

	// latHist is the in-window packet-latency distribution. It lives inline
	// so recording a latency never allocates.
	latHist Histogram

	// ts is the optional time-series sample ring (see timeseries.go).
	ts *timeSeries

	// linkUse[n][p] counts window traversals of node n's output port p
	// (nil unless EnableLinkUtilization was called); utilWidth/utilHeight
	// are the mesh dimensions, used to average only over links that exist.
	linkUse               [][]uint64
	utilWidth, utilHeight int
}

// counter indexes Collector.n. The order is the STAT snapshot section's
// scalar order (Collector.State), so entries are appended at the end or the
// format changes; latencyMax is serialized between latencySum and hopSum.
type counter uint8

const (
	generatedFlits counter = iota // in-window flits offered by sources
	ejectedFlits                  // in-window flits delivered
	// The total* counters cover the whole run (no window): the time-series
	// sampler derives per-interval flow deltas from the flit totals, and live
	// telemetry (internal/metrics) publishes them as monotonic counters.
	totalGenerated
	totalEjected
	totalDropped
	totalDeflected
	totalPacketsInjected
	totalPacketsDelivered
	packets         // completed packets injected in-window
	packetsInjected // packets injected in-window (PacketInjected)
	latencySum
	hopSum
	deflectSum
	retransSum
	bufferedSum   // buffering events observed via BufferingEvent
	routedFlits   // flit-router traversals observed via RoutedEvent
	droppedFlits  // in-window drops; droppedByNode is their per-router split
	fairnessFlips // priority flips observed via FairnessFlip
	// The energy model's own events (EnergyCounts); its crossbar traversals
	// and buffer writes are routedFlits and bufferedSum.
	linkTraversals // flit-hops launched onto links
	bufferReads    // flits read out of a buffer
	nackHops       // hops on SCARAB's NACK network
	numCounters
)

// totalNames gives the whole-run totals the names telemetry reads them by
// (Total). A counter nobody looks up by name needs no entry.
var totalNames = [numCounters]string{
	totalGenerated:        "totalGenerated",
	totalEjected:          "totalEjected",
	totalDropped:          "totalDropped",
	totalDeflected:        "totalDeflected",
	totalPacketsInjected:  "totalPacketsInjected",
	totalPacketsDelivered: "totalPacketsDelivered",
}

// NewCollector returns a collector for a network with the given node count
// and measurement window [start, end).
func NewCollector(nodes int, start, end uint64) *Collector {
	if nodes <= 0 || end <= start {
		panic("stats: invalid collector configuration")
	}
	return &Collector{
		nodes: nodes, start: start, end: end,
		droppedByNode: make([]uint64, nodes),
	}
}

// InWindow reports whether a cycle falls inside the measurement window.
func (c *Collector) InWindow(cycle uint64) bool {
	return cycle >= c.start && cycle < c.end
}

// GeneratedFlits records n flits offered by sources at the given cycle.
func (c *Collector) GeneratedFlits(cycle uint64, n int) {
	c.n[totalGenerated] += uint64(n)
	if c.InWindow(cycle) {
		c.n[generatedFlits] += uint64(n)
	}
}

// EjectedFlit records one flit delivered at the given cycle.
func (c *Collector) EjectedFlit(cycle uint64) {
	c.n[totalEjected]++
	if c.InWindow(cycle) {
		c.n[ejectedFlits]++
	}
}

// PacketInjected records one packet entering the network at the given
// cycle. Paired with PacketDone it exposes the packets still in flight when
// the run ends (Results.InFlightPackets) — completed-only latency counting
// is biased downward exactly when the network saturates, because the
// slowest packets are the ones that have not finished yet.
func (c *Collector) PacketInjected(cycle uint64) {
	c.n[totalPacketsInjected]++
	if c.InWindow(cycle) {
		c.n[packetsInjected]++
	}
}

// PacketDone records a completed packet. Latency spans generation to
// delivery of the last flit (source queueing included). Only packets
// injected inside the window contribute.
func (c *Collector) PacketDone(p flit.Packet) {
	c.n[totalPacketsDelivered]++
	if !c.InWindow(p.InjectionCycle) {
		return
	}
	lat := p.CompletionCycle - p.InjectionCycle
	c.n[packets]++
	c.n[latencySum] += lat
	if lat > c.latencyMax {
		c.latencyMax = lat
	}
	c.latHist.Record(lat)
	c.n[hopSum] += uint64(p.Hops)
	c.n[deflectSum] += uint64(p.Deflections)
	c.n[retransSum] += uint64(p.Retransmits)
}

// BufferingEvent records one flit entering a buffer. Like the other event
// recorders, only events inside the measurement window are counted, so the
// buffering probability is the windowed ratio of buffer entries to switch
// traversals.
func (c *Collector) BufferingEvent(cycle uint64) {
	if c.InWindow(cycle) {
		c.n[bufferedSum]++
	}
}

// RoutedEvent records one flit traversing a router (switch traversal).
func (c *Collector) RoutedEvent(cycle uint64) {
	if c.InWindow(cycle) {
		c.n[routedFlits]++
	}
}

// BufferRead records one flit read out of a buffer.
func (c *Collector) BufferRead(cycle uint64) {
	if c.InWindow(cycle) {
		c.n[bufferReads]++
	}
}

// LinkTraversals records n flits launched onto inter-router links at the
// given cycle (the engine's link phase adds its per-cycle count at once).
func (c *Collector) LinkTraversals(cycle uint64, n int) {
	if c.InWindow(cycle) {
		c.n[linkTraversals] += uint64(n)
	}
}

// NackHops records a NACK of the given hop count on SCARAB's dedicated
// network.
func (c *Collector) NackHops(cycle uint64, hops int) {
	if c.InWindow(cycle) {
		c.n[nackHops] += uint64(hops)
	}
}

// EnergyCounts returns the in-window energy-model event counts. A crossbar
// traversal is a routed flit and a buffer write a buffering event, so two of
// the five are lines the buffering probability also reads.
func (c *Collector) EnergyCounts() energy.Counts {
	return energy.Counts{
		CrossbarTraversals: c.n[routedFlits],
		LinkTraversals:     c.n[linkTraversals],
		BufferWrites:       c.n[bufferedSum],
		BufferReads:        c.n[bufferReads],
		NackHops:           c.n[nackHops],
	}
}

// DroppedFlit records one flit dropped at the given node (SCARAB, or an
// undetected-fault casualty that will be recovered by retransmission).
func (c *Collector) DroppedFlit(cycle uint64, node int) {
	c.n[totalDropped]++
	if c.InWindow(cycle) {
		c.n[droppedFlits]++
		c.droppedByNode[node]++
	}
}

// DeflectedFlit records one flit deflected away from every productive
// output port (bufferless designs). Whole-run total, no window: it feeds the
// deflection-storm detector and the dxbar_flits_deflected_total counter,
// both of which window it themselves (per-packet windowed deflections come
// from PacketDone).
func (c *Collector) DeflectedFlit() {
	c.n[totalDeflected]++
}

// FairnessFlip records one fairness-counter priority flip (§II.A.2): the
// router's incoming flits won often enough, with flits waiting, that
// priority flipped to the waiters (DXbar/unified).
func (c *Collector) FairnessFlip(cycle uint64) {
	if c.InWindow(cycle) {
		c.n[fairnessFlips]++
	}
}

// Scratch returns an empty collector with the same node count and
// measurement window, for staging the events one tile of the sharded cycle
// engine records during its phase. The window must match so the scratch
// applies the same in-window gating the real collector would.
func (c *Collector) Scratch() *Collector {
	return NewCollector(c.nodes, c.start, c.end)
}

// AbsorbTile folds the counters a tile staged in s back into c and zeroes
// them: the whole block, then the per-node drop rows. A tile's worker reaches
// its scratch through the routers' BufferingEvent, RoutedEvent, BufferRead,
// NackHops, DroppedFlit, DeflectedFlit and FairnessFlip and the link phase's
// EjectedFlit and LinkTraversals (generation
// and completed packets are recorded on the real collector by the
// coordinating goroutine, and LinkEvent writes per-node rows there directly),
// but nothing here depends on that list — a counter a tile bumps is absorbed
// because it is in the block. All are commutative sums, which is why
// barrier-time absorption in any tile order reproduces the sequential totals
// bit-identically; latencyMax is not a sum and no tile records latencies.
func (c *Collector) AbsorbTile(s *Collector) {
	dropped := s.n[droppedFlits] // droppedByNode holds in-window drops only
	for i, v := range s.n {
		c.n[i] += v
	}
	s.n = [numCounters]uint64{}
	if dropped == 0 {
		return
	}
	for i, v := range s.droppedByNode {
		if v != 0 {
			c.droppedByNode[i] += v
			s.droppedByNode[i] = 0
		}
	}
}

// Results summarizes a run.
type Results struct {
	// OfferedLoad and AcceptedLoad are flits per node per cycle.
	OfferedLoad  float64
	AcceptedLoad float64
	// AvgLatency and MaxLatency are in cycles; AvgLatency is 0 when no
	// packet completed.
	AvgLatency float64
	MaxLatency uint64
	// P50Latency, P90Latency and P99Latency are nearest-rank latency
	// percentiles in cycles, from the fixed-bucket histogram (at most 1/32
	// relative overshoot; 0 when no packet completed).
	P50Latency uint64
	P90Latency uint64
	P99Latency uint64
	// Packets is the number of completed packets counted.
	Packets uint64
	// InFlightPackets is the number of packets injected inside the window
	// that had not completed when the run ended. A non-negligible count
	// means the latency figures are truncated: the slowest packets are
	// missing from them (saturated or fault-degraded runs).
	InFlightPackets uint64
	// LatencyHistogram is a snapshot of the in-window latency distribution
	// (nil when no packet completed). Use it for percentile queries beyond
	// the precomputed ones and for structured export.
	LatencyHistogram *Histogram
	// AvgHops is the mean per-packet total link traversals.
	AvgHops float64
	// DeflectionsPerPacket and RetransmitsPerPacket explain bufferless
	// energy inflation.
	DeflectionsPerPacket float64
	RetransmitsPerPacket float64
	// BufferingProbability is buffering events per switch traversal — the
	// paper reports ~1/6 for DXbar past saturation.
	BufferingProbability float64
	// DroppedFlits counts drop events inside the window.
	DroppedFlits uint64
	// DroppedByNode is the per-router breakdown of DroppedFlits, indexed by
	// node (nil when no flit was dropped). Feeds the drop heatmap.
	DroppedByNode []uint64
	// FairnessFlips counts in-window fairness-counter priority flips summed
	// over all routers (§II.A.2; 0 for designs without the counter).
	FairnessFlips uint64
}

// Truncate clamps the measurement window's end to cycle. Interrupted runs
// call this so per-cycle rates are normalized by the cycles actually
// simulated, not the configured window that never completed.
func (c *Collector) Truncate(cycle uint64) {
	if cycle < c.end {
		c.end = cycle
		if c.end < c.start {
			c.end = c.start
		}
	}
}

// Results computes the summary over the measurement window.
func (c *Collector) Results() Results {
	window := float64(c.end - c.start)
	if window <= 0 {
		window = 1 // run interrupted before the window opened: no rates to report
	}
	r := Results{
		OfferedLoad:   float64(c.n[generatedFlits]) / (window * float64(c.nodes)),
		AcceptedLoad:  float64(c.n[ejectedFlits]) / (window * float64(c.nodes)),
		MaxLatency:    c.latencyMax,
		Packets:       c.n[packets],
		DroppedFlits:  c.n[droppedFlits],
		FairnessFlips: c.n[fairnessFlips],
	}
	if c.n[droppedFlits] > 0 {
		r.DroppedByNode = append([]uint64(nil), c.droppedByNode...)
	}
	if c.n[packets] > 0 {
		r.AvgLatency = float64(c.n[latencySum]) / float64(c.n[packets])
		r.AvgHops = float64(c.n[hopSum]) / float64(c.n[packets])
		r.DeflectionsPerPacket = float64(c.n[deflectSum]) / float64(c.n[packets])
		r.RetransmitsPerPacket = float64(c.n[retransSum]) / float64(c.n[packets])
		r.P50Latency = c.latHist.Quantile(0.50)
		r.P90Latency = c.latHist.Quantile(0.90)
		r.P99Latency = c.latHist.Quantile(0.99)
		r.LatencyHistogram = c.latHist.snapshot()
	}
	if c.n[packetsInjected] > c.n[packets] {
		r.InFlightPackets = c.n[packetsInjected] - c.n[packets]
	}
	if c.n[routedFlits] > 0 {
		r.BufferingProbability = float64(c.n[bufferedSum]) / float64(c.n[routedFlits])
	}
	return r
}
