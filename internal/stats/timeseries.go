package stats

import "dxbar/internal/metrics"

// Time-series sampling: periodic snapshots of network state taken from the
// engine's cycle loop. Averaged-over-the-window metrics hide transients —
// saturation onset, the queue growth behind a fault's BIST detection window,
// drain behaviour after a burst — so the collector can keep a ring of
// per-interval samples alongside its scalar counters. The ring is
// preallocated by EnableTimeSeries and recording a sample never allocates;
// when the ring fills it overwrites the oldest sample, keeping the most
// recent window of the run.

// Sample is one periodic snapshot.
type Sample struct {
	// Cycle is the cycle the sample was taken at.
	Cycle uint64
	// InjectedFlits and EjectedFlits are flow deltas since the previous
	// sample (unwindowed, so warmup transients are visible too).
	InjectedFlits uint64
	EjectedFlits  uint64
	// InFlightFlits, QueuedFlits and BufferedFlits are the engine's gauges
	// (metrics.SimGauges) at the sample point.
	InFlightFlits int
	QueuedFlits   int
	BufferedFlits int
}

// timeSeries is the preallocated sample ring.
type timeSeries struct {
	interval uint64
	next     uint64 // next cycle to sample at
	ring     []Sample
	head     int // index of the oldest sample
	size     int
	// lastGen/lastEject are the cumulative counter values at the previous
	// sample, for delta computation.
	lastGen, lastEject uint64
}

// EnableTimeSeries switches on periodic sampling every interval cycles with
// a ring of the given capacity (older samples are overwritten once full).
// Must be called before the run starts.
func (c *Collector) EnableTimeSeries(interval uint64, capacity int) {
	if interval == 0 || capacity <= 0 {
		panic("stats: invalid time-series configuration")
	}
	c.ts = &timeSeries{
		interval: interval,
		next:     interval - 1, // sample at the end of each interval
		ring:     make([]Sample, capacity),
	}
}

// SampleInterval returns the sampling interval (0 when sampling is off).
func (c *Collector) SampleInterval() uint64 {
	if c.ts == nil {
		return 0
	}
	return c.ts.interval
}

// SampleDue reports whether the engine should record a sample this cycle.
// It is called once per cycle and is a nil check plus a compare.
func (c *Collector) SampleDue(cycle uint64) bool {
	return c.ts != nil && cycle >= c.ts.next
}

// RecordSample stores one snapshot. The engine calls it at the end of a
// cycle for which SampleDue returned true; the collector fills in the flow
// deltas from its cumulative counters. Never allocates.
func (c *Collector) RecordSample(cycle uint64, p metrics.SimGauges) {
	ts := c.ts
	if ts == nil {
		return
	}
	s := Sample{
		Cycle:         cycle,
		InjectedFlits: c.n[totalGenerated] - ts.lastGen,
		EjectedFlits:  c.n[totalEjected] - ts.lastEject,
		InFlightFlits: p.InFlightFlits,
		QueuedFlits:   p.QueuedFlits,
		BufferedFlits: p.BufferedFlits,
	}
	ts.lastGen = c.n[totalGenerated]
	ts.lastEject = c.n[totalEjected]
	if ts.size < len(ts.ring) {
		ts.ring[(ts.head+ts.size)%len(ts.ring)] = s
		ts.size++
	} else {
		ts.ring[ts.head] = s
		ts.head = (ts.head + 1) % len(ts.ring)
	}
	ts.next = cycle + ts.interval
}

// Samples returns the recorded snapshots in chronological order (nil when
// sampling was never enabled). It copies out of the ring and is meant for
// end-of-run export.
func (c *Collector) Samples() []Sample {
	if c.ts == nil {
		return nil
	}
	ts := c.ts
	out := make([]Sample, ts.size)
	for i := 0; i < ts.size; i++ {
		out[i] = ts.ring[(ts.head+i)%len(ts.ring)]
	}
	return out
}
