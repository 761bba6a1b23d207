package stats

import "dxbar/internal/metrics"

// Live-telemetry bridge: the whole-run totals and the latency-histogram
// export the engine publishes at the metrics interval. All of these are plain
// reads or a fixed-size copy — nothing here allocates, so the cycle loop keeps
// its zero-allocation steady state with telemetry enabled.

// TotalEjected returns flits delivered across the whole run — a getter of its
// own because the progress watchdog reads it every cycle.
func (c *Collector) TotalEjected() uint64 { return c.n[totalEjected] }

// Total returns the whole-run total called name (totalNames): how the
// telemetry counter table (internal/metrics) names its sources, and how every
// reader off the cycle path gets one. An unknown name is a bug and panics.
func (c *Collector) Total(name string) uint64 {
	for i, n := range totalNames {
		if n == name {
			return c.n[i]
		}
	}
	panic("stats: no whole-run total named " + name)
}

// PublishLatency copies the in-window latency distribution into h
// (registered with LatencyBucketUppers bounds). The histogram's fixed bucket
// array maps 1:1 onto the metrics bounds, so this is a straight copy under
// h's mutex — no allocation, no iteration over packets.
func (c *Collector) PublishLatency(h *metrics.Histogram) {
	h.Update(c.latHist.counts[:], c.latHist.total, float64(c.n[latencySum]))
}

// LatencyBucketUppers returns the inclusive upper bound of every latency
// histogram bucket, ascending — the bounds a metrics.Histogram must be
// registered with for PublishLatency to align. Allocates; call once at
// telemetry setup.
func LatencyBucketUppers() []float64 {
	out := make([]float64, histBuckets)
	for i := range out {
		_, high := bucketBounds(i)
		out[i] = float64(high)
	}
	return out
}
