package dxbar

// This file is the observability facade: conversions from a Result into the
// simulator-free export shapes of internal/report (histogram records,
// time-series records, latency comparison rows) and the SVG renderers of
// internal/viz (latency CDFs, time-series sparklines). The CLIs and examples
// go through these instead of reaching into the internal packages.

import (
	"strings"

	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/report"
	"dxbar/internal/stats"
	"dxbar/internal/viz"
)

// HistogramRecordFor converts a run's latency distribution into the export
// shape. Buckets is empty when no packet completed.
func HistogramRecordFor(label string, r Result) report.HistogramRecord {
	rec := report.HistogramRecord{
		Series: label, Load: r.Load,
		Packets: r.Packets, InFlight: r.InFlightPackets,
		P50: r.P50Latency, P90: r.P90Latency, P99: r.P99Latency, Max: r.MaxLatency,
	}
	if r.LatencyHistogram != nil {
		for _, b := range r.LatencyHistogram.Buckets() {
			rec.Buckets = append(rec.Buckets, report.HistogramBucket{Low: b.Low, High: b.High, Count: b.Count})
		}
	}
	return rec
}

// TimeSeriesRecordFor converts a run's sampled time series into the export
// shape. Samples is empty when sampling was not enabled.
func TimeSeriesRecordFor(label string, r Result) report.TimeSeriesRecord {
	rec := report.TimeSeriesRecord{Series: label, Interval: r.SampleInterval}
	for _, s := range r.TimeSeries {
		rec.Samples = append(rec.Samples, report.TimeSample{
			Cycle:         s.Cycle,
			InjectedFlits: s.InjectedFlits,
			EjectedFlits:  s.EjectedFlits,
			InFlightFlits: s.InFlightFlits,
			QueuedFlits:   s.QueuedFlits,
			BufferedFlits: s.BufferedFlits,
		})
	}
	return rec
}

// LatencyRowFor converts a run into one latency comparison row for
// report.LatencyTable.
func LatencyRowFor(label string, r Result) report.LatencyRow {
	return report.LatencyRow{
		Label: label, Load: r.Load, Packets: r.Packets,
		AvgLatency: r.AvgLatency,
		P50:        r.P50Latency, P90: r.P90Latency, P99: r.P99Latency, Max: r.MaxLatency,
		InFlight: r.InFlightPackets,
	}
}

// LatencyCDFSVG renders the latency CDFs of labelled results as a standalone
// SVG step plot. Results without a completed packet are skipped.
func LatencyCDFSVG(title string, labels []string, results []Result) string {
	chart := viz.Chart{Title: title,
		XLabel: "packet latency (cycles)", YLabel: "fraction of packets"}
	for i, r := range results {
		if r.LatencyHistogram == nil || r.LatencyHistogram.Count() == 0 {
			continue
		}
		total := float64(r.LatencyHistogram.Count())
		var xs, ys []float64
		var cum uint64
		for _, b := range r.LatencyHistogram.Buckets() {
			cum += b.Count
			xs = append(xs, float64(b.High))
			ys = append(ys, float64(cum)/total)
		}
		chart.Series = append(chart.Series, viz.Series{Label: labels[i], X: xs, Y: ys})
	}
	return viz.CDFSVG(chart)
}

// TimeSeriesSVG renders a run's sampled time series as sparkline rows
// (ejected flits per interval, in-flight, queued and buffered flit gauges).
func TimeSeriesSVG(title string, r Result) string {
	n := len(r.TimeSeries)
	cycles := make([]float64, n)
	ejected := make([]float64, n)
	inflight := make([]float64, n)
	queued := make([]float64, n)
	buffered := make([]float64, n)
	for i, s := range r.TimeSeries {
		cycles[i] = float64(s.Cycle)
		ejected[i] = float64(s.EjectedFlits)
		inflight[i] = float64(s.InFlightFlits)
		queued[i] = float64(s.QueuedFlits)
		buffered[i] = float64(s.BufferedFlits)
	}
	return viz.SparklineSVG(viz.Chart{Title: title, Series: []viz.Series{
		{Label: "ejected/interval", X: cycles, Y: ejected},
		{Label: "in-flight flits", X: cycles, Y: inflight},
		{Label: "queued flits", X: cycles, Y: queued},
		{Label: "buffered flits", X: cycles, Y: buffered},
	}})
}

// Re-exported report writers, so CLI/example code can emit the structured
// observability formats without importing the internal package.

// WriteHistogramsNDJSON, WriteHistogramsCSV, WriteTimeSeriesNDJSON and
// WriteTimeSeriesCSV are the structured exporters of internal/report.
var (
	WriteHistogramsNDJSON = report.WriteHistogramsNDJSON
	WriteHistogramsCSV    = report.WriteHistogramsCSV
	WriteTimeSeriesNDJSON = report.WriteTimeSeriesNDJSON
	WriteTimeSeriesCSV    = report.WriteTimeSeriesCSV
)

// LatencyTableText renders per-design latency rows (from LatencyRowFor) as
// the plain-text comparison table, flagging truncated runs.
func LatencyTableText(title string, rows []report.LatencyRow) string {
	var b strings.Builder
	_ = report.WriteTableText(&b, report.LatencyTable(title, rows))
	return b.String()
}

// ShardProfileText renders a profiled run's shard execution profile as a
// plain-text table with the imbalance summary. A persistently near-zero
// barrier wait marks the bottleneck shard; see EXPERIMENTS.md for how to
// read the imbalance ratio.
func ShardProfileText(title string, r Result) string {
	if len(r.ShardProfile) == 0 {
		return "(run was not sharded or Config.ShardProfile was off)"
	}
	rows := make([]report.ShardProfileRow, len(r.ShardProfile))
	for i, p := range r.ShardProfile {
		rows[i] = report.ShardProfileRow{Shard: p.Shard, Nodes: p.Nodes,
			BusySeconds: p.RouterPhase.Seconds(), WaitSeconds: p.BarrierWait.Seconds()}
	}
	var b strings.Builder
	_ = report.WriteTableText(&b, report.ShardProfileTable(title, rows))
	return b.String()
}

// Flight-recorder facade: conversions from a traced Result's event log into
// the report/viz shapes, plus per-packet path reconstruction. See
// Config.EventTrace and internal/events.

// TraceRecordFor converts a traced run's event log into the Chrome
// trace-export shape (WriteChromeTrace / Perfetto). Events is empty when the
// run was not traced.
func TraceRecordFor(label string, r Result) report.TraceRecord {
	rec := report.TraceRecord{Series: label, Width: r.Width, Height: r.Height}
	for _, e := range r.Events {
		rec.Events = append(rec.Events, report.TraceFlitEvent{
			Cycle:    e.Cycle,
			Kind:     e.Kind.String(),
			Node:     int(e.Node),
			Port:     portName(e.Port),
			PacketID: e.PacketID,
			FlitID:   e.FlitID,
			Detail:   e.Detail,
			PerFlit:  e.Kind.PerFlit(),
		})
	}
	return rec
}

// portName renders an event's port for export ("" when not meaningful).
func portName(p flit.Port) string {
	if p == flit.Invalid {
		return ""
	}
	return p.String()
}

// WriteChromeTrace is the Chrome trace-event JSON exporter of
// internal/report (load the output at ui.perfetto.dev).
var WriteChromeTrace = report.WriteChromeTrace

// PacketPath reconstructs one packet's hop-by-hop event history from a
// traced Result (empty when the packet's events were overwritten or the run
// was not traced). The events come back in chronological order: Inject at
// the source, one arbitration outcome per router, Eject at the destination.
func PacketPath(r Result, packetID uint64) []events.Event {
	return events.PacketPath(r.Events, packetID)
}

// EventHeatmap renders the per-router counts of one event kind as an ASCII
// mesh grid (the counter matrix is exact for the whole run, surviving ring
// overwrite). Returns a placeholder when the run was not traced.
func EventHeatmap(r Result, kind events.Kind) string {
	if r.RouterEvents == nil {
		return "(event tracing was not enabled)"
	}
	counts := r.RouterEvents.PerNode(kind)
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
	}
	return stats.HeatmapLabeled(vals, r.Width, r.Height,
		"max "+kind.String()+" events per router: %.0f")
}

// DropHeatmap renders where in-window drops clustered, from the always-on
// per-node drop counters (no tracing required; SCARAB and fault runs).
func DropHeatmap(r Result) string {
	if r.DroppedByNode == nil {
		return "(no flits were dropped)"
	}
	vals := make([]float64, len(r.DroppedByNode))
	for i, c := range r.DroppedByNode {
		vals[i] = float64(c)
	}
	return stats.HeatmapLabeled(vals, r.Width, r.Height,
		"max dropped flits per router: %.0f")
}
