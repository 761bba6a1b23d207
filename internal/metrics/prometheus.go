package metrics

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): families in registration order, series
// in registration order within each family, histograms as cumulative `le`
// buckets (empty bins skipped) plus `_sum` and `_count`. Safe to call
// concurrently with publishers — values are read through the same atomics
// (or the histogram mutex) the publishers write through. A nil registry
// writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	var scratch []histBucket
	for _, f := range fams {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.help)
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				writeSample(bw, f.name, "", s.labels, "", formatUint(s.counter.Value()))
			case s.floatCounter != nil:
				writeSample(bw, f.name, "", s.labels, "", formatFloat(s.floatCounter.Value()))
			case s.gauge != nil:
				writeSample(bw, f.name, "", s.labels, "", strconv.FormatInt(s.gauge.Value(), 10))
			case s.floatGauge != nil:
				writeSample(bw, f.name, "", s.labels, "", formatFloat(s.floatGauge.Value()))
			case s.hist != nil:
				var count uint64
				var sum float64
				scratch, count, sum = s.hist.snapshotInto(scratch[:0])
				for _, b := range scratch {
					writeSample(bw, f.name, "_bucket", s.labels, `le="`+formatFloat(b.le)+`"`, formatUint(b.cum))
				}
				writeSample(bw, f.name, "_bucket", s.labels, `le="+Inf"`, formatUint(count))
				writeSample(bw, f.name, "_sum", s.labels, "", formatFloat(sum))
				writeSample(bw, f.name, "_count", s.labels, "", formatUint(count))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name_suffix{labels,extra} value` line.
func writeSample(w *bufio.Writer, name, suffix, labels, extra, value string) {
	w.WriteString(name)
	w.WriteString(suffix)
	if labels != "" || extra != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		if labels != "" && extra != "" {
			w.WriteByte(',')
		}
		w.WriteString(extra)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// formatFloat renders floats the way Prometheus clients expect: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
