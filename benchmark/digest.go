package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"dxbar"
	"dxbar/internal/energy"
	"dxbar/internal/stats"
)

// digest collects labelled records of deterministic result fields and
// hashes them in label order, so it does not depend on the order in which
// runs finished or were added. Floats are written with 9 significant digits:
// enough to catch any model change, and blind to last-bit differences
// between architectures (fused multiply-add).
type digest map[string]string

func (d digest) add(label string, fields ...any) { d[label] = fieldsRecord(fields...) }

// fieldsRecord renders one result's fields as the digest stores them; two results
// are the same result when their records are equal.
func fieldsRecord(fields ...any) string {
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(',')
		}
		switch v := f.(type) {
		case float64:
			fmt.Fprintf(&b, "%.9g", v)
		case []float64:
			for j, x := range v {
				if j > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%.9g", x)
			}
		default:
			fmt.Fprint(&b, v)
		}
	}
	return b.String()
}

func (d digest) sum() string {
	labels := make([]string, 0, len(d))
	for l := range d {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	h := sha256.New()
	for _, l := range labels {
		fmt.Fprintf(h, "%s=%s\n", l, d[l])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// statsRecord is the deterministic fields of a collector summary and the
// energy-model event counts that go with it.
func statsRecord(s stats.Results, c energy.Counts) string {
	return fieldsRecord(s.Packets, s.AcceptedLoad, s.AvgLatency, s.P50Latency, s.P99Latency, s.AvgHops,
		s.DeflectionsPerPacket, s.RetransmitsPerPacket, s.BufferingProbability, s.DroppedFlits,
		c.CrossbarTraversals, c.LinkTraversals, c.BufferWrites, c.BufferReads, c.NackHops)
}

func resultRecord(r dxbar.Result) string { return statsRecord(r.Results, r.EventCounts) }

func (d digest) addFigure(f dxbar.Figure) {
	for _, s := range f.Series {
		d.add(f.ID+"/"+s.Label, s.X, s.Y)
	}
}
