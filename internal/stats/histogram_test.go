package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestBucketIndexBoundsRoundTrip: every value lands in a bucket whose
// bounds contain it, and bucket boundaries are contiguous.
func TestBucketIndexBoundsRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1000, 1 << 20, math.MaxUint64}
	for _, v := range vals {
		idx := bucketIndex(v)
		low, high := bucketBounds(idx)
		if v < low || v > high {
			t.Errorf("value %d in bucket %d with bounds [%d, %d]", v, idx, low, high)
		}
	}
	// Contiguity over the exact→log-linear seam and the first widths.
	for idx := 0; idx < 4*histSubCount; idx++ {
		_, high := bucketBounds(idx)
		low2, _ := bucketBounds(idx + 1)
		if low2 != high+1 {
			t.Fatalf("bucket %d ends at %d but bucket %d starts at %d", idx, high, idx+1, low2)
		}
	}
}

// oracle computes the nearest-rank quantile from a sorted slice.
func oracle(sorted []uint64, q float64) uint64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestHistogramQuantileAgainstSortedOracle checks every percentile the
// stats layer reports against a brute-force sorted slice: the histogram
// estimate must never be below the true quantile and must overshoot by at
// most one sub-bucket width (1/32 relative), capped at the exact max.
func TestHistogramQuantileAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() uint64{
		"uniform":   func() uint64 { return uint64(rng.Intn(500)) },
		"heavytail": func() uint64 { return uint64(math.Pow(10, rng.Float64()*4)) },
		"constant":  func() uint64 { return 42 },
		"bimodal": func() uint64 {
			if rng.Intn(10) == 0 {
				return 5000 + uint64(rng.Intn(1000))
			}
			return 20 + uint64(rng.Intn(10))
		},
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			vals := make([]uint64, 5000)
			for i := range vals {
				vals[i] = gen()
				h.Record(vals[i])
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			if h.Count() != uint64(len(vals)) {
				t.Fatalf("count = %d, want %d", h.Count(), len(vals))
			}
			if h.Max() != vals[len(vals)-1] {
				t.Fatalf("max = %d, want %d", h.Max(), vals[len(vals)-1])
			}
			for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0} {
				want := oracle(vals, q)
				got := h.Quantile(q)
				if got < want {
					t.Errorf("q=%.2f: histogram %d below oracle %d", q, got, want)
				}
				if limit := float64(want)*(1+1.0/histSubCount) + 1; float64(got) > limit {
					t.Errorf("q=%.2f: histogram %d overshoots oracle %d beyond one bucket (limit %.1f)",
						q, got, want, limit)
				}
			}
		})
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Max() != 0 || h.Buckets() != nil {
		t.Error("empty histogram must report zeros")
	}
}

func TestHistogramBucketsExport(t *testing.T) {
	var h Histogram
	h.Record(3)
	h.Record(3)
	h.Record(100)
	bs := h.Buckets()
	if len(bs) != 2 {
		t.Fatalf("got %d buckets, want 2", len(bs))
	}
	if bs[0].Low != 3 || bs[0].High != 3 || bs[0].Count != 2 {
		t.Errorf("first bucket = %+v", bs[0])
	}
	if bs[1].Low > 100 || bs[1].High < 100 || bs[1].Count != 1 {
		t.Errorf("second bucket = %+v must contain 100", bs[1])
	}
	var total uint64
	for _, b := range bs {
		total += b.Count
	}
	if total != h.Count() {
		t.Errorf("bucket counts sum to %d, want %d", total, h.Count())
	}
}

// TestCollectorPercentilesInResults: the collector's Results must expose
// percentiles consistent with the recorded packet latencies.
func TestCollectorPercentilesInResults(t *testing.T) {
	c := NewCollector(4, 0, 1000)
	for i := uint64(1); i <= 100; i++ {
		c.PacketDone(pkt(0, i))
	}
	r := c.Results()
	if r.P50Latency < 50 || r.P50Latency > 52 {
		t.Errorf("p50 = %d, want ~50", r.P50Latency)
	}
	if r.P99Latency < 99 || r.P99Latency > 100 {
		t.Errorf("p99 = %d, want ~99", r.P99Latency)
	}
	if r.MaxLatency != 100 || r.LatencyHistogram == nil {
		t.Errorf("max = %d, hist = %v", r.MaxLatency, r.LatencyHistogram)
	}
	if got := r.LatencyHistogram.Count(); got != 100 {
		t.Errorf("histogram count = %d, want 100", got)
	}
	// The snapshot must be detached from the live collector.
	c.PacketDone(pkt(0, 5))
	if r.LatencyHistogram.Count() != 100 {
		t.Error("Results histogram must be a snapshot, not a live view")
	}
}

// TestHistogramJSON: a histogram's JSON form is its bins as [low, count] plus
// the maximum, and decoding it gives back a deep-equal histogram — empty,
// exact buckets, log-linear buckets, the top bucket — through a pointer field
// as a Result holds it.
func TestHistogramJSON(t *testing.T) {
	var h Histogram
	h.Record(3)
	h.Record(3)
	h.Record(100)
	got, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"buckets":[[3,2],[100,1]],"max":100}`; string(got) != want {
		t.Errorf("marshal = %s, want %s", got, want)
	}
	rng := rand.New(rand.NewSource(1))
	cases := []*Histogram{{}, &h}
	for i := 0; i < 20; i++ {
		r := &Histogram{}
		for j := rng.Intn(500); j > 0; j-- {
			r.Record(uint64(rng.ExpFloat64() * float64(uint64(1)<<uint(rng.Intn(40)))))
		}
		cases = append(cases, r)
	}
	top := &Histogram{}
	top.Record(math.MaxUint64)
	cases = append(cases, top)
	for _, c := range cases {
		type holder struct{ H *Histogram }
		data, err := json.Marshal(holder{c})
		if err != nil {
			t.Fatal(err)
		}
		var back holder
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if !reflect.DeepEqual(back.H, c) {
			t.Fatalf("round trip of %s is not deep-equal", data)
		}
	}
	var spaced Histogram
	if err := json.Unmarshal([]byte(` { "buckets" : [ [3, 2] , [100, 1] ] , "max" : 100 } `), &spaced); err != nil || !reflect.DeepEqual(&spaced, &h) {
		t.Errorf("whitespace: %v, deep-equal %v", err, reflect.DeepEqual(&spaced, &h))
	}
}

// TestHistogramJSONRejects: anything but ascending, non-empty, exact bins
// with the maximum in the last one is a decode error.
func TestHistogramJSONRejects(t *testing.T) {
	for _, in := range []string{
		`{"buckets":[[100,1],[3,2]],"max":100}`,                // descending
		`{"buckets":[[3,1],[3,1]],"max":3}`,                    // repeated
		`{"buckets":[[3,0]],"max":3}`,                          // empty bin
		`{"buckets":[[65,1]],"max":65}`,                        // 65 is inside [64,65]
		`{"buckets":[[3,2]],"max":4}`,                          // max past the last bin
		`{"buckets":[[3,2]],"max":2}`,                          // max below it
		`{"buckets":[],"max":7}`,                               // max with no bins
		`{"buckets":[[3,2]]}`,                                  // no max
		`{"buckets":[[3,2,1]],"max":3}`,                        // three numbers
		`{"buckets":[[3]],"max":3}`,                            // one number
		`{"buckets":[[-3,2]],"max":3}`,                         // negative
		`{"buckets":[[3,2.5]],"max":3}`,                        // fraction
		`{"buckets":[[03,2]],"max":3}`,                         // leading zero
		`{"buckets":[[3,18446744073709551616]],"max":3}`,       // past uint64
		`{"buckets":[[3,18446744073709551615],[4,1]],"max":4}`, // total overflows
		`{"buckets":[[3,2]],"max":3}x`,                         // trailing data
		`{"buckets":[[3,2]],"max":3`,                           // truncated
		`null`, `[]`, `""`, ``,
	} {
		var h Histogram
		if err := h.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%s decoded without error", in)
		}
	}
}

// FuzzHistogramJSON: any bytes either fail to decode or decode to a histogram
// whose own encoding decodes back deep-equal.
func FuzzHistogramJSON(f *testing.F) {
	for _, seed := range []string{
		`{"buckets":[[3,2],[100,1]],"max":100}`,
		`{"buckets":[],"max":0}`,
		`{"buckets":[[18446744073709551615,1]],"max":18446744073709551615}`,
		`{"buckets":[[100,1],[3,2]],"max":100}`,
		`{"buckets":[[65,1]],"max":65}`,
		`{"buckets":[[3,2]],"max":3`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		if h.UnmarshalJSON(data) != nil {
			return
		}
		enc, err := h.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Histogram
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("%s decoded, but its encoding %s does not: %v", data, enc, err)
		}
		if !reflect.DeepEqual(back, h) {
			t.Fatalf("%s decoded, but its encoding %s decodes to another histogram", data, enc)
		}
	})
}
