package stats

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// Latency histogram: a fixed-size log-linear bucket array in the style of
// HdrHistogram. Values below histSubCount land in exact unit buckets; above
// that, every power of two is split into histSubCount linear sub-buckets, so
// any recorded value is bucketed with relative error at most 1/histSubCount
// (3.125%). The bucket array is a fixed field of the Collector — recording a
// latency is two increments and never allocates, which is what lets the
// cycle loop keep its zero-allocation steady state with histograms enabled.

const (
	// histSubBits sets the per-power-of-two resolution (32 sub-buckets).
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	// histBuckets covers every uint64 value: histSubCount exact unit
	// buckets plus histSubCount sub-buckets for each of the remaining
	// 64-histSubBits leading-bit positions.
	histBuckets = histSubCount * (65 - histSubBits)
)

// Histogram is a fixed-bucket latency distribution. The zero value is an
// empty histogram ready for use.
type Histogram struct {
	counts [histBuckets]uint64
	total  uint64
	max    uint64
}

// bucketIndex maps a value to its bucket. Values < histSubCount are exact;
// larger values keep their top histSubBits+1 significant bits.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	k := bits.Len64(v) // k >= histSubBits+1
	sub := (v >> uint(k-histSubBits-1)) & (histSubCount - 1)
	return histSubCount*(k-histSubBits) + int(sub)
}

// bucketBounds returns the inclusive value range covered by bucket idx.
func bucketBounds(idx int) (low, high uint64) {
	if idx < histSubCount {
		return uint64(idx), uint64(idx)
	}
	block := idx >> histSubBits // leading-bit position minus histSubBits
	sub := uint64(idx & (histSubCount - 1))
	width := uint64(1) << uint(block-1)
	low = (histSubCount + sub) * width
	return low, low + width - 1
}

// Record adds one value to the distribution.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketIndex(v)]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.total }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns the nearest-rank q-quantile (q in [0, 1]): the upper edge
// of the bucket holding the value of rank ceil(q·count), capped at the exact
// observed maximum. The estimate is never below the true quantile and
// overshoots it by at most 1/32 relative. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= rank {
			_, high := bucketBounds(i)
			if high > h.max {
				high = h.max
			}
			return high
		}
	}
	return h.max // unreachable: cum reaches total
}

// Bucket is one non-empty histogram bin, for structured export.
type Bucket struct {
	// Low and High are the inclusive value bounds of the bin.
	Low, High uint64
	// Count is the number of values recorded in the bin.
	Count uint64
}

// Buckets returns the non-empty bins in ascending value order. It allocates
// and is meant for end-of-run export, not the cycle loop.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		low, high := bucketBounds(i)
		out = append(out, Bucket{Low: low, High: high, Count: n})
	}
	return out
}

// snapshot returns a heap copy of the histogram (Results detaches the
// distribution from the live collector).
func (h *Histogram) snapshot() *Histogram {
	c := *h
	return &c
}

// MarshalJSON encodes the histogram as its non-empty bins in ascending order,
// each as [low, count], plus the exact maximum:
// {"buckets":[[3,2],[100,1]],"max":100}. A bin's low names its bucket and the
// total is the sum of the counts, so this is the whole state.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 512), `{"buckets":[`...)
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		if b[len(b)-1] != '[' {
			b = append(b, ',')
		}
		low, _ := bucketBounds(i)
		b = strconv.AppendUint(append(b, '['), low, 10)
		b = strconv.AppendUint(append(b, ','), n, 10)
		b = append(b, ']')
	}
	b = strconv.AppendUint(append(b, `],"max":`...), h.max, 10)
	return append(b, '}'), nil
}

// UnmarshalJSON decodes the form MarshalJSON writes. Each bin must be a
// [low, count] pair naming an exact bin low, with a non-zero count, above the
// bin before it, and the maximum must lie in the last bin (0 with no bins):
// anything else is an error, so a decoded histogram is one Record could have
// built.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var v struct {
		Buckets [][]uint64 `json:"buckets"`
		Max     *uint64    `json:"max"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("stats: histogram: %w", err)
	}
	if v.Max == nil {
		return errors.New("stats: histogram: no max")
	}
	out := Histogram{max: *v.Max}
	var low, high uint64 // the last bin's bounds; none, so 0, with no bins
	next := 0            // the lowest bucket the next bin may name
	for _, b := range v.Buckets {
		if len(b) != 2 {
			return fmt.Errorf("stats: histogram bin %v is not a [low, count] pair", b)
		}
		idx := bucketIndex(b[0])
		if low, high = bucketBounds(idx); low != b[0] || idx < next || b[1] == 0 || out.total+b[1] < out.total {
			return fmt.Errorf("stats: histogram bin %v is not an ascending non-empty bin", b)
		}
		out.counts[idx], out.total, next = b[1], out.total+b[1], idx+1
	}
	if out.max < low || out.max > high {
		return fmt.Errorf("stats: histogram max %d is not in its last bin", out.max)
	}
	*h = out
	return nil
}
