package bitarb

import (
	"fmt"
	"math/rand"
	"testing"
)

// Allocation-latency micro-benchmarks: the bit-parallel separable allocator
// against the branchy cyclic-scan reference, at router radix (5), small
// switch radix (8), concentrated radix (16) and full-word radix (64).
// The CI `benchmark` job runs these after the whole-network workloads.

var benchWidths = []int{5, 8, 16, 64}

func benchReqMatrices(n, count int) [][]uint64 {
	rng := rand.New(rand.NewSource(int64(n) * 31))
	ms := make([][]uint64, count)
	for i := range ms {
		m := make([]uint64, n)
		for j := range m {
			m[j] = rng.Uint64() & lowMask(n)
		}
		ms[i] = m
	}
	return ms
}

func BenchmarkSeparableBitarb(b *testing.B) {
	for _, n := range benchWidths {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := NewSeparable(n, n)
			reqs := benchReqMatrices(n, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Allocate(reqs[i&255])
			}
		})
	}
}

func BenchmarkSeparableBranchy(b *testing.B) {
	for _, n := range benchWidths {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := newRefSeparable(n, n)
			reqs := benchReqMatrices(n, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.allocate(reqs[i&255])
			}
		})
	}
}
