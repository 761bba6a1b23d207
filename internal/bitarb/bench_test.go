package bitarb

import (
	"math/rand"
	"testing"
)

// Allocation-latency micro-benchmarks at the routers' 5×5 radix: the table
// allocator against the branchy cyclic-scan reference, over the same 256
// random request matrices. The CI `benchmark` job runs these after the
// whole-network workloads.

func benchReqMatrices(count int) [][]uint64 {
	rng := rand.New(rand.NewSource(Radix * 31))
	ms := make([][]uint64, count)
	for i := range ms {
		m := make([]uint64, Radix)
		for j := range m {
			m[j] = rng.Uint64() & lowMask(Radix)
		}
		ms[i] = m
	}
	return ms
}

func BenchmarkSeparableBitarb(b *testing.B) {
	var s Separable
	var reqs [256]uint32
	for i, m := range benchReqMatrices(len(reqs)) {
		reqs[i] = pack(m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Allocate(reqs[i&255])
	}
}

func BenchmarkSeparableBranchy(b *testing.B) {
	s := newRefSeparable(Radix, Radix)
	reqs := benchReqMatrices(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.allocate(reqs[i&255])
	}
}
