package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"dxbar/internal/flit"
	"dxbar/internal/topology"
)

func BenchmarkDORProductive(b *testing.B) {
	m := topology.MustMesh(8, 8)
	a := DOR{}
	for i := 0; i < b.N; i++ {
		a.Productive(m, i%64, (i*31)%64)
	}
}

func BenchmarkWestFirstProductive(b *testing.B) {
	m := topology.MustMesh(8, 8)
	a := WestFirst{}
	for i := 0; i < b.N; i++ {
		a.Productive(m, i%64, (i*31)%64)
	}
}

func BenchmarkDeflectionOrder(b *testing.B) {
	m := topology.MustMesh(8, 8)
	a := DOR{}
	for i := 0; i < b.N; i++ {
		DeflectionOrder(a, m, i%64, (i*31)%64)
	}
}

var (
	sinkPort  flit.Port
	sinkList  PortList
	sinkTable *Table
)

// benchTableSizes runs fn on the cache-resident 8×8 mesh and on 64×64, where a
// per-pair table would not fit any cache. Queries draw from 64k seeded
// random (at, dst) pairs, the access pattern of uniform-random traffic.
func benchTableSizes(b *testing.B, fn func(b *testing.B, m *topology.Mesh, pairs [][2]int)) {
	for _, w := range []int{8, 64} {
		m := topology.MustMesh(w, w)
		rng := rand.New(rand.NewSource(1))
		pairs := make([][2]int, 1<<16)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(m.Nodes()), rng.Intn(m.Nodes())}
		}
		b.Run(fmt.Sprintf("%dx%d", w, w), func(b *testing.B) { fn(b, m, pairs) })
	}
}

func BenchmarkTableRequestAt(b *testing.B) {
	benchTableSizes(b, func(b *testing.B, m *topology.Mesh, pairs [][2]int) {
		t := NewTable(DOR{}, m, m.Nodes())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			sinkPort = t.RequestAt(p[0], p[1])
		}
	})
}

func BenchmarkTableDeflectionAt(b *testing.B) {
	benchTableSizes(b, func(b *testing.B, m *topology.Mesh, pairs [][2]int) {
		t := NewTable(DOR{}, m, m.Nodes())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			sinkList = t.DeflectionAt(p[0], p[1])
		}
	})
}

func BenchmarkNewTable(b *testing.B) {
	benchTableSizes(b, func(b *testing.B, m *topology.Mesh, _ [][2]int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkTable = NewTable(WestFirst{}, m, m.Nodes())
		}
	})
}
