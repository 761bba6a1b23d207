package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"dxbar/internal/flit"
	"dxbar/internal/topology"
)

// grid is a row-major W×H mesh without topology.NewMesh's 2×2 minimum, so
// the table can be checked on single-row, single-column and 1×1 meshes.
type grid struct{ w, h int }

func (g grid) XY(n int) (x, y int) { return n % g.w, n / g.w }

func (g grid) PortMask(n int) (mask uint8) {
	x, y := g.XY(n)
	for p, ok := range [flit.NumLinkPorts]bool{flit.North: y > 0, flit.East: x < g.w-1, flit.South: y < g.h-1, flit.West: x > 0} {
		if ok {
			mask |= 1 << p
		}
	}
	return mask
}

var tableAlgos = []Algorithm{DOR{}, WestFirst{}, MinimalAdaptive{}}

func portsEqual(a, b PortList) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

// checkPair compares all six table queries for one (at, dst) pair against
// the direct computation.
func checkPair(t *testing.T, tab *Table, a Algorithm, m Mesh, at, dst int) {
	t.Helper()
	wantProd := a.Productive(m, at, dst)
	if got := tab.ProductiveAt(at, dst); !portsEqual(got, wantProd) {
		t.Fatalf("%s at=%d dst=%d: productive %v, want %v", a.Name(), at, dst, got.Slice(), wantProd.Slice())
	}
	if got := tab.Productive(m, at, dst); !portsEqual(got, wantProd) {
		t.Fatalf("%s at=%d dst=%d: interface Productive %v, want %v", a.Name(), at, dst, got.Slice(), wantProd.Slice())
	}
	if got, want := tab.RequestAt(at, dst), Request(a, m, at, dst); got != want {
		t.Fatalf("%s at=%d dst=%d: request %v, want %v", a.Name(), at, dst, got, want)
	}
	wantDefl := DeflectionOrder(a, m, at, dst)
	if got := tab.DeflectionAt(at, dst); !portsEqual(got, wantDefl) {
		t.Fatalf("%s at=%d dst=%d: deflection %v, want %v", a.Name(), at, dst, got.Slice(), wantDefl.Slice())
	}
	if got := tab.ProductiveLenAt(at, dst); got != wantProd.Len() {
		t.Fatalf("%s at=%d dst=%d: productive len %d, want %d", a.Name(), at, dst, got, wantProd.Len())
	}
	wantMask := uint8(1) << flit.Local // arrived: the request is for ejection
	if wantProd.Len() > 0 {
		wantMask = 0
		for _, p := range wantProd.Slice() {
			wantMask |= 1 << p
		}
	}
	got, route := tab.RouteAt(at, dst)
	if got != wantMask {
		t.Fatalf("%s at=%d dst=%d: productive mask %05b, want %05b (the bits of %v)", a.Name(), at, dst, got, wantMask, wantProd.Slice())
	}
	if l := UnpackList(route); !portsEqual(l, wantProd) {
		t.Fatalf("%s at=%d dst=%d: packed route %v, want %v", a.Name(), at, dst, l.Slice(), wantProd.Slice())
	}
}

// TestTableMatchesAlgorithm verifies the table against the direct
// computation, for all three algorithms: every (node, destination) pair of
// degenerate, rectangular and square meshes, and 100k seeded random pairs of
// 64×64 — the table is a pure cache, so any divergence is an indexing or
// packing bug.
func TestTableMatchesAlgorithm(t *testing.T) {
	for _, g := range []grid{{1, 1}, {1, 8}, {8, 1}, {2, 2}, {4, 7}, {12, 5}, {8, 8}, {3, 16}, {16, 16}, {64, 64}} {
		var m Mesh = g
		if g.w >= 2 && g.h >= 2 {
			m = topology.MustMesh(g.w, g.h)
		}
		nodes := g.w * g.h
		for _, a := range tableAlgos {
			t.Run(fmt.Sprintf("%s/%dx%d", a.Name(), g.w, g.h), func(t *testing.T) {
				tab := NewTable(a, m, nodes)
				if tab.Name() != a.Name() || tab.Adaptive() != a.Adaptive() {
					t.Fatalf("table metadata mismatch")
				}
				if nodes > 256 {
					rng := rand.New(rand.NewSource(13))
					for i := 0; i < 100_000; i++ {
						checkPair(t, tab, a, m, rng.Intn(nodes), rng.Intn(nodes))
					}
					return
				}
				for at := 0; at < nodes; at++ {
					for dst := 0; dst < nodes; dst++ {
						checkPair(t, tab, a, m, at, dst)
					}
				}
			})
		}
	}
}

// TestAlgorithmsTranslationInvariant pins the assumption the table is built
// on: Productive depends only on the offset (dx, dy), never on where in the
// mesh the router sits. On 8×8 every offset — including |dx| = |dy| ties and
// dx = 0 / dy = 0 — is compared across all of its anchors.
func TestAlgorithmsTranslationInvariant(t *testing.T) {
	m := topology.MustMesh(8, 8)
	type offset struct{ dx, dy int }
	for _, a := range tableAlgos {
		first := map[offset]PortList{}
		for at := 0; at < m.Nodes(); at++ {
			for dst := 0; dst < m.Nodes(); dst++ {
				ax, ay := m.XY(at)
				dx, dy := m.XY(dst)
				o := offset{dx - ax, dy - ay}
				got := a.Productive(m, at, dst)
				if want, seen := first[o]; !seen {
					first[o] = got
				} else if !portsEqual(got, want) {
					t.Fatalf("%s: offset (%d,%d) gives %v at node %d but %v elsewhere",
						a.Name(), o.dx, o.dy, got.Slice(), at, want.Slice())
				}
			}
		}
		if len(first) != 15*15 {
			t.Fatalf("%s: saw %d offsets, want %d", a.Name(), len(first), 15*15)
		}
	}
}

// tableBytes is the heap storage behind a table's slices.
func tableBytes(t *Table) int {
	return 4*len(t.node) + 2*len(t.prod) + len(t.want) + len(t.class) + 2*len(t.defl)
}

// TestTableStorageGrowsWithOffsets: storage is per node and per offset, never
// per node pair — 64×64 fits in 128 KiB (a per-pair table is 64 MiB).
func TestTableStorageGrowsWithOffsets(t *testing.T) {
	for _, a := range tableAlgos {
		for _, w := range []int{8, 32, 64} {
			tab := NewTable(a, topology.MustMesh(w, w), w*w)
			if want := (2*w - 1) * (2*w - 1); len(tab.prod) != want || len(tab.want) != want || len(tab.class) != want {
				t.Errorf("%s %dx%d: %d productive / %d mask / %d class entries, want %d", a.Name(), w, w, len(tab.prod), len(tab.want), len(tab.class), want)
			}
			if len(tab.node) != w*w || len(tab.defl) > 18*16 {
				t.Errorf("%s %dx%d: %d node / %d deflection entries", a.Name(), w, w, len(tab.node), len(tab.defl))
			}
			if w == 64 && tableBytes(tab) > 128<<10 {
				t.Errorf("%s 64x64: table takes %d bytes, want at most 128 KiB", a.Name(), tableBytes(tab))
			}
		}
	}
}

// TestTableIdempotentWrap: wrapping a table for the same mesh returns it.
func TestTableIdempotentWrap(t *testing.T) {
	m := topology.MustMesh(4, 4)
	tab := NewTable(DOR{}, m, m.Nodes())
	if again := NewTable(tab, m, m.Nodes()); again != tab {
		t.Fatal("NewTable(table) built a copy")
	}
}

// TestTableRewrapForDifferentMesh: a table handed to NewTable with another
// mesh — other node count, or the same count in another shape — is rebuilt
// from the algorithm it wraps instead of routing by the wrong geometry.
func TestTableRewrapForDifferentMesh(t *testing.T) {
	for _, a := range tableAlgos {
		tab := NewTable(a, topology.MustMesh(4, 16), 64)
		for _, g := range []grid{{8, 8}, {16, 4}, {4, 4}, {10, 10}} {
			m := topology.MustMesh(g.w, g.h)
			re := NewTable(tab, m, m.Nodes())
			if re == tab {
				t.Fatalf("%s: 4x16 table reused for %dx%d", a.Name(), g.w, g.h)
			}
			if re.Name() != a.Name() || re.Adaptive() != a.Adaptive() {
				t.Fatalf("%s: rebuilt table lost its algorithm", a.Name())
			}
			for at := 0; at < m.Nodes(); at++ {
				for dst := 0; dst < m.Nodes(); dst++ {
					checkPair(t, re, a, m, at, dst)
				}
			}
		}
	}
}

// TestNewTableRejectsNodeCountMismatch: a node count that is not W·H of the
// mesh (or not positive) panics instead of building a table that indexes out
// of range later.
func TestNewTableRejectsNodeCountMismatch(t *testing.T) {
	for _, nodes := range []int{0, -1, 10, 15} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable with %d nodes on a 4x4 mesh did not panic", nodes)
				}
			}()
			NewTable(DOR{}, topology.MustMesh(4, 4), nodes)
		}()
	}
}

// TestMinimalAdaptiveProperties: the minimal set is nonempty off-destination,
// contains only minimal directions, and orders the larger offset first.
func TestMinimalAdaptiveProperties(t *testing.T) {
	m := topology.MustMesh(8, 8)
	a := MinimalAdaptive{}
	for at := 0; at < m.Nodes(); at++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			ports := a.Productive(m, at, dst)
			if at == dst {
				if ports.Len() != 0 {
					t.Fatalf("at==dst but %v", ports.Slice())
				}
				continue
			}
			if ports.Len() == 0 {
				t.Fatalf("no minimal port from %d to %d", at, dst)
			}
			d0 := m.Distance(at, dst)
			for i := 0; i < ports.Len(); i++ {
				nb := m.Neighbor(at, ports.At(i))
				if nb == -1 || m.Distance(nb, dst) != d0-1 {
					t.Fatalf("port %v from %d to %d is not minimal", ports.At(i), at, dst)
				}
			}
			ax, ay := m.XY(at)
			dx, dy := m.XY(dst)
			xd, yd := dx-ax, dy-ay
			if xd < 0 {
				xd = -xd
			}
			if yd < 0 {
				yd = -yd
			}
			if xd >= yd && xd > 0 {
				if p := ports.At(0); p != flit.East && p != flit.West {
					t.Fatalf("larger X offset but first port %v", p)
				}
			}
		}
	}
}
