// Package traffic implements the nine synthetic traffic patterns of §III.A
// — Uniform Random (UR), Non-Uniform Random (NUR, hot-spot), Bit Reversal
// (BR), Butterfly (BF), Complement (CP), Matrix Transpose (MT), Perfect
// Shuffle (PS), Neighbor (NB) and Tornado (TOR) — and the Bernoulli packet
// injection process the paper drives them with.
package traffic

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dxbar/internal/topology"
)

// Pattern maps a source node to a destination node. Deterministic patterns
// ignore the RNG; UR and NUR use it. A pattern may return the source itself
// (e.g. transpose on the diagonal); the injector skips such packets.
type Pattern interface {
	Name() string
	Dest(src int, rng *rand.Rand) int
}

// PatternNames lists the nine patterns in the paper's order.
var PatternNames = []string{"UR", "NUR", "BR", "BF", "CP", "MT", "PS", "NB", "TOR"}

// New returns the named pattern for the given mesh. Bit-permutation
// patterns (BR, BF, CP, PS) require a power-of-two node count.
func New(name string, m *topology.Mesh) (Pattern, error) {
	n := m.Nodes()
	switch name {
	case "UR":
		return uniform{n: n}, nil
	case "NUR":
		return newHotspot(m), nil
	case "BR", "BF", "CP", "PS":
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("traffic: pattern %s needs a power-of-two node count, got %d", name, n)
		}
		b, mask := bits.TrailingZeros(uint(n)), uint(n)-1
		f := map[string]func(uint) uint{
			"BR": func(s uint) uint { return bits.Reverse(s<<(bits.UintSize-b)) & mask },
			"BF": func(s uint) uint { return butterfly(s, b) },
			"CP": func(s uint) uint { return ^s & mask },
			"PS": func(s uint) uint { return ((s << 1) | (s >> (b - 1))) & mask },
		}[name]
		return bitPattern{name: name, n: n, f: f}, nil
	case "MT":
		return transpose{m: m}, nil
	case "NB":
		return neighbor{m: m}, nil
	case "TOR":
		return tornado{m: m}, nil
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q", name)
}

// uniform is UR: destination uniform over all nodes except the source.
type uniform struct{ n int }

func (u uniform) Name() string { return "UR" }

func (u uniform) Dest(src int, rng *rand.Rand) int {
	d := rng.Intn(u.n - 1)
	if d >= src {
		d++
	}
	return d
}

// hotspot is NUR: "creates hot-spot scenarios by injecting 25% additional
// traffic to a select group of nodes". The select group is the four center
// nodes of the mesh; each injection routes to a hotspot with probability
// 0.2 (so hotspot traffic is 25% *additional* over the uniform share those
// nodes already receive from the remaining 80%).
type hotspot struct {
	n    int
	hot  []int
	prob float64
}

func newHotspot(m *topology.Mesh) hotspot {
	cx, cy := m.Width/2, m.Height/2
	return hotspot{
		n:    m.Nodes(),
		hot:  []int{m.Node(cx-1, cy-1), m.Node(cx, cy-1), m.Node(cx-1, cy), m.Node(cx, cy)},
		prob: 0.2,
	}
}

func (h hotspot) Name() string { return "NUR" }

func (h hotspot) Dest(src int, rng *rand.Rand) int {
	if rng.Float64() < h.prob {
		d := h.hot[rng.Intn(len(h.hot))]
		if d != src {
			return d
		}
	}
	d := rng.Intn(h.n - 1)
	if d >= src {
		d++
	}
	return d
}

// bitPattern wraps the bit-permutation patterns (BR, BF, CP, PS).
type bitPattern struct {
	name string
	n    int
	f    func(uint) uint
}

func (p bitPattern) Name() string { return p.name }

func (p bitPattern) Dest(src int, _ *rand.Rand) int { return int(p.f(uint(src))) }

// butterfly swaps the most and least significant of the b address bits.
func butterfly(s uint, b int) uint {
	lo := s & 1
	hi := (s >> (b - 1)) & 1
	s &^= 1 | (1 << (b - 1))
	return s | (lo << (b - 1)) | hi
}

// transpose is MT: (x, y) → (y, x). Requires a square mesh to be a
// permutation; on rectangular meshes coordinates are clamped.
type transpose struct{ m *topology.Mesh }

func (t transpose) Name() string { return "MT" }

func (t transpose) Dest(src int, _ *rand.Rand) int {
	x, y := t.m.XY(src)
	nx, ny := y, x
	if nx >= t.m.Width {
		nx = t.m.Width - 1
	}
	if ny >= t.m.Height {
		ny = t.m.Height - 1
	}
	return t.m.Node(nx, ny)
}

// neighbor is NB: each node sends to its East neighbour (wrapping at the
// mesh edge), exercising single-hop locality.
type neighbor struct{ m *topology.Mesh }

func (nb neighbor) Name() string { return "NB" }

func (nb neighbor) Dest(src int, _ *rand.Rand) int {
	x, y := nb.m.XY(src)
	return nb.m.Node((x+1)%nb.m.Width, y)
}

// tornado is TOR: each node sends halfway around its row — on a mesh
// (no wraparound links) this stresses the horizontal bisection.
type tornado struct{ m *topology.Mesh }

func (t tornado) Name() string { return "TOR" }

func (t tornado) Dest(src int, _ *rand.Rand) int {
	x, y := t.m.XY(src)
	return t.m.Node((x+t.m.Width/2)%t.m.Width, y)
}
