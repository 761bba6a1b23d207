// Package topology models the 2D mesh interconnect the paper evaluates on
// (8×8 by default): node coordinates, port-level neighbour relations, and the
// directed links the simulation engine instantiates latches for.
package topology

import (
	"fmt"

	"dxbar/internal/flit"
)

// Mesh is a k×k (or rectangular w×h) 2D mesh. Nodes are numbered row-major:
// node = y*Width + x, with x growing East and y growing South. Edge nodes
// simply lack the corresponding links (no wraparound; the Tornado and
// Complement patterns are still well defined on node indices).
//
// Coordinates, neighbour indices and port existence are precomputed into
// flat per-node tables at construction: the routers consult them for every
// flit every cycle, and a table load beats the div/mod arithmetic by enough
// to show up on whole-network profiles.
type Mesh struct {
	Width, Height int

	// xs/ys are the per-node coordinates; nb is the node-major neighbour
	// table (4 entries per node, -1 where the port faces the edge); portMask
	// is the per-node bitmask of existing cardinal ports.
	xs, ys   []int16
	nb       []int32
	portMask []uint8
}

// MaxSide bounds a mesh's width and height: the widest side that both the
// per-node int16 coordinates and the routing table's offset codes (x +
// y·(2W−1) in 28 bits, routing.Table) represent exactly.
const MaxSide = 8192

// NewMesh returns a mesh of the given dimensions. Width and height must be
// at least 2 (a 1-wide mesh has no X dimension to route in) and at most
// MaxSide.
func NewMesh(width, height int) (*Mesh, error) {
	if width < 2 || height < 2 {
		return nil, fmt.Errorf("topology: mesh must be at least 2x2, got %dx%d", width, height)
	}
	if width > MaxSide || height > MaxSide {
		return nil, fmt.Errorf("topology: mesh sides must be at most %d, got %dx%d", MaxSide, width, height)
	}
	m := &Mesh{Width: width, Height: height}
	n := width * height
	m.xs = make([]int16, n)
	m.ys = make([]int16, n)
	m.nb = make([]int32, n*flit.NumLinkPorts)
	m.portMask = make([]uint8, n)
	for i := 0; i < n; i++ {
		x, y := i%width, i/width
		m.xs[i], m.ys[i] = int16(x), int16(y)
		for p := flit.North; p <= flit.West; p++ {
			nx, ny := x, y
			switch p {
			case flit.North:
				ny--
			case flit.South:
				ny++
			case flit.East:
				nx++
			case flit.West:
				nx--
			}
			v := int32(-1)
			if nx >= 0 && nx < width && ny >= 0 && ny < height {
				v = int32(ny*width + nx)
				m.portMask[i] |= 1 << uint(p)
			}
			m.nb[i*flit.NumLinkPorts+int(p)] = v
		}
	}
	return m, nil
}

// MustMesh is NewMesh for static configurations; it panics on invalid sizes.
func MustMesh(width, height int) *Mesh {
	m, err := NewMesh(width, height)
	if err != nil {
		panic(err)
	}
	return m
}

// Nodes returns the number of routers in the mesh.
func (m *Mesh) Nodes() int { return m.Width * m.Height }

// XY returns the coordinates of node n.
func (m *Mesh) XY(n int) (x, y int) { return int(m.xs[n]), int(m.ys[n]) }

// Node returns the node index at (x, y).
func (m *Mesh) Node(x, y int) int { return y*m.Width + x }

// Contains reports whether (x, y) is inside the mesh.
func (m *Mesh) Contains(x, y int) bool {
	return x >= 0 && x < m.Width && y >= 0 && y < m.Height
}

// Neighbor returns the node reached by leaving node n through port p, or
// -1 if the port faces the mesh edge (or p is not a cardinal port).
func (m *Mesh) Neighbor(n int, p flit.Port) int {
	if !p.IsCardinal() {
		return -1
	}
	return int(m.nb[n*flit.NumLinkPorts+int(p)])
}

// HasPort reports whether node n has a link on cardinal port p.
func (m *Mesh) HasPort(n int, p flit.Port) bool {
	if !p.IsCardinal() {
		return false
	}
	return m.portMask[n]&(1<<uint(p)) != 0
}

// PortMask returns the bitmask of existing cardinal ports at node n (bit p
// set means port p leads to a neighbour). Routers on the cycle hot path use
// it to test all four links with one load.
func (m *Mesh) PortMask(n int) uint8 { return m.portMask[n] }

// LinkCount returns the number of cardinal links at node n (2 at corners, 3
// on edges, 4 inside).
func (m *Mesh) LinkCount(n int) int {
	pm := m.portMask[n]
	// 4-bit popcount.
	pm = pm&0b0101 + pm>>1&0b0101
	return int(pm&0b0011 + pm>>2&0b0011)
}

// Distance returns the minimal hop count between two nodes (Manhattan).
func (m *Mesh) Distance(a, b int) int {
	return abs(int(m.xs[a])-int(m.xs[b])) + abs(int(m.ys[a])-int(m.ys[b]))
}

// Link is a directed connection from one router's output port to the
// neighbouring router's input port.
type Link struct {
	From     int       // upstream node
	FromPort flit.Port // upstream output port
	To       int       // downstream node
	ToPort   flit.Port // downstream input port
}

// Links enumerates every directed link in the mesh in a deterministic order
// (by upstream node, then by port).
func (m *Mesh) Links() []Link {
	var links []Link
	for n := 0; n < m.Nodes(); n++ {
		for p := flit.North; p <= flit.West; p++ {
			if to := m.Neighbor(n, p); to != -1 {
				links = append(links, Link{From: n, FromPort: p, To: to, ToPort: p.Opposite()})
			}
		}
	}
	return links
}

// AverageDistance returns the mean minimal hop count over all ordered
// source/destination pairs with src != dst (the uniform-random expectation).
func (m *Mesh) AverageDistance() float64 {
	total, pairs := 0, 0
	for a := 0; a < m.Nodes(); a++ {
		for b := 0; b < m.Nodes(); b++ {
			if a == b {
				continue
			}
			total += m.Distance(a, b)
			pairs++
		}
	}
	return float64(total) / float64(pairs)
}

// BisectionLinks returns the number of unidirectional links crossing the
// vertical bisection of the mesh (used to express capacity).
func (m *Mesh) BisectionLinks() int {
	// Links between column Width/2-1 and Width/2, both directions.
	return 2 * m.Height
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
