package routing

import (
	"fmt"
	"slices"

	"dxbar/internal/flit"
)

// MinimalAdaptive is fully-adaptive minimal routing without turn
// restrictions: both minimal directions toward the destination, the
// larger-offset dimension first. SCARAB uses it (bufferless drop networks
// cannot deadlock, so no turn model is needed).
type MinimalAdaptive struct{}

// Name implements Algorithm.
func (MinimalAdaptive) Name() string { return "MIN" }

// Adaptive implements Algorithm.
func (MinimalAdaptive) Adaptive() bool { return true }

// Productive implements Algorithm.
func (MinimalAdaptive) Productive(m Mesh, at, dst int) PortList {
	ax, ay := m.XY(at)
	dx, dy := m.XY(dst)
	var xPort, yPort flit.Port = flit.Invalid, flit.Invalid
	if dx > ax {
		xPort = flit.East
	} else if dx < ax {
		xPort = flit.West
	}
	if dy > ay {
		yPort = flit.South
	} else if dy < ay {
		yPort = flit.North
	}
	xd, yd := abs(dx-ax), abs(dy-ay)
	var ports PortList
	if xd >= yd {
		if xPort != flit.Invalid {
			ports.Add(xPort)
		}
		if yPort != flit.Invalid {
			ports.Add(yPort)
		}
	} else {
		if yPort != flit.Invalid {
			ports.Add(yPort)
		}
		if xPort != flit.Invalid {
			ports.Add(xPort)
		}
	}
	return ports
}

// Table is a routing algorithm precomputed for one mesh: the data-oriented
// form of the Algorithm interface. Minimal mesh routing depends only on the
// offset (dx, dy) from router to destination, so the table is indexed by
// offset, not by node pair: each node carries its offset code x + y·(2W−1)
// and its 4-bit port mask, and code[dst] − code[at] + bias addresses a
// (2W−1)(2H−1) slice of productive lists packed into one uint16 each (four
// 3-bit port entries plus a 3-bit length). The deflection order depends only
// on the productive list and the port mask, so it is stored once per
// (distinct list, mask). A query on the cycle hot path is two small loads, a
// subtract and a table load, and the table takes 4·nodes + 4(2W−1)(2H−1)
// bytes plus the deflection block: 80 KiB at 64×64, not the 64 MiB of one
// entry per node pair.
//
// A Table is itself an Algorithm (the mesh argument of the interface methods
// is ignored — the table was built for one mesh), so it drops into every
// router constructor unchanged. It is immutable after construction and safe
// to share across all routers of a network and across shard workers.
type Table struct {
	algo  Algorithm
	w     int      // mesh width; the height is len(node)/w
	bias  int      // offset code of (dx, dy) = (0, 0)
	node  []uint32 // per node: offset code<<4 | port mask
	prod  []uint16 // per offset: packed Productive
	want  []uint8  // per offset: Productive as an output-port bitmask (RouteAt)
	class []uint8  // per offset: which distinct productive list it holds
	defl  []uint16 // per class × port mask: packed DeflectionOrder
}

// probe is the (2W−1)×(2H−1) mesh NewTable evaluates an algorithm on: from its
// centre every offset occurs, and a destination's id is the offset's index.
type probe struct{ stride int }

func (p probe) XY(n int) (x, y int) { return n % p.stride, n / p.stride }
func (probe) PortMask(int) uint8    { return 15 }

// packList packs a PortList into 16 bits: length in bits 12..14, entry i in
// bits 3i..3i+2. Lists only ever hold cardinal ports (values 0..3).
func packList(l PortList) uint16 {
	v := uint16(l.n) << 12
	for i := 0; i < l.n; i++ {
		v |= uint16(l.ports[i]) << uint(3*i)
	}
	return v
}

// UnpackList decodes a productive list from the table's packed form (RouteAt).
func UnpackList(v uint16) PortList {
	// Branch-free decode: mask the packed word down to its n live 3-bit
	// fields first, then unpack all four slots unconditionally — dead slots
	// decode from masked-off zero bits, reproducing the zero-initialized
	// tail the loop version left behind.
	var l PortList
	n := int(v >> 12)
	w := uint32(v) & (0xFFF >> uint(12-3*n))
	l.n = n
	l.ports[0] = flit.Port(w & 7)
	l.ports[1] = flit.Port(w >> 3 & 7)
	l.ports[2] = flit.Port(w >> 6 & 7)
	l.ports[3] = flit.Port(w >> 9 & 7)
	return l
}

// NewTable precomputes algo for the W×H mesh m with one Productive evaluation
// per offset (so algo must be translation-invariant). If algo is already a
// *Table for this mesh it is returned as-is, so constructors may wrap
// unconditionally; a table for another mesh is rebuilt from what it wraps.
func NewTable(algo Algorithm, m Mesh, nodes int) *Table {
	if nodes <= 0 {
		panic(fmt.Sprintf("routing: table needs a positive node count, got %d", nodes))
	}
	lastX, lastY := m.XY(nodes - 1) // row-major: the last node is the far corner
	w, h := lastX+1, lastY+1
	if nodes != w*h {
		panic(fmt.Sprintf("routing: table for %d nodes on a %dx%d mesh", nodes, w, h))
	}
	if t, ok := algo.(*Table); ok {
		if len(t.node) == nodes && t.w == w {
			return t
		}
		algo = t.algo
	}
	stride, offsets := 2*w-1, (2*w-1)*(2*h-1)
	t := &Table{algo: algo, w: w, bias: w - 1 + (h-1)*stride, node: make([]uint32, nodes),
		prod: make([]uint16, offsets), want: make([]uint8, offsets), class: make([]uint8, offsets)}
	for n := range t.node {
		x, y := m.XY(n)
		t.node[n] = uint32(x+y*stride)<<4 | uint32(m.PortMask(n))
	}
	var lists []uint16 // the distinct productive lists, by class
	var pm Mesh = probe{stride}
	for i := range t.prod {
		l := algo.Productive(pm, t.bias, i)
		t.prod[i] = packList(l)
		for _, p := range l.Slice() {
			t.want[i] |= 1 << uint(p)
		}
		if l.Len() == 0 { // arrived: the empty list means eject
			t.want[i] = 1 << uint(flit.Local)
		}
		c := slices.Index(lists, t.prod[i])
		if c < 0 {
			c, lists = len(lists), append(lists, t.prod[i])
		}
		t.class[i] = uint8(c)
	}
	for _, v := range lists {
		for mask := uint8(0); mask < 16; mask++ {
			t.defl = append(t.defl, packList(deflectionOrder(UnpackList(v), mask)))
		}
	}
	return t
}

// Name implements Algorithm (the underlying algorithm's name).
func (t *Table) Name() string { return t.algo.Name() }

// Adaptive implements Algorithm.
func (t *Table) Adaptive() bool { return t.algo.Adaptive() }

// offset is the table index of dst's offset from at.
func (t *Table) offset(at, dst int) int { return int(t.node[dst]>>4) - int(t.node[at]>>4) + t.bias }

// Productive implements Algorithm; the mesh argument is ignored.
func (t *Table) Productive(_ Mesh, at, dst int) PortList { return t.ProductiveAt(at, dst) }

// ProductiveAt is the table-native productive query (no interface, no mesh).
func (t *Table) ProductiveAt(at, dst int) PortList { return UnpackList(t.prod[t.offset(at, dst)]) }

// RouteAt is the route computation for a flit for dst held at node `at`: want,
// its switch-allocation request (ProductiveAt as an output-port bitmask, or
// Local's bit alone when the flit has arrived), and route, ProductiveAt in the
// table's packed form (UnpackList decodes it; empty when the flit has
// arrived). Two loads, so a router takes it once per hop, at buffer write,
// and keeps it beside the flit.
func (t *Table) RouteAt(at, dst int) (want uint8, route uint16) {
	i := t.offset(at, dst)
	return t.want[i], t.prod[i]
}

// RequestAt is the look-ahead routing decision at node `at`: the preferred
// productive port, or Local when the flit has arrived.
func (t *Table) RequestAt(at, dst int) flit.Port {
	v := t.prod[t.offset(at, dst)]
	if v>>12 == 0 {
		return flit.Local
	}
	return flit.Port(v & 7)
}

// DeflectionAt is the table-native deflection-order query.
func (t *Table) DeflectionAt(at, dst int) PortList {
	c := int(t.class[t.offset(at, dst)])
	return UnpackList(t.defl[c<<4|int(t.node[at]&15)])
}

// ProductiveLenAt returns the size of the productive set without unpacking
// the list (deflection routers compare a rank against it).
func (t *Table) ProductiveLenAt(at, dst int) int { return int(t.prod[t.offset(at, dst)] >> 12) }
