package topology

import (
	"testing"
	"testing/quick"

	"dxbar/internal/flit"
)

func TestNewMeshRejectsDegenerate(t *testing.T) {
	for _, dims := range [][2]int{{1, 8}, {8, 1}, {0, 0}, {-2, 4}} {
		if _, err := NewMesh(dims[0], dims[1]); err == nil {
			t.Errorf("NewMesh(%d,%d) should fail", dims[0], dims[1])
		}
	}
	if _, err := NewMesh(2, 2); err != nil {
		t.Errorf("NewMesh(2,2) failed: %v", err)
	}
}

// TestNewMeshSideBound: a side of MaxSide keeps exact coordinates at the far
// corner; one more, or a side int16 wraps (40000 read back as -25536), is an
// error instead of a mesh that routes wrongly or panics downstream.
func TestNewMeshSideBound(t *testing.T) {
	for _, dims := range [][2]int{{MaxSide, 2}, {2, MaxSide}} {
		m, err := NewMesh(dims[0], dims[1])
		if err != nil {
			t.Fatalf("NewMesh(%d,%d): %v", dims[0], dims[1], err)
		}
		if x, y := m.XY(m.Nodes() - 1); x != dims[0]-1 || y != dims[1]-1 {
			t.Errorf("%dx%d: far corner at (%d,%d), want (%d,%d)", dims[0], dims[1], x, y, dims[0]-1, dims[1]-1)
		}
	}
	for _, dims := range [][2]int{{MaxSide + 1, 2}, {2, MaxSide + 1}, {40000, 2}} {
		if _, err := NewMesh(dims[0], dims[1]); err == nil {
			t.Errorf("NewMesh(%d,%d) should fail", dims[0], dims[1])
		}
	}
}

func TestMustMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMesh(1,1) must panic")
		}
	}()
	MustMesh(1, 1)
}

func TestXYNodeRoundTrip(t *testing.T) {
	m := MustMesh(8, 8)
	for n := 0; n < m.Nodes(); n++ {
		x, y := m.XY(n)
		if m.Node(x, y) != n {
			t.Fatalf("round trip failed for node %d", n)
		}
		if !m.Contains(x, y) {
			t.Fatalf("node %d coordinates out of mesh", n)
		}
	}
}

func TestNeighborGeometry(t *testing.T) {
	m := MustMesh(8, 8)
	// Node 0 is the NW corner.
	if m.Neighbor(0, flit.North) != -1 || m.Neighbor(0, flit.West) != -1 {
		t.Error("corner node 0 must lack North/West links")
	}
	if m.Neighbor(0, flit.East) != 1 || m.Neighbor(0, flit.South) != 8 {
		t.Error("corner node 0 East/South neighbours wrong")
	}
	// Center node.
	n := m.Node(3, 3)
	if m.Neighbor(n, flit.North) != m.Node(3, 2) ||
		m.Neighbor(n, flit.South) != m.Node(3, 4) ||
		m.Neighbor(n, flit.East) != m.Node(4, 3) ||
		m.Neighbor(n, flit.West) != m.Node(2, 3) {
		t.Error("center neighbours wrong")
	}
	if m.Neighbor(n, flit.Local) != -1 {
		t.Error("Local port has no neighbour")
	}
}

func TestNeighborSymmetryProperty(t *testing.T) {
	m := MustMesh(8, 8)
	f := func(nRaw uint8, pRaw uint8) bool {
		n := int(nRaw) % m.Nodes()
		p := flit.Port(pRaw % 4)
		to := m.Neighbor(n, p)
		if to == -1 {
			return true
		}
		// Leaving through p arrives at the opposite input; going back
		// through that port returns home.
		return m.Neighbor(to, p.Opposite()) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistance(t *testing.T) {
	m := MustMesh(8, 8)
	if d := m.Distance(0, m.Node(7, 7)); d != 14 {
		t.Errorf("corner-to-corner distance = %d, want 14", d)
	}
	if d := m.Distance(5, 5); d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
	if m.Distance(0, 1) != 1 || m.Distance(0, 8) != 1 {
		t.Error("adjacent distances wrong")
	}
}

func TestDistanceSymmetricTriangleProperty(t *testing.T) {
	m := MustMesh(8, 8)
	f := func(aRaw, bRaw, cRaw uint8) bool {
		a, b, c := int(aRaw)%64, int(bRaw)%64, int(cRaw)%64
		if m.Distance(a, b) != m.Distance(b, a) {
			return false
		}
		return m.Distance(a, c) <= m.Distance(a, b)+m.Distance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinksCountAndConsistency(t *testing.T) {
	m := MustMesh(8, 8)
	links := m.Links()
	// A w×h mesh has 2*(w*(h-1) + h*(w-1)) directed links.
	want := 2 * (8*7 + 8*7)
	if len(links) != want {
		t.Errorf("links = %d, want %d", len(links), want)
	}
	seen := map[Link]bool{}
	for _, l := range links {
		if seen[l] {
			t.Fatalf("duplicate link %+v", l)
		}
		seen[l] = true
		if m.Neighbor(l.From, l.FromPort) != l.To {
			t.Fatalf("link %+v inconsistent with Neighbor", l)
		}
		if l.ToPort != l.FromPort.Opposite() {
			t.Fatalf("link %+v has wrong arrival port", l)
		}
	}
}

func TestHasPort(t *testing.T) {
	m := MustMesh(4, 4)
	if m.HasPort(0, flit.North) {
		t.Error("node 0 has no North link")
	}
	if !m.HasPort(5, flit.North) {
		t.Error("interior node must have all links")
	}
}

func TestAverageDistance8x8(t *testing.T) {
	m := MustMesh(8, 8)
	got := m.AverageDistance()
	// For a k×k mesh, the average Manhattan distance over all ordered pairs
	// (excluding self) is 2 * k*(k*k-1)/3 / (k*k-1)... compute directly:
	// E[|dx|] over ordered pairs including equal coords is (k^2-1)/(3k) per
	// dimension; restricted to src!=dst it is slightly different, so just
	// sanity-bound it.
	if got < 5.0 || got > 5.6 {
		t.Errorf("average distance = %v, want ~5.33", got)
	}
}

func TestBisectionLinks(t *testing.T) {
	if got := MustMesh(8, 8).BisectionLinks(); got != 16 {
		t.Errorf("bisection links = %d, want 16", got)
	}
}
