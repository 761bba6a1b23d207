package topology

import "testing"

// TestSplitEven checks the cut invariants the sharded backend's row and
// column bands rest on: parts+1 ascending offsets from 0 to size, segment
// lengths within one of each other, and the remainder spread over the first
// segments (8 over 3 is 3+3+2).
func TestSplitEven(t *testing.T) {
	for size := 1; size <= 17; size++ {
		for parts := 1; parts <= size; parts++ {
			cuts := SplitEven(size, parts)
			if len(cuts) != parts+1 || cuts[0] != 0 || cuts[parts] != size {
				t.Fatalf("SplitEven(%d, %d) = %v: want %d offsets from 0 to %d", size, parts, cuts, parts+1, size)
			}
			for i := 0; i < parts; i++ {
				want := size / parts
				if i < size%parts {
					want++
				}
				if got := cuts[i+1] - cuts[i]; got != want {
					t.Errorf("SplitEven(%d, %d) = %v: segment %d spans %d, want %d", size, parts, cuts, i, got, want)
				}
			}
		}
	}
	if got := SplitEven(8, 3); got[1] != 3 || got[2] != 6 {
		t.Errorf("SplitEven(8, 3) = %v, want [0 3 6 8]", got)
	}
}

// TestGrid2DFeasibility pins the factorization rules: exact grids only, both
// dimensions clamped to the mesh, infeasible counts reduced to the largest
// feasible one.
func TestGrid2DFeasibility(t *testing.T) {
	cases := []struct {
		w, h, n, gx, gy int
	}{
		{8, 8, 1, 1, 1},
		{8, 8, 4, 2, 2},       // square grid beats 4 or 1x4 strips
		{8, 8, 16, 4, 4},      // square again
		{8, 8, 2, 1, 2},       // tie with 2x1 -> taller: row bands are contiguous node ranges
		{8, 8, 8, 2, 4},       // cost 1*8+3*8 = 32 beats 8x1 (56) and 4x2 (32, tie -> taller)
		{8, 8, 13, 3, 4},      // 13 is infeasible; falls back to 12 = 3x4 (tie with 4x3)
		{8, 2, 4, 4, 1},       // only 2 rows: 2x2 (cost 2+8=10) loses to 4x1 (3*2=6)
		{2, 8, 4, 1, 4},       // transposed
		{4, 4, 32, 4, 4},      // clamped to the 16-node mesh
		{8, 8, 1 << 20, 8, 8}, // clamped to 64 single-node tiles
	}
	for _, c := range cases {
		gx, gy := Grid2D(c.w, c.h, c.n)
		if gx != c.gx || gy != c.gy {
			t.Errorf("Grid2D(%d, %d, %d) = %dx%d, want %dx%d", c.w, c.h, c.n, gx, gy, c.gx, c.gy)
		}
	}
}

// cutLinks counts the directed mesh links whose endpoints fall in different
// tiles of the gx×gy grid with SplitEven bands — measured on the real link
// list, not by Grid2D's cost formula.
func cutLinks(m *Mesh, gx, gy int) int {
	band := func(cuts []int, v int) int {
		i := 0
		for v >= cuts[i+1] {
			i++
		}
		return i
	}
	xcuts, ycuts := SplitEven(m.Width, gx), SplitEven(m.Height, gy)
	tile := func(n int) int {
		x, y := m.XY(n)
		return band(ycuts, y)*gx + band(xcuts, x)
	}
	cut := 0
	for _, l := range m.Links() {
		if tile(l.From) != tile(l.To) {
			cut++
		}
	}
	return cut
}

// TestGrid2DMinimality is the 2D grid's reason to exist: on a square mesh it
// must beat column strips. 8×8 over 4 tiles: a 2×2 grid cuts 32 directed
// links, 4 column strips cut 48.
func TestGrid2DMinimality(t *testing.T) {
	m := MustMesh(8, 8)
	if gx, gy := m.Grid2D(4); gx != 2 || gy != 2 {
		t.Fatalf("Grid2D(8, 8, 4) = %dx%d, want 2x2", gx, gy)
	}
	if grid, strips := cutLinks(m, 2, 2), cutLinks(m, 4, 1); grid != 32 || strips != 48 {
		t.Fatalf("cut links: grid %d (want 32), strips %d (want 48)", grid, strips)
	}

	// A pure horizontal cut severs only vertical links (Width per direction);
	// a 2×2 grid severs both orientations.
	if got, want := cutLinks(MustMesh(4, 8), 1, 2), 2*4; got != want {
		t.Errorf("4x8 in 1x2: %d cut links, want %d", got, want)
	}
	if got, want := cutLinks(MustMesh(6, 4), 2, 2), 2*4+2*6; got != want {
		t.Errorf("6x4 in 2x2: %d cut links, want %d", got, want)
	}

	// And the chosen factorization must be optimal over all feasible grids of
	// the same tile count, measured on the real links, for a spread of
	// meshes and tile counts.
	for _, dims := range [][2]int{{8, 8}, {8, 4}, {6, 9}} {
		mm := MustMesh(dims[0], dims[1])
		for n := 2; n <= 8; n++ {
			gx, gy := mm.Grid2D(n)
			got := cutLinks(mm, gx, gy)
			for d := 1; d <= gx*gy; d++ {
				if (gx*gy)%d != 0 || d > mm.Width || (gx*gy)/d > mm.Height {
					continue
				}
				if alt := cutLinks(mm, d, (gx*gy)/d); alt < got {
					t.Errorf("%dx%d Grid2D(%d) picked %dx%d with %d cut links; %dx%d cuts only %d",
						dims[0], dims[1], n, gx, gy, got, d, (gx*gy)/d, alt)
				}
			}
		}
	}
}
