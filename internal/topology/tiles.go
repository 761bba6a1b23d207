package topology

// SplitEven divides size into parts contiguous segments of near-equal length
// (the first size%parts segments get one extra element) and returns the
// parts+1 cut offsets: segment i spans [cuts[i], cuts[i+1]).
func SplitEven(size, parts int) []int {
	cuts := make([]int, parts+1)
	base, extra := size/parts, size%parts
	at := 0
	for i := 0; i < parts; i++ {
		cuts[i] = at
		at += base
		if i < extra {
			at++
		}
	}
	cuts[parts] = at
	return cuts
}

// Grid2D chooses the tile-grid factorization for n tiles on a width×height
// mesh: the gx×gy grid (gx vertical bands of columns, gy horizontal bands of
// rows) with gx*gy tiles that minimizes the number of cut links,
//
//	cost(gx, gy) = (gx-1)*height + (gy-1)*width
//
// (each of the gx-1 vertical cuts severs height horizontal link pairs, each
// of the gy-1 horizontal cuts severs width vertical link pairs). Only exact
// factorizations with gx <= width and gy <= height are feasible — every tile
// must own at least one column and one row; when no factorization of n fits
// (n = 13 on an 8×8 mesh), n is reduced until one does, so the effective
// tile count is the largest feasible m <= n. Ties prefer the taller grid
// (larger gy): nodes are numbered row-major, so a band of whole rows is one
// contiguous run of node indices and every per-node array the engine keeps
// (flags, masks, credit counters, the envs themselves) splits between such
// tiles at one place instead of at every row — two tiles side by side share
// every cache line of a byte-per-node array (2 shards at 32×32: 260 ns per
// router-cycle as 2×1, 212 ns as 1×2). n < 1 is clamped to 1.
func Grid2D(width, height, n int) (gx, gy int) {
	if n < 1 {
		n = 1
	}
	if n > width*height {
		n = width * height
	}
	for ; ; n-- {
		bestCost := -1
		for d := 1; d <= n; d++ {
			if n%d != 0 || d > width || n/d > height {
				continue
			}
			cost := (d-1)*height + (n/d-1)*width
			// d ascends, so of equal costs the first — the tallest grid — stays.
			if bestCost < 0 || cost < bestCost {
				bestCost, gx, gy = cost, d, n/d
			}
		}
		if bestCost >= 0 {
			return gx, gy
		}
	}
}

// Grid2D is the mesh-bound form of the package-level Grid2D.
func (m *Mesh) Grid2D(n int) (gx, gy int) { return Grid2D(m.Width, m.Height, n) }
