package monge

import (
	"partree/internal/matrix"
	"partree/internal/xmath"
)

// CutBottomUp computes Cut(A,B) with the paper's Section 4.2 bottom-up
// refinement. Instead of halving indices one level at a time, the stride
// over A's rows and B's columns follows the n^{1/2^m} schedule: it starts
// near √n (where a brute-force grid evaluation costs only ~n² comparisons)
// and the exponent halves every iteration, so only O(log log n) rounds are
// needed, each costing O(n²) comparisons. Strides are rounded to powers of
// two so that every finer grid is nested in the coarser one.
//
// Invariant maintained across iterations: rows = Cut(A_mod s, B) — the cut
// for every sampled row at every column. When s reaches 1 this is the full
// cut table. Output convention matches CutRecursive (-1 for all-∞ entries).
func CutBottomUp(a, b *matrix.Dense, cnt *matrix.OpCount) *matrix.IntMat {
	c := newMulCtx(nil, a, b, cnt)
	defer c.close()
	p, q, r := a.R, a.C, b.C

	// Stride exponent schedule: e₁ = ⌈L/2⌉ (stride ≈ √n), then eₘ₊₁ = ⌊eₘ/2⌋.
	L := xmath.CeilLog2(xmath.MaxInt(xmath.MaxInt(p, r), 2))
	e := (L + 1) / 2
	s := 1 << e

	// First level: Cut(A_mod s, B_mod s) by brute force over the coarse grid.
	pg, rg := stridedCount(p, s), stridedCount(r, s)
	grid := matrix.NewIntFromPool(c.scope, pg, rg)
	for ii := 0; ii < pg; ii++ {
		for jj := 0; jj < rg; jj++ {
			_, arg := c.scan(ii*s, jj*s, 0, q-1)
			grid.Set(ii, jj, arg)
		}
	}

	// Step 2 of the paper's loop: widen to all columns (Cut(A_mod s, B)).
	rows := widenColumns(c, grid, s, s)
	grid.Release()

	for s > 1 {
		sNext := 1 << (uint(e) / 2)
		e /= 2
		// Step 1: refine rows to stride sNext on the stride-sNext column
		// grid, bracketing each new row between its stride-s neighbours
		// (row monotonicity). Columns at stride sNext are free to read from
		// rows, which covers every column.
		gridNext := refineRows(c, rows, s, sNext)
		// Step 2: widen the refined rows to all columns (column
		// monotonicity). The superseded tables go back to the arena so the
		// whole refinement ladder reuses two slabs.
		rows.Release()
		rows = widenColumns(c, gridNext, sNext, sNext)
		gridNext.Release()
		s = sNext
	}
	return rows
}

// widenColumns takes grid = Cut(A_mod rs, B_mod cs) and returns
// Cut(A_mod rs, B): for every sampled row, the cut at every column, with
// non-sampled columns bracketed between their nearest sampled neighbours.
func widenColumns(c *mulCtx, grid *matrix.IntMat, rs, cs int) *matrix.IntMat {
	p := stridedCount(c.a.R, rs)
	r := c.b.C
	q := c.a.C
	out := matrix.NewIntFromPool(c.scope, p, r)
	for ii := 0; ii < p; ii++ {
		for j := 0; j < r; j++ {
			if j%cs == 0 {
				out.Set(ii, j, grid.At(ii, j/cs))
				continue
			}
			lo, hi := 0, q-1
			if k := grid.At(ii, j/cs); k >= 0 {
				lo = k
			}
			if nj := j/cs + 1; nj < grid.C {
				if k := grid.At(ii, nj); k >= 0 {
					hi = k
				}
			}
			_, arg := c.scan(ii*rs, j, lo, hi)
			out.Set(ii, j, arg)
		}
	}
	return out
}

// refineRows takes rows = Cut(A_mod s, B) and returns the cut on the finer
// grid Cut(A_mod sNext, B_mod sNext), bracketing each new row between its
// nearest stride-s neighbours. sNext must divide s.
func refineRows(c *mulCtx, rows *matrix.IntMat, s, sNext int) *matrix.IntMat {
	p := stridedCount(c.a.R, sNext)
	r := stridedCount(c.b.C, sNext)
	q := c.a.C
	out := matrix.NewIntFromPool(c.scope, p, r)
	for ii := 0; ii < p; ii++ {
		i := ii * sNext
		if i%s == 0 {
			for jj := 0; jj < r; jj++ {
				out.Set(ii, jj, rows.At(i/s, jj*sNext))
			}
			continue
		}
		for jj := 0; jj < r; jj++ {
			j := jj * sNext
			lo, hi := 0, q-1
			if k := rows.At(i/s, j); k >= 0 {
				lo = k
			}
			if ni := i/s + 1; ni < rows.R {
				if k := rows.At(ni, j); k >= 0 {
					hi = k
				}
			}
			_, arg := c.scan(i, j, lo, hi)
			out.Set(ii, jj, arg)
		}
	}
	return out
}
