package monge

import (
	"partree/internal/matrix"
	"partree/internal/xmath"
)

// strided index helpers: a strided view samples rows 0, s, 2s, … of A and
// columns 0, s', 2s', … of B. The inner dimension q is never sampled, so
// cut values are always indices into [0, q).

func stridedCount(n, stride int) int { return xmath.CeilDiv(n, stride) }

// CutRecursive computes Cut(A,B) for concave A (p×q) and B (q×r) with the
// paper's Section 4.1 recursive algorithm: recurse on (A_even, B_even),
// then fill the odd columns of the even rows and finally the odd rows by
// monotonicity-bracketed scans. Each recursion level costs O(pq/2^k + qr)
// comparisons and the depth is min(⌈log p⌉, ⌈log r⌉); for square inputs
// the total is O(n²) comparisons (Theorem 4.1), against Θ(n³) for the
// brute-force product.
//
// The returned cut table has Cut[i][j] = smallest k minimizing
// A[i][k]+B[k][j], or -1 if every candidate is +∞. For concave inputs the
// result is identical to matrix.MulBrute's cut.
func CutRecursive(a, b *matrix.Dense, cnt *matrix.OpCount) *matrix.IntMat {
	c := newMulCtx(nil, a, b, cnt)
	defer c.close()
	return cutRecStrided(c, 1, 1)
}

// cutRecStrided computes the cut table for the view (rows of A with stride
// rs, columns of B with stride cs). The result is indexed by view position:
// entry (ii, jj) corresponds to row ii*rs of A and column jj*cs of B.
func cutRecStrided(c *mulCtx, rs, cs int) *matrix.IntMat {
	p := stridedCount(c.a.R, rs)
	r := stridedCount(c.b.C, cs)
	q := c.a.C

	if p == 1 || r == 1 {
		out := matrix.NewIntFromPool(c.scope, p, r)
		for ii := 0; ii < p; ii++ {
			for jj := 0; jj < r; jj++ {
				_, arg := c.scan(ii*rs, jj*cs, 0, q-1)
				out.Set(ii, jj, arg)
			}
		}
		return out
	}

	// Cut(A_even, B_even) by recursion: double both strides.
	ee := cutRecStrided(c, 2*rs, 2*cs)

	// Cut(A_even, B) by interpolation: even view-rows, all view-columns.
	pe := stridedCount(c.a.R, 2*rs)
	eb := matrix.NewIntFromPool(c.scope, pe, r)
	for ii := 0; ii < pe; ii++ {
		for jj := 0; jj < r; jj++ {
			if jj%2 == 0 {
				eb.Set(ii, jj, ee.At(ii, jj/2))
				continue
			}
			lo, hi := 0, q-1
			if k := ee.At(ii, (jj-1)/2); k >= 0 {
				lo = k
			}
			if (jj+1)/2 < ee.C {
				if k := ee.At(ii, (jj+1)/2); k >= 0 {
					hi = k
				}
			}
			_, arg := c.scan(ii*2*rs, jj*cs, lo, hi)
			eb.Set(ii, jj, arg)
		}
	}
	// The even-grid table is fully folded into eb; recycle it for the
	// sibling recursion levels.
	ee.Release()

	// Cut(A, B) by interpolation: all view-rows from the even view-rows.
	out := matrix.NewIntFromPool(c.scope, p, r)
	for ii := 0; ii < p; ii++ {
		if ii%2 == 0 {
			for jj := 0; jj < r; jj++ {
				out.Set(ii, jj, eb.At(ii/2, jj))
			}
			continue
		}
		for jj := 0; jj < r; jj++ {
			lo, hi := 0, q-1
			if k := eb.At((ii-1)/2, jj); k >= 0 {
				lo = k
			}
			if (ii+1)/2 < eb.R {
				if k := eb.At((ii+1)/2, jj); k >= 0 {
					hi = k
				}
			}
			_, arg := c.scan(ii*rs, jj*cs, lo, hi)
			out.Set(ii, jj, arg)
		}
	}
	eb.Release()
	return out
}

// Mul computes the (min,+) product of two concave matrices with the
// Section 4.1 algorithm, returning the product and its cut table.
func Mul(a, b *matrix.Dense, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat) {
	cut := CutRecursive(a, b, cnt)
	return matrix.ValueFromCut(a, b, cut), cut
}
