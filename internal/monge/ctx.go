package monge

import (
	"partree/internal/matrix"
	"partree/internal/pool"
	"partree/internal/pram"
	"partree/internal/semiring"
)

// mulCtx carries the shared state of one Cut(A,B) computation: the input
// matrices, the comparison counter, the finite-support envelopes, and the
// scope its pooled cut tables are tracked in (nil for the serial entry
// points, which run on no machine).
//
// The envelopes solve a practical problem with the paper's ∞-padded DP
// matrices (A_h is +∞ outside the band 0 < j-i ≤ 2^h; M′ is +∞ below the
// diagonal): an output entry whose neighbours have undefined cuts (their
// minima are +∞) would otherwise fall back to scanning all q candidates,
// destroying the O(n²) comparison bound. A candidate k can only be finite
// when A[i][k] and B[k][j] both are, so every scan is clamped to
// [max(loA[i], loB[j]), min(hiA[i], hiB[j])], where loA/hiA bound the
// finite entries of A's rows and loB/hiB those of B's columns. For the
// paper's matrices the finite support of every row and column is an
// interval, so the clamp is exact; for matrices with gaps it is merely a
// sound over-approximation (the extra candidates are +∞ and lose every
// comparison).
type mulCtx struct {
	a, b     *matrix.Dense
	loA, hiA []int // per row of a: first/last finite column (q/-1 if none)
	loB, hiB []int // per column of b: first/last finite row
	cnt      *matrix.OpCount
	scope    *pram.Scope
}

func newMulCtx(s *pram.Scope, a, b *matrix.Dense, cnt *matrix.OpCount) *mulCtx {
	if a.C != b.R {
		panic("monge: dimension mismatch")
	}
	c := &mulCtx{
		a: a, b: b, cnt: cnt, scope: s,
		loA: pool.Ints(a.R), hiA: pool.Ints(a.R),
		loB: pool.Ints(b.C), hiB: pool.Ints(b.C),
	}
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		lo, hi := a.C, -1
		for k, v := range row {
			if !semiring.IsInf(v) {
				if lo == a.C {
					lo = k
				}
				hi = k
			}
		}
		c.loA[i], c.hiA[i] = lo, hi
	}
	for j := 0; j < b.C; j++ {
		lo, hi := b.R, -1
		for k := 0; k < b.R; k++ {
			if !semiring.IsInf(b.At(k, j)) {
				if lo == b.R {
					lo = k
				}
				hi = k
			}
		}
		c.loB[j], c.hiB[j] = lo, hi
	}
	// The envelope pass reads every input entry once; charge it so the
	// counters stay honest.
	c.cnt.Add(int64(a.R)*int64(a.C) + int64(b.R)*int64(b.C))
	return c
}

// close returns the envelope slabs to the workspace arena. Call once the
// product is finished; the ctx must not be used afterwards.
func (c *mulCtx) close() {
	pool.PutInts(c.loA)
	pool.PutInts(c.hiA)
	pool.PutInts(c.loB)
	pool.PutInts(c.hiB)
	c.loA, c.hiA, c.loB, c.hiB = nil, nil, nil, nil
}

// scan returns the minimum of A[i][k]+B[k][j] over k ∈ [lo, hi] clamped to
// the finite-support envelope, together with the smallest minimizing k
// (-1 if every candidate is +∞), charging one comparison per candidate.
func (c *mulCtx) scan(i, j, lo, hi int) (float64, int) {
	if e := c.loA[i]; e > lo {
		lo = e
	}
	if e := c.loB[j]; e > lo {
		lo = e
	}
	if e := c.hiA[i]; e < hi {
		hi = e
	}
	if e := c.hiB[j]; e < hi {
		hi = e
	}
	best, arg := semiring.Inf, -1
	if lo > hi {
		c.cnt.Add(1)
		return best, arg
	}
	arow := c.a.Row(i)
	for k := lo; k <= hi; k++ {
		if s := arow[k] + c.b.At(k, j); s < best {
			best, arg = s, k
		}
	}
	c.cnt.Add(int64(hi - lo + 1))
	return best, arg
}
