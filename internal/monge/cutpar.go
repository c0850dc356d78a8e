package monge

import (
	"partree/internal/engine"
	"partree/internal/faultpoint"
	"partree/internal/matrix"
	"partree/internal/pram"
)

// CutRecursivePar is the PRAM version of CutRecursive: every interpolation
// phase is one parallel statement over its entries (one virtual processor
// per entry, each doing its monotonicity-bracketed scan), matching the
// paper's CREW schedule. The recursion depth is min(⌈log p⌉, ⌈log r⌉), and
// each level issues O(1) parallel statements, so the counted step depth on
// an unbounded machine is O(min(log p, log r)); with the bracketed scans
// costing O(log q) … O(q) each, the CREW time bound of Theorem 4.1 follows.
func CutRecursivePar(m *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) *matrix.IntMat {
	defer m.Phase("monge.MulPar")()
	c := newMulCtx(m.Scope(), a, b, cnt)
	defer c.close()
	// The serial-cutover threshold is read once per product: levels with
	// at most this many entries run the serial strided recursion in place
	// of the parallel one (same mulCtx, same scans, same comparison
	// counts) for one counted step, skipping the per-statement dispatch
	// that dominates small subproblems.
	return cutRecStridedPar(m, c, 1, 1, engine.MongeSerialEntries())
}

func cutRecStridedPar(m *pram.Machine, c *mulCtx, rs, cs, serial int) *matrix.IntMat {
	faultpoint.Hit("monge.cutpar.level")

	p := stridedCount(c.a.R, rs)
	r := stridedCount(c.b.C, cs)
	q := c.a.C

	if serial > 0 && p*r <= serial {
		out := cutRecStrided(c, rs, cs)
		m.Step(1)
		return out
	}

	if p == 1 || r == 1 {
		out := matrix.NewIntFromPool(c.scope, p, r)
		m.For(p*r, func(e int) {
			ii, jj := e/r, e%r
			_, arg := c.scan(ii*rs, jj*cs, 0, q-1)
			out.Set(ii, jj, arg)
		})
		return out
	}

	ee := cutRecStridedPar(m, c, 2*rs, 2*cs, serial)

	pe := stridedCount(c.a.R, 2*rs)
	eb := matrix.NewIntFromPool(c.scope, pe, r)
	m.For(pe*r, func(e int) {
		ii, jj := e/r, e%r
		if jj%2 == 0 {
			eb.Set(ii, jj, ee.At(ii, jj/2))
			return
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
	})
	// For barriers before returning, so every reader of ee is done.
	ee.Release()

	out := matrix.NewIntFromPool(c.scope, p, r)
	m.For(p*r, func(e int) {
		ii, jj := e/r, e%r
		if ii%2 == 0 {
			out.Set(ii, jj, eb.At(ii/2, jj))
			return
		}
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
	})
	eb.Release()
	return out
}

// MulPar computes the (min,+) product of two concave matrices on a PRAM,
// returning the product and its cut table. The final value reconstruction
// is one additional parallel statement (O(1) time with p·r processors, as
// the paper notes).
func MulPar(m *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat) {
	defer m.Phase("monge.MulPar")()
	cut := CutRecursivePar(m, a, b, cnt)
	faultpoint.Hit("monge.mulpar.value")
	out := matrix.NewInfFromPool(m.Scope(), cut.R, cut.C)
	m.For(cut.R*cut.C, func(e int) {
		i, j := e/cut.C, e%cut.C
		if k := cut.At(i, j); k >= 0 {
			out.Set(i, j, a.At(i, k)+b.At(k, j))
		}
	})
	return out, cut
}
