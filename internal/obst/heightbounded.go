package obst

import (
	"fmt"

	"partree/internal/faultpoint"
	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/pram"
	"partree/internal/semiring"
	"partree/internal/tree"
)

// HeightBounded computes an exact optimal binary search tree among trees
// of height at most h (counting internal levels; a single key has height
// 0... a root-only tree has height 1 here, with its gap leaves at depth
// 1). This is step 4 of the paper's Section 6 algorithm — "computes
// optimal binary search trees of height bounded by H for all pairs" —
// exposed as a feature in its own right, mirroring hufpar.HeightLimited.
// It runs h concave products E_t = shift(E_{t-1}) ⋆ E_{t-1} + W and
// reconstructs the tree from the stored cuts. It returns an error when no
// tree of n keys fits in height h (2^h − 1 < n).
func HeightBounded(m *pram.Machine, in *Instance, h int) (float64, *tree.Node, error) {
	n := in.N()
	if h < 1 {
		return 0, nil, fmt.Errorf("obst: height bound %d < 1", h)
	}
	if h < 62 && (1<<uint(h))-1 < n {
		return 0, nil, fmt.Errorf("obst: %d keys cannot fit in height %d", n, h)
	}
	w := in.weights()
	defer m.Phase("obst.HeightBounded")()

	e := matrix.NewInf(n+1, n+1)
	for a := 0; a <= n; a++ {
		e.Set(a, a, 0)
	}
	var cnt matrix.OpCount
	cuts := make([]*matrix.IntMat, h)
	for t := 0; t < h; t++ {
		faultpoint.Hit("obst.height.level")
		shifted := matrix.NewInf(n+1, n+1)
		m.For((n+1)*(n+1), func(idx int) {
			a, k := idx/(n+1), idx%(n+1)
			if k >= 1 {
				shifted.Set(a, k, e.At(a, k-1))
			}
		})
		prod, cut := monge.MulPar(m, shifted, e, &cnt)
		cuts[t] = cut
		next := matrix.NewInf(n+1, n+1)
		m.For((n+1)*(n+1), func(idx int) {
			a, b := idx/(n+1), idx%(n+1)
			switch {
			case a == b:
				next.Set(a, b, 0)
			case a < b:
				if v := prod.At(a, b); !semiring.IsInf(v) {
					next.Set(a, b, v+w(a, b))
				}
			}
		})
		e = next
		prod.Release()
	}
	releaseCuts := func() {
		for _, c := range cuts {
			c.Release()
		}
	}
	cost := e.At(0, n)
	if semiring.IsInf(cost) {
		releaseCuts()
		return 0, nil, fmt.Errorf("obst: height %d infeasible for %d keys", h, n)
	}

	var build func(level, a, b int) *tree.Node
	build = func(level, a, b int) *tree.Node {
		if a == b {
			return tree.NewLeaf(a, in.Alpha[a])
		}
		if level <= 0 {
			panic("obst: height budget exhausted during reconstruction")
		}
		r := cuts[level-1].At(a, b)
		if r <= a || r > b {
			panic("obst: invalid cut during reconstruction")
		}
		return &tree.Node{
			Symbol: r - 1,
			Weight: in.Beta[r-1],
			Left:   build(level-1, a, r-1),
			Right:  build(level-1, r, b),
		}
	}
	t := build(h, 0, n)
	releaseCuts()
	return cost, t, nil
}
