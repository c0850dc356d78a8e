package obst

import (
	"math"

	"partree/internal/faultpoint"
	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/pram"
	"partree/internal/tree"
)

// ApproxResult carries the output of the parallel approximation together
// with the artifacts the experiments report.
type ApproxResult struct {
	// Tree is the constructed search tree for the original instance.
	Tree *tree.Node
	// Cost is the weighted path length of Tree.
	Cost float64
	// Epsilon is the additive error bound the construction guarantees
	// (Lemma 6.2): Cost ≤ optimal + Epsilon.
	Epsilon float64
	// Collapsed is the number of keys in the collapsed instance.
	Collapsed int
	// HeightBound is the H = O(log(1/ε)) used for the bounded DP.
	HeightBound int
	// Comparisons counts semiring comparisons across all concave products.
	Comparisons int64
}

// goldenRatio is φ of Lemma 6.1.
var goldenRatio = (1 + math.Sqrt(5)) / 2

// Approx constructs a binary search tree whose weighted path length is
// within eps of optimal, following the paper's Section 6 algorithm:
//
//  1. δ = ε/(2n log n); frequencies < δ are small.
//  2. Every maximal run of small frequencies (starting and ending with a
//     gap probability) collapses to one pseudo-gap of weight < ε.
//  3. H = O(log(1/δ)) bounds the height of an optimal tree of the
//     collapsed instance (Lemma 6.1, via the golden ratio).
//  4. The optimal collapsed tree is found exactly by H height-bounded
//     concave matrix products (Lemma 5.1 applies verbatim; each product
//     uses the Section 4 algorithm).
//  5. Collapsed pseudo-gaps are expanded into balanced trees of height
//     ≤ log n over their runs.
//
// Lemma 6.2 then bounds the total error by ε. The instance's total
// probability mass should be ≈ 1 for the lemma's bound to be meaningful.
func Approx(m *pram.Machine, in *Instance, eps float64) *ApproxResult {
	defer m.Phase("obst.Approx")()
	n := in.N()
	if eps <= 0 {
		panic("obst: eps must be positive")
	}
	logn := math.Log2(float64(n) + 2)
	delta := eps / (2 * float64(n) * logn)

	// Step 2: collapse maximal runs of small frequencies. A run is a
	// maximal interval gap g₀, key g₀+1, …, gap g₁ with every α and β
	// inside < δ. Runs of a single gap are allowed (they start and end
	// with a p value, themselves).
	type gapInfo struct {
		weight float64
		gLo    int // original gap range [gLo, gHi] this pseudo-gap covers
		gHi    int
	}
	var gaps []gapInfo
	var keys []int // collapsed key index → original key index
	g := 0
	for g <= n {
		if in.Alpha[g] < delta {
			// Extend the run while the following key and gap are small.
			h := g
			weight := in.Alpha[g]
			for h < n && in.Beta[h] < delta && in.Alpha[h+1] < delta {
				weight += in.Beta[h] + in.Alpha[h+1]
				h++
			}
			gaps = append(gaps, gapInfo{weight: weight, gLo: g, gHi: h})
			if h < n {
				keys = append(keys, h)
			}
			g = h + 1
		} else {
			gaps = append(gaps, gapInfo{weight: in.Alpha[g], gLo: g, gHi: g})
			if g < n {
				keys = append(keys, g)
			}
			g++
		}
	}
	nc := len(keys) // collapsed key count; len(gaps) == nc+1

	// Degenerate case: everything collapsed into one pseudo-gap — any
	// balanced tree is within ε of optimal.
	if nc == 0 {
		t := Balanced(0, n)
		fillWeights(in, t)
		return &ApproxResult{
			Tree: t, Cost: in.Cost(t), Epsilon: eps, Collapsed: 0,
		}
	}

	// Step 3: height bound from Lemma 6.1.
	h := int(math.Ceil(math.Log2(1/delta)/math.Log2(goldenRatio))) + 3
	maxUseful := 2 * (nc + 1) // no minimal tree is deeper than the node count
	if h > maxUseful {
		h = maxUseful
	}

	// Step 4: height-bounded DP over the collapsed instance with concave
	// products: E_t = shift(E_{t-1}) ⋆ E_{t-1} + W, diag(E_t) = 0.
	cBeta := make([]float64, nc)
	for i, k := range keys {
		cBeta[i] = in.Beta[k]
	}
	cAlpha := make([]float64, nc+1)
	for i, gi := range gaps {
		cAlpha[i] = gi.weight
	}
	cInst := &Instance{Beta: cBeta, Alpha: cAlpha}
	w := cInst.weights()

	e := matrix.NewInf(nc+1, nc+1)
	for a := 0; a <= nc; a++ {
		e.Set(a, a, 0)
	}
	var cnt matrix.OpCount
	cuts := make([]*matrix.IntMat, h)
	for t := 0; t < h; t++ {
		faultpoint.Hit("obst.approx.level")
		shifted := matrix.NewInf(nc+1, nc+1)
		m.For((nc+1)*(nc+1), func(idx int) {
			a, k := idx/(nc+1), idx%(nc+1)
			if k >= 1 {
				shifted.Set(a, k, e.At(a, k-1))
			}
		})
		prod, cut := monge.MulPar(m, shifted, e, &cnt)
		cuts[t] = cut
		next := matrix.NewInf(nc+1, nc+1)
		m.For((nc+1)*(nc+1), func(idx int) {
			a, b := idx/(nc+1), idx%(nc+1)
			switch {
			case a == b:
				next.Set(a, b, 0)
			case a < b:
				next.Set(a, b, prod.At(a, b)+w(a, b))
			}
		})
		e = next
		prod.Release()
	}

	// Reconstruct the collapsed tree from the cut tables, then expand the
	// pseudo-gaps (step 5).
	var build func(level, a, b int) *tree.Node
	build = func(level, a, b int) *tree.Node {
		if a == b {
			gi := gaps[a]
			if gi.gLo == gi.gHi {
				return tree.NewLeaf(gi.gLo, in.Alpha[gi.gLo])
			}
			sub := Balanced(gi.gLo, gi.gHi)
			fillWeights(in, sub)
			return sub
		}
		r := cuts[level-1].At(a, b)
		if r <= a || r > b {
			panic("obst: invalid cut during reconstruction")
		}
		orig := keys[r-1]
		return &tree.Node{
			Symbol: orig,
			Weight: in.Beta[orig],
			Left:   build(level-1, a, r-1),
			Right:  build(level-1, r, b),
		}
	}
	t := build(h, 0, nc)
	for _, c := range cuts {
		c.Release()
	}

	return &ApproxResult{
		Tree:        t,
		Cost:        in.Cost(t),
		Epsilon:     eps,
		Collapsed:   nc,
		HeightBound: h,
		Comparisons: cnt.Load(),
	}
}

// fillWeights stamps instance probabilities onto a structurally built
// search tree.
func fillWeights(in *Instance, t *tree.Node) {
	if t == nil {
		return
	}
	if t.IsLeaf() {
		t.Weight = in.Alpha[t.Symbol]
		return
	}
	t.Weight = in.Beta[t.Symbol]
	fillWeights(in, t.Left)
	fillWeights(in, t.Right)
}
