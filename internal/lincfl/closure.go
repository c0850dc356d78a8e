package lincfl

import (
	"partree/internal/boolmat"
	"partree/internal/grammar"
	"partree/internal/pram"
)

// ClosureResult is the output of RecognizeClosure.
type ClosureResult struct {
	Accepted  bool
	Vertices  int   // |IV| = K·n(n+1)/2, the O(n²) of Claim 8.1
	Squarings int   // ⌈log₂ |IV|⌉ Boolean squarings
	WordOps   int64 // total 64-bit word operations
}

// RecognizeClosure recognizes w by materializing the full induced graph
// IG(G,w) of Claim 8.1 — every vertex v_{i,j,A} — and computing its
// reflexive-transitive closure by repeated Boolean squaring. This is the
// "parallelization of dynamic programming" baseline the paper's
// introduction criticizes: O(log n) time but on an |IV|×|IV| = Θ(n²K)²
// matrix, i.e. Θ(n⁶K³/64) word operations per squaring — the processor
// appetite Theorem 8.1's separator scheme reduces to M(n). Kept for
// cross-checking and for the E8 ablation; feasible only for small n.
func RecognizeClosure(m *pram.Machine, g *grammar.Linear, w []byte) *ClosureResult {
	n := len(w)
	res := &ClosureResult{}
	if n == 0 {
		return res
	}
	defer m.Phase("lincfl.RecognizeClosure")()
	k := g.NumNT
	cells := n * (n + 1) / 2
	// Triangular cell index for i ≤ j.
	idx := func(i, j int) int { return i*n - i*(i-1)/2 + (j - i) }
	verts := cells * k
	res.Vertices = verts

	adj := boolmat.New(verts, verts)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if j > i {
				for _, r := range g.Right { // consume w_j on the right
					if r.T == w[j] {
						adj.Set(idx(i, j)*k+r.A, idx(i, j-1)*k+r.B, true)
					}
				}
				for _, r := range g.Left { // consume w_i on the left
					if r.T == w[i] {
						adj.Set(idx(i, j)*k+r.A, idx(i+1, j)*k+r.B, true)
					}
				}
			}
		}
	}

	cur := adj.Or(boolmat.Identity(m.Scope(), verts))
	words := int64((verts + 63) / 64)
	for span := 1; span < verts; span <<= 1 {
		cur = boolmat.MulPar(m, cur, cur)
		res.WordOps += int64(verts) * int64(verts) * words
		res.Squarings++
	}

	start := idx(0, n-1)*k + g.Start
	for d := 0; d < n; d++ {
		for _, r := range g.Term {
			if r.T == w[d] && cur.Get(start, idx(d, d)*k+r.A) {
				res.Accepted = true
			}
		}
	}
	return res
}
