// Package matrix provides dense float64 matrices over the (min,+) semiring
// together with the general (non-concave) matrix product that serves as the
// paper's O(n³)-comparison baseline, in both sequential and PRAM-parallel
// form. Cut (argmin) matrices are represented as IntMat.
//
// All products count comparisons through an OpCount so that experiment E2
// can contrast the Θ(pqr) comparisons of the general algorithm against the
// O(n²) comparisons of the concave algorithm in package monge.
package matrix

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"partree/internal/pool"
	"partree/internal/pram"
	"partree/internal/procid"
	"partree/internal/semiring"
)

// opStripes is the stripe count of an OpCount: enough that on common
// core counts each P lands on its own stripe. Power of two for the mask.
const opStripes = 16

// OpCount counts comparison operations across (possibly parallel) matrix
// products. The zero value is ready to use.
//
// The counter is striped by the caller's P onto cache-line-padded cells:
// every parallel scan body charges comparisons as it runs, so a single
// shared atomic would be the most contended word in the whole monge
// layer — all workers bouncing one cache line on every scan. Load and
// Reset sum/zero the stripes; they are coherent only between parallel
// statements (the usual read point), not mid-statement.
type OpCount struct {
	stripes [opStripes]struct {
		n atomic.Int64
		_ [56]byte // one stripe per cache line
	}
}

// Add records k comparisons.
func (c *OpCount) Add(k int64) {
	if c != nil {
		c.stripes[procid.Cur()&(opStripes-1)].n.Add(k)
	}
}

// Load returns the number of comparisons recorded so far.
func (c *OpCount) Load() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.stripes {
		n += c.stripes[i].n.Load()
	}
	return n
}

// Reset zeroes the counter.
func (c *OpCount) Reset() {
	if c != nil {
		for i := range c.stripes {
			c.stripes[i].n.Store(0)
		}
	}
}

// Dense is a dense R×C float64 matrix in row-major layout.
type Dense struct {
	R, C int
	v    []float64
	// pooled marks a matrix whose slab came from the workspace arena;
	// released flips on Release so double releases fail loudly.
	pooled   bool
	released bool
	lease    pram.Lease // registration in the creating Run's scope
}

// New returns an R×C matrix of zeros.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("matrix: negative dimension")
	}
	return &Dense{R: r, C: c, v: make([]float64, r*c)}
}

// NewFromPool returns an R×C zero matrix whose slab is drawn from the
// workspace arena. Call Release when the matrix is no longer needed;
// forgetting to is safe (the slab is simply collected) but forfeits the
// reuse. s is the scope of the machine the calling kernel runs on
// (pram.Machine.Scope): if that Run unwinds before the matrix is
// released, Run releases it. Callers with no machine pass nil.
func NewFromPool(s *pram.Scope, r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("matrix: negative dimension")
	}
	d := &Dense{R: r, C: c, v: pool.Float64s(r * c), pooled: true}
	s.Track(d, &d.lease)
	return d
}

// NewInfFromPool returns a pool-backed R×C matrix filled with +∞.
func NewInfFromPool(s *pram.Scope, r, c int) *Dense {
	d := NewFromPool(s, r, c)
	for i := range d.v {
		d.v[i] = semiring.Inf
	}
	return d
}

// Release returns the matrix's slab to the workspace arena. The matrix
// must not be used afterwards: its storage is dropped, so any access
// panics rather than silently reading recycled memory. Releasing twice
// panics.
func (d *Dense) Release() {
	if d == nil {
		return
	}
	if d.released {
		panic("matrix: double release of Dense")
	}
	d.released = true
	d.lease.Return()
	if d.pooled {
		pool.PutFloat64s(d.v)
	}
	d.v = nil
}

// NewFull returns an R×C matrix with every entry set to fill.
func NewFull(r, c int, fill float64) *Dense {
	d := New(r, c)
	for i := range d.v {
		d.v[i] = fill
	}
	return d
}

// NewInf returns an R×C matrix filled with the semiring's +∞.
func NewInf(r, c int) *Dense { return NewFull(r, c, semiring.Inf) }

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	d := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("matrix: ragged rows")
		}
		copy(d.v[i*c:(i+1)*c], row)
	}
	return d
}

// At returns the (i,j) entry.
func (d *Dense) At(i, j int) float64 { d.check(); return d.v[i*d.C+j] }

// Set stores v at (i,j).
func (d *Dense) Set(i, j int, v float64) { d.check(); d.v[i*d.C+j] = v }

// Row returns a live view of row i (not a copy).
func (d *Dense) Row(i int) []float64 { d.check(); return d.v[i*d.C : (i+1)*d.C] }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := New(d.R, d.C)
	copy(out.v, d.v)
	return out
}

// Equal reports whether d and o have identical shape and entries within eps
// (with equal infinities treated as equal).
func (d *Dense) Equal(o *Dense, eps float64) bool {
	if d.R != o.R || d.C != o.C {
		return false
	}
	for i, v := range d.v {
		w := o.v[i]
		if v == w {
			continue
		}
		if math.IsInf(v, 1) || math.IsInf(w, 1) {
			return false
		}
		if math.Abs(v-w) > eps && math.Abs(v-w) > eps*math.Max(math.Abs(v), math.Abs(w)) {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; +∞ prints as "∞".
func (d *Dense) String() string {
	var b strings.Builder
	for i := 0; i < d.R; i++ {
		for j := 0; j < d.C; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			v := d.At(i, j)
			if semiring.IsInf(v) {
				b.WriteString("∞")
			} else {
				fmt.Fprintf(&b, "%g", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// IntMat is a dense R×C int32 matrix, used for Cut (argmin) tables.
type IntMat struct {
	R, C int
	v    []int32
	// pooled/released/lease: see Dense.
	pooled   bool
	released bool
	lease    pram.Lease
}

// NewInt returns an R×C integer matrix of zeros.
func NewInt(r, c int) *IntMat {
	if r < 0 || c < 0 {
		panic("matrix: negative dimension")
	}
	return &IntMat{R: r, C: c, v: make([]int32, r*c)}
}

// NewIntFromPool returns an R×C zero integer matrix backed by the
// workspace arena; see NewFromPool for the ownership contract.
func NewIntFromPool(s *pram.Scope, r, c int) *IntMat {
	if r < 0 || c < 0 {
		panic("matrix: negative dimension")
	}
	m := &IntMat{R: r, C: c, v: pool.Int32s(r * c), pooled: true}
	s.Track(m, &m.lease)
	return m
}

// Release returns the cut table's slab to the arena; the table must not
// be used afterwards. Releasing twice panics.
func (m *IntMat) Release() {
	if m == nil {
		return
	}
	if m.released {
		panic("matrix: double release of IntMat")
	}
	m.released = true
	m.lease.Return()
	if m.pooled {
		pool.PutInt32s(m.v)
	}
	m.v = nil
}

// At returns the (i,j) entry.
func (m *IntMat) At(i, j int) int { m.check(); return int(m.v[i*m.C+j]) }

// Set stores v at (i,j).
func (m *IntMat) Set(i, j, v int) { m.check(); m.v[i*m.C+j] = int32(v) }

// MulBrute computes the (min,+) product AB by examining every k for every
// output entry: Θ(p·q·r) comparisons. It returns the product and the Cut
// matrix (smallest minimizing k per entry; -1 where every candidate is +∞).
func MulBrute(a, b *Dense, cnt *OpCount) (*Dense, *IntMat) {
	if a.C != b.R {
		panic("matrix: dimension mismatch")
	}
	p, q, r := a.R, a.C, b.C
	out := NewInf(p, r)
	cut := NewInt(p, r)
	for i := 0; i < p; i++ {
		arow := a.Row(i)
		for j := 0; j < r; j++ {
			best, arg := semiring.Inf, -1
			for k := 0; k < q; k++ {
				if s := arow[k] + b.At(k, j); s < best {
					best, arg = s, k
				}
			}
			out.Set(i, j, best)
			cut.Set(i, j, arg)
		}
	}
	cnt.Add(int64(p) * int64(q) * int64(r))
	return out, cut
}

// MulBrutePar computes the (min,+) product on a PRAM: one virtual processor
// per output entry, each scanning all q candidates (the "parallelization of
// dynamic programming" the paper improves upon). Comparisons are still
// Θ(p·q·r); the step count is ⌈pr/P⌉·q-ish under Brent scheduling.
func MulBrutePar(m *pram.Machine, a, b *Dense, cnt *OpCount) (*Dense, *IntMat) {
	if a.C != b.R {
		panic("matrix: dimension mismatch")
	}
	p, q, r := a.R, a.C, b.C
	out := NewInf(p, r)
	cut := NewInt(p, r)
	m.For(p*r, func(e int) {
		i, j := e/r, e%r
		arow := a.Row(i)
		best, arg := semiring.Inf, -1
		for k := 0; k < q; k++ {
			if s := arow[k] + b.At(k, j); s < best {
				best, arg = s, k
			}
		}
		out.Set(i, j, best)
		cut.Set(i, j, arg)
	})
	cnt.Add(int64(p) * int64(q) * int64(r))
	return out, cut
}

// ValueFromCut reconstructs the product value matrix from a Cut table:
// (AB)[i][j] = A[i][k] + B[k][j] with k = Cut[i][j]; entries with cut -1
// are +∞. This is the paper's observation that computing Cut(A,B) suffices,
// since AB follows in O(1) time per entry.
func ValueFromCut(a, b *Dense, cut *IntMat) *Dense {
	out := NewInf(cut.R, cut.C)
	for i := 0; i < cut.R; i++ {
		for j := 0; j < cut.C; j++ {
			if k := cut.At(i, j); k >= 0 {
				out.Set(i, j, a.At(i, k)+b.At(k, j))
			}
		}
	}
	return out
}
