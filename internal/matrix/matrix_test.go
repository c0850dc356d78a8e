package matrix

import (
	"math/rand"
	"testing"

	"partree/internal/pram"
	"partree/internal/semiring"
)

func randMat(rng *rand.Rand, r, c int) *Dense {
	d := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			d.Set(i, j, float64(rng.Intn(100)))
		}
	}
	return d
}

func TestNewAndAccessors(t *testing.T) {
	d := New(2, 3)
	if d.R != 2 || d.C != 3 {
		t.Fatal("shape wrong")
	}
	d.Set(1, 2, 5)
	if d.At(1, 2) != 5 || d.At(0, 0) != 0 {
		t.Error("Set/At wrong")
	}
	row := d.Row(1)
	row[0] = 9
	if d.At(1, 0) != 9 {
		t.Error("Row must be a live view")
	}
}

func TestNewFullAndInf(t *testing.T) {
	d := NewFull(2, 2, 3.5)
	if d.At(0, 0) != 3.5 || d.At(1, 1) != 3.5 {
		t.Error("NewFull wrong")
	}
	inf := NewInf(2, 2)
	if !semiring.IsInf(inf.At(0, 1)) {
		t.Error("NewInf wrong")
	}
}

func TestFromRowsAndClone(t *testing.T) {
	d := FromRows([][]float64{{1, 2}, {3, 4}})
	if d.At(1, 0) != 3 {
		t.Error("FromRows wrong")
	}
	c := d.Clone()
	c.Set(0, 0, 100)
	if d.At(0, 0) != 1 {
		t.Error("Clone must deep copy")
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged rows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestEqual(t *testing.T) {
	a := FromRows([][]float64{{1, semiring.Inf}, {3, 4}})
	b := a.Clone()
	if !a.Equal(b, 0) {
		t.Error("identical matrices must be Equal")
	}
	b.Set(1, 1, 4+1e-12)
	if !a.Equal(b, 1e-9) {
		t.Error("tiny difference within eps must be Equal")
	}
	b.Set(0, 1, 5) // Inf vs finite
	if a.Equal(b, 1e-9) {
		t.Error("Inf vs finite must not be Equal")
	}
	if a.Equal(New(2, 3), 0) {
		t.Error("shape mismatch must not be Equal")
	}
}

func TestMulBruteSmallKnown(t *testing.T) {
	// (min,+) product worked by hand.
	a := FromRows([][]float64{
		{1, 5},
		{2, semiring.Inf},
	})
	b := FromRows([][]float64{
		{0, 10},
		{3, 1},
	})
	var cnt OpCount
	p, cut := MulBrute(a, b, &cnt)
	// p[0][0] = min(1+0, 5+3) = 1 (k=0); p[0][1] = min(1+10, 5+1) = 6 (k=1)
	// p[1][0] = min(2+0, ∞+3) = 2 (k=0); p[1][1] = min(2+10, ∞) = 12 (k=0)
	want := FromRows([][]float64{{1, 6}, {2, 12}})
	if !p.Equal(want, 0) {
		t.Fatalf("product =\n%v want\n%v", p, want)
	}
	if cut.At(0, 0) != 0 || cut.At(0, 1) != 1 || cut.At(1, 1) != 0 {
		t.Errorf("cut wrong: %v %v %v", cut.At(0, 0), cut.At(0, 1), cut.At(1, 1))
	}
	if cnt.Load() != 8 {
		t.Errorf("comparisons = %d, want 2*2*2 = 8", cnt.Load())
	}
}

func TestMulBruteAllInfGivesCutMinusOne(t *testing.T) {
	a := NewInf(2, 2)
	b := NewInf(2, 2)
	var cnt OpCount
	p, cut := MulBrute(a, b, &cnt)
	if !semiring.IsInf(p.At(0, 0)) || cut.At(0, 0) != -1 {
		t.Error("all-∞ product must be ∞ with cut -1")
	}
}

func TestMulBruteParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(8))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {16, 16, 16}, {7, 13, 5}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])
		var c1, c2 OpCount
		p1, cut1 := MulBrute(a, b, &c1)
		p2, cut2 := MulBrutePar(m, a, b, &c2)
		if !p1.Equal(p2, 0) {
			t.Fatalf("dims %v: parallel product differs", dims)
		}
		for i := 0; i < cut1.R; i++ {
			for j := 0; j < cut1.C; j++ {
				if cut1.At(i, j) != cut2.At(i, j) {
					t.Fatalf("dims %v: cut differs at (%d,%d)", dims, i, j)
				}
			}
		}
		if c1.Load() != c2.Load() {
			t.Errorf("dims %v: comparison counts differ: %d vs %d", dims, c1.Load(), c2.Load())
		}
	}
}

func TestMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 4, 5)
	b := randMat(rng, 5, 6)
	c := randMat(rng, 6, 3)
	var cnt OpCount
	ab, _ := MulBrute(a, b, &cnt)
	abc1, _ := MulBrute(ab, c, &cnt)
	bc, _ := MulBrute(b, c, &cnt)
	abc2, _ := MulBrute(a, bc, &cnt)
	if !abc1.Equal(abc2, 1e-9) {
		t.Error("(min,+) product must be associative")
	}
}

func TestValueFromCut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 6, 7)
	b := randMat(rng, 7, 4)
	var cnt OpCount
	p, cut := MulBrute(a, b, &cnt)
	if got := ValueFromCut(a, b, cut); !got.Equal(p, 0) {
		t.Error("ValueFromCut must reconstruct the product")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	var cnt OpCount
	MulBrute(New(2, 3), New(4, 2), &cnt)
}

func TestOpCountNilSafe(t *testing.T) {
	var c *OpCount
	c.Add(5) // must not panic
	if c.Load() != 0 {
		t.Error("nil OpCount should load 0")
	}
	c.Reset()
	var real OpCount
	real.Add(3)
	real.Add(4)
	if real.Load() != 7 {
		t.Error("OpCount arithmetic wrong")
	}
	real.Reset()
	if real.Load() != 0 {
		t.Error("Reset failed")
	}
}

func TestIntMat(t *testing.T) {
	m := NewInt(2, 2)
	m.Set(0, 1, 42)
	m.Set(1, 0, -1)
	if m.At(0, 1) != 42 || m.At(1, 0) != -1 || m.At(0, 0) != 0 {
		t.Error("IntMat wrong")
	}
}

func TestStringRendering(t *testing.T) {
	d := FromRows([][]float64{{1, semiring.Inf}})
	if s := d.String(); s != "1 ∞\n" {
		t.Errorf("String() = %q", s)
	}
}

// TestScopeTracksPooledMatrices: pooled matrices made inside a Run are
// released by its unwind unless already released; those still live when
// Run returns normally belong to the caller.
func TestScopeTracksPooledMatrices(t *testing.T) {
	m := pram.New()
	var kept *IntMat
	if err := m.Run(func() {
		kept = NewIntFromPool(m.Scope(), 3, 3)
		NewInfFromPool(m.Scope(), 2, 2).Release()
	}); err != nil {
		t.Fatal(err)
	}
	if kept.released {
		t.Fatal("normal Run exit released a result")
	}
	var live, done *Dense
	func() {
		defer func() { _ = recover() }()
		_ = m.Run(func() {
			live = NewFromPool(m.Scope(), 2, 2)
			done = NewFromPool(m.Scope(), 2, 2)
			done.Release()
			panic("unwind")
		})
	}()
	if !live.released || !done.released {
		t.Fatalf("after unwind: live released=%v, done released=%v", live.released, done.released)
	}
	kept.Release() // detached from the first Run: must not touch the scope
}
