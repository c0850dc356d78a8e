package boolmat

import (
	"math/rand"
	"testing"

	"partree/internal/pool"
	"partree/internal/pram"
)

func randMat(rng *rand.Rand, r, c int, density float64) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

func mulNaive(a, b *Matrix) *Matrix {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			for k := 0; k < a.C; k++ {
				if a.Get(i, k) && b.Get(k, j) {
					out.Set(i, j, true)
					break
				}
			}
		}
	}
	return out
}

func TestGetSet(t *testing.T) {
	m := New(3, 130) // crosses word boundaries
	m.Set(2, 129, true)
	m.Set(0, 63, true)
	m.Set(0, 64, true)
	if !m.Get(2, 129) || !m.Get(0, 63) || !m.Get(0, 64) || m.Get(1, 0) {
		t.Error("Get/Set wrong")
	}
	m.Set(0, 63, false)
	if m.Get(0, 63) || !m.Get(0, 64) {
		t.Error("clearing a bit disturbed neighbours")
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d, want 2", m.Count())
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(nil, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if id.Get(i, j) != (i == j) {
				t.Fatal("identity wrong")
			}
		}
	}
	m := randMat(rand.New(rand.NewSource(1)), 5, 5, 0.3)
	if !Mul(nil, id, m).Equal(m) || !Mul(nil, m, id).Equal(m) {
		t.Error("identity must be neutral for Mul")
	}
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		p, q, r := 1+rng.Intn(80), 1+rng.Intn(80), 1+rng.Intn(150)
		a := randMat(rng, p, q, 0.15)
		b := randMat(rng, q, r, 0.15)
		if !Mul(nil, a, b).Equal(mulNaive(a, b)) {
			t.Fatalf("trial %d: Mul differs from naive (%d,%d,%d)", trial, p, q, r)
		}
	}
}

func TestMulParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(4))
	for trial := 0; trial < 15; trial++ {
		p, q, r := 1+rng.Intn(100), 1+rng.Intn(100), 1+rng.Intn(100)
		a := randMat(rng, p, q, 0.2)
		b := randMat(rng, q, r, 0.2)
		if !MulPar(m, a, b).Equal(Mul(nil, a, b)) {
			t.Fatalf("trial %d: parallel product differs", trial)
		}
	}
}

func TestOrAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 10, 10, 0.3)
	b := randMat(rng, 10, 10, 0.3)
	c := a.Clone()
	c.Or(b)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if c.Get(i, j) != (a.Get(i, j) || b.Get(i, j)) {
				t.Fatal("Or wrong")
			}
		}
	}
}

func TestClosureChain(t *testing.T) {
	// Path graph 0→1→2→3: closure is the upper triangle.
	m := New(4, 4)
	for i := 0; i < 3; i++ {
		m.Set(i, i+1, true)
	}
	cl := Closure(m)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if cl.Get(i, j) != (j >= i) {
				t.Fatalf("closure wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestClosureMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(40)
		m := randMat(rng, n, n, 0.08)
		want := m.Clone().Or(Identity(nil, n))
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if want.Get(i, k) {
					for j := 0; j < n; j++ {
						if want.Get(k, j) {
							want.Set(i, j, true)
						}
					}
				}
			}
		}
		if !Closure(m).Equal(want) {
			t.Fatalf("trial %d: closure differs from Floyd-Warshall", trial)
		}
	}
}

func TestMulCounted(t *testing.T) {
	// All-false product: the scan reads each of the 8 rows' single packed
	// word and ORs nothing.
	var cnt OpCounter
	a, b := New(8, 8), New(8, 8)
	MulCounted(a, b, &cnt)
	if cnt.Load() != 8 {
		t.Errorf("all-false ops = %d, want 8 (one scanned word per row)", cnt.Load())
	}
	// With s set bits in A, the multiply additionally ORs s output rows of
	// one word each — counted during the multiply, so the tally reflects
	// the sparse work actually done.
	a.Set(0, 3, true)
	a.Set(5, 1, true)
	a.Set(5, 7, true)
	b.Set(3, 2, true)
	b.Set(1, 6, true)
	var cnt2 OpCounter
	got := MulCounted(a, b, &cnt2)
	if want := int64(8 + 3); cnt2.Load() != want {
		t.Errorf("sparse ops = %d, want %d", cnt2.Load(), want)
	}
	if !got.Equal(Mul(nil, a, b)) {
		t.Error("MulCounted product differs from Mul")
	}
	var nilCnt *OpCounter
	nilCnt.Add(3)
	if nilCnt.Load() != 0 {
		t.Error("nil counter must be inert")
	}
}

func TestReleaseRecyclesAndDoubleReleasePanics(t *testing.T) {
	pool.Reset()
	defer pool.Reset()
	m := NewFromPool(nil, 8, 130)
	m.Set(3, 100, true)
	m.Release()
	if st := pool.Snapshot(); st.Puts == 0 {
		t.Error("Release did not return the slab to the arena")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	m.Release()
}

// TestPooledMulMatchesUnpooled locks the blocked pooled kernel to the
// unpooled baseline bit-for-bit on random matrices spanning tile
// boundaries.
func TestPooledMulMatchesUnpooled(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		p, q, r := 1+rng.Intn(90), 1+rng.Intn(150), 1+rng.Intn(90)
		a, b := New(p, q), New(q, r)
		for i := 0; i < p; i++ {
			for j := 0; j < q; j++ {
				a.Set(i, j, rng.Intn(4) == 0)
			}
		}
		for i := 0; i < q; i++ {
			for j := 0; j < r; j++ {
				b.Set(i, j, rng.Intn(4) == 0)
			}
		}
		pooled := Mul(nil, a, b)
		prev := pool.SetEnabled(false)
		plain := Mul(nil, a, b)
		pool.SetEnabled(prev)
		if !pooled.Equal(plain) {
			t.Fatalf("trial %d (%dx%dx%d): pooled product differs from unpooled", trial, p, q, r)
		}
		pooled.Release()
	}
}

func TestDimensionPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"mul":     func() { Mul(nil, New(2, 3), New(4, 5)) },
		"or":      func() { New(2, 2).Or(New(3, 3)) },
		"closure": func() { Closure(New(2, 3)) },
		"neg":     func() { New(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStringRender(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, true)
	if m.String() != "01\n00\n" {
		t.Errorf("String = %q", m.String())
	}
}

func TestClosureParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(4))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(60)
		x := randMat(rng, n, n, 0.06)
		if !ClosurePar(m, x).Equal(Closure(x)) {
			t.Fatalf("trial %d: parallel closure differs", trial)
		}
	}
}

// TestScopeUnwindSkipsRecycledHeaders: a matrix released inside a Run
// hands its header back to headerPool, where another owner may pick it
// up. When the Run later unwinds, the scope must release only the
// matrices still live in it — never the recycled header's new owner —
// and the arena ledger must balance.
func TestScopeUnwindSkipsRecycledHeaders(t *testing.T) {
	m := pram.New()
	before := pool.Snapshot()
	var other *Matrix
	func() {
		defer func() {
			if r := recover(); r != "unwind" {
				t.Fatalf("recovered %v, want \"unwind\"", r)
			}
		}()
		_ = m.Run(func() {
			a := NewFromPool(m.Scope(), 4, 70)
			a.Release()
			other = NewFromPool(nil, 4, 70) // likely a's recycled header
			NewFromPool(m.Scope(), 4, 70)   // live at the unwind
			Identity(m.Scope(), 5)          // live at the unwind
			panic("unwind")
		})
	}()
	if other.released {
		t.Fatal("the unwind released a header owned outside the Run")
	}
	other.Set(3, 69, true)
	if !other.Get(3, 69) {
		t.Fatal("the surviving matrix lost its storage")
	}
	other.Release()
	after := pool.Snapshot()
	if dg, dp := after.Gets-before.Gets, after.Puts-before.Puts; dg != dp {
		t.Fatalf("pool ledger unbalanced: %d gets vs %d puts", dg, dp)
	}
}

// TestMulParUnwindReleasesOutput: a panic in MulPar's statement body,
// raised on a worker goroutine, reaches the caller of Run with the
// product's output slab back in the arena.
func TestMulParUnwindReleasesOutput(t *testing.T) {
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(1))
	defer m.Close()
	a := randMat(rand.New(rand.NewSource(5)), 64, 64, 0.3)
	b := New(32, 64) // wrong shape for the rows a's bits select
	b.R = 64         // pass the dimension check; row reads run off the end
	before := pool.Snapshot()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range row read did not panic")
			}
		}()
		_ = m.Run(func() { MulPar(m, a, b) })
	}()
	after := pool.Snapshot()
	if dg, dp := after.Gets-before.Gets, after.Puts-before.Puts; dg != dp {
		t.Fatalf("pool ledger unbalanced: %d gets vs %d puts", dg, dp)
	}
}
