package monge

import (
	"math/rand"
	"testing"

	"partree/internal/matrix"
	"partree/internal/pram"
)

func TestCutBottomUpCRCWMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(283))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(64))
	for trial := 0; trial < 30; trial++ {
		p, q, r := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a, b := randomPair(rng, p, q, r)
		var c1, c2 matrix.OpCount
		want, wantCut := matrix.MulBrute(a, b, &c1)
		cut := CutBottomUpCRCW(m, a, b, &c2)
		got := matrix.ValueFromCut(a, b, cut)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d dims (%d,%d,%d): values differ", trial, p, q, r)
		}
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				if cut.At(i, j) != wantCut.At(i, j) {
					t.Fatalf("trial %d: cut differs at (%d,%d): %d vs %d",
						trial, i, j, cut.At(i, j), wantCut.At(i, j))
				}
			}
		}
	}
}

func TestCutBottomUpCRCWUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(293))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(64))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(30)
		a := RandomUpperTriangular(rng, n, 60, 4)
		b := RandomUpperTriangular(rng, n, 60, 4)
		var c1, c2 matrix.OpCount
		want, _ := matrix.MulBrute(a, b, &c1)
		got := matrix.ValueFromCut(a, b, CutBottomUpCRCW(m, a, b, &c2))
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d n=%d: ∞-padded values differ", trial, n)
		}
	}
}

// Theorem 4.1's CRCW time bound, measured: the statement depth grows like
// (log log n)² — essentially flat across a 64× size increase — while the
// CREW recursive algorithm's depth grows like log n.
func TestCutBottomUpCRCWStatementDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	var depths []int64
	for _, n := range []int{64, 256, 1024} {
		a, b := randomPair(rng, n, n, n)
		m := pram.New() // unbounded processors: steps = statements
		var cnt matrix.OpCount
		CutBottomUpCRCW(m, a, b, &cnt)
		depths = append(depths, m.Counters().Steps)
		// Comparisons stay O(n² log log n): allow a generous constant.
		if cnt.Load() > int64(40*n*n) {
			t.Errorf("n=%d: %d comparisons exceed 40·n²", n, cnt.Load())
		}
	}
	// From n=64 to n=4096 the depth may grow by only a few statements
	// ((log log n)² changes from ~6.7 to ~11), certainly less than 3×.
	if depths[2] > 3*depths[0] {
		t.Errorf("CRCW statement depth not (log log n)²-flat: %v", depths)
	}
	t.Logf("CRCW statement depths for n=64,256,1024: %v", depths)
}

func TestMultiMinAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(32))
	for trial := 0; trial < 20; trial++ {
		p, q, r := 2+rng.Intn(20), 2+rng.Intn(20), 2+rng.Intn(20)
		a, b := randomPair(rng, p, q, r)
		var cnt matrix.OpCount
		c := newMulCtx(nil, a, b, &cnt)
		var entries []minEntry
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				lo := rng.Intn(q)
				hi := lo + rng.Intn(q-lo)
				entries = append(entries, minEntry{i: i, j: j, lo: lo, hi: hi})
			}
		}
		args := c.multiMin(m, entries)
		for x, en := range entries {
			_, want := c.scan(en.i, en.j, en.lo, en.hi)
			if args[x] != want {
				t.Fatalf("trial %d entry %d: multiMin %d, scan %d", trial, x, args[x], want)
			}
		}
	}
}
