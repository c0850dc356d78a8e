package lincfl

import (
	"partree/internal/boolmat"
	"partree/internal/engine"
	"partree/internal/faultpoint"
	"partree/internal/grammar"
	"partree/internal/pram"
)

// The parallel recognizer (Theorem 8.1) works on the induced graph
// IG(G,w): vertices (i,j,A) for intervals 0 ≤ i ≤ j < n, edges consuming
// the outermost terminal on either side. w ∈ L(G) iff some diagonal vertex
// (d,d,q) with q → w_d is reachable from (0,n-1,Start) (Claim 8.1).
//
// The triangle of intervals is split by a separator through the middle:
// two half-size triangles L = T(lo,mid), R = T(mid+1,hi) and the square
// Q = rows lo..mid × cols mid+1..hi between them, itself split
// recursively into quadrants. For every region only the reachability
// between its boundary vertices is kept:
//
//	triangle: IN = first row ∪ last column, OUT = the diagonal cells
//	square:   IN = top row ∪ right column, OUT = left column ∪ bottom row
//
// (paths only move down (i+1) or left (j-1), so they enter and leave a
// region exactly through those boundaries). Region matrices are combined
// with Boolean matrix products — three per level, as in the paper — giving
// the processor recurrence P(n) = max(4·P(n/2), M(n)) = O(M(n)).

// DCResult carries the recognition verdict together with the measurements
// the experiment harness reports.
type DCResult struct {
	Accepted bool
	// Products is the number of Boolean matrix products performed.
	Products int
	// WordOps is the number of 64-bit word operations across products.
	WordOps int64
	// Depth is the recursion depth (the parallel critical path is
	// O(Depth · log n) products deep, each O(log n) CRCW time).
	Depth int
}

type dcCtx struct {
	g     *grammar.Linear
	w     []byte
	k     int // number of nonterminals
	m     *pram.Machine
	cnt   *boolmat.OpCounter
	prods int
	depth int

	leftBlock  map[byte]*boolmat.Matrix // [A][B] = A → tB
	rightBlock map[byte]*boolmat.Matrix // [A][B] = A → Bt
	empty      *boolmat.Matrix          // shared all-false K×K block
}

// release returns every matrix to the workspace arena.
func release(ms ...*boolmat.Matrix) {
	for _, m := range ms {
		m.Release()
	}
}

// RecognizeDC reports whether w ∈ L(G) using the separator
// divide-and-conquer with Boolean matrix multiplication.
func RecognizeDC(m *pram.Machine, g *grammar.Linear, w []byte) *DCResult {
	res := &DCResult{}
	if len(w) == 0 {
		return res
	}
	defer m.Phase("lincfl.RecognizeDC")()
	ctx := &dcCtx{
		g: g, w: w, k: g.NumNT, m: m, cnt: &boolmat.OpCounter{},
		leftBlock:  make(map[byte]*boolmat.Matrix),
		rightBlock: make(map[byte]*boolmat.Matrix),
	}
	for _, r := range g.Left {
		b, ok := ctx.leftBlock[r.T]
		if !ok {
			b = boolmat.New(ctx.k, ctx.k)
			ctx.leftBlock[r.T] = b
		}
		b.Set(r.A, r.B, true)
	}
	for _, r := range g.Right {
		b, ok := ctx.rightBlock[r.T]
		if !ok {
			b = boolmat.New(ctx.k, ctx.k)
			ctx.rightBlock[r.T] = b
		}
		b.Set(r.A, r.B, true)
	}

	n := len(w)
	reach := ctx.tri(0, n-1, 1)
	// Start vertex: cell (0, n-1) — the top-right corner, which is
	// in-index (n-1) of the triangle's first row (or 0 when n == 1).
	in := triIn(0, n-1)
	si, _ := in.lookup([2]int{0, n - 1})
	startIdx := si*ctx.k + g.Start
	for d := 0; d < n; d++ {
		for _, r := range ctx.g.Term {
			if r.T == w[d] && reach.Get(startIdx, d*ctx.k+r.A) {
				res.Accepted = true
			}
		}
	}
	res.Products = ctx.prods
	res.WordOps = ctx.cnt.Load()
	res.Depth = ctx.depth
	reach.Release()
	return res
}

// boundary is an ordered list of grid cells along one edge of a region.
// Each of the four shapes (triangle/rectangle entry/exit) has a closed
// form, so the list is never materialized: cell(i) and lookup compute
// both directions arithmetically and a boundary is a plain value — the
// separator recursion creates millions of them, and a map-backed index
// used to dominate the recognizer's allocation profile.
type boundary struct {
	kind       bkind
	a, b, c, d int // rows a..b, cols c..d (triangles use a..b for both)
}

type bkind uint8

const (
	bTriIn   bkind = iota // first row, then last column (minus the shared corner)
	bTriOut               // the diagonal
	bRectIn               // top row, then right column (minus the shared corner)
	bRectOut              // left column, then bottom row (minus the shared corner)
)

// size returns the number of cells on the boundary.
func (bd boundary) size() int {
	switch bd.kind {
	case bTriIn:
		return 2*(bd.b-bd.a) + 1
	case bTriOut:
		return bd.b - bd.a + 1
	default: // bRectIn, bRectOut
		return (bd.b - bd.a) + (bd.d - bd.c) + 1
	}
}

// cell returns the i-th cell in boundary order.
func (bd boundary) cell(i int) [2]int {
	switch bd.kind {
	case bTriIn:
		if row := bd.b - bd.a + 1; i < row {
			return [2]int{bd.a, bd.a + i}
		} else {
			return [2]int{bd.a + 1 + (i - row), bd.b}
		}
	case bTriOut:
		return [2]int{bd.a + i, bd.a + i}
	case bRectIn:
		if row := bd.d - bd.c + 1; i < row {
			return [2]int{bd.a, bd.c + i}
		} else {
			return [2]int{bd.a + 1 + (i - row), bd.d}
		}
	default: // bRectOut
		if col := bd.b - bd.a + 1; i < col {
			return [2]int{bd.a + i, bd.c}
		} else {
			return [2]int{bd.b, bd.c + 1 + (i - col)}
		}
	}
}

// lookup is the inverse of cell: the position of a cell on the boundary.
func (bd boundary) lookup(cell [2]int) (int, bool) {
	i, j := cell[0], cell[1]
	switch bd.kind {
	case bTriIn:
		if i == bd.a && j >= bd.a && j <= bd.b {
			return j - bd.a, true
		}
		if j == bd.b && i > bd.a && i <= bd.b {
			return (bd.b - bd.a + 1) + (i - bd.a - 1), true
		}
	case bTriOut:
		if i == j && i >= bd.a && i <= bd.b {
			return i - bd.a, true
		}
	case bRectIn:
		if i == bd.a && j >= bd.c && j <= bd.d {
			return j - bd.c, true
		}
		if j == bd.d && i > bd.a && i <= bd.b {
			return (bd.d - bd.c + 1) + (i - bd.a - 1), true
		}
	case bRectOut:
		if j == bd.c && i >= bd.a && i <= bd.b {
			return i - bd.a, true
		}
		if i == bd.b && j > bd.c && j <= bd.d {
			return (bd.b - bd.a + 1) + (j - bd.c - 1), true
		}
	}
	return 0, false
}

// triIn is the triangle's entry boundary: first row, then last column
// (excluding the shared corner).
func triIn(lo, hi int) boundary { return boundary{kind: bTriIn, a: lo, b: hi} }

// triOut is the triangle's exit boundary: the diagonal.
func triOut(lo, hi int) boundary { return boundary{kind: bTriOut, a: lo, b: hi} }

// rectIn: top row, then right column (excluding the shared corner).
func rectIn(a, b, c, d int) boundary { return boundary{kind: bRectIn, a: a, b: b, c: c, d: d} }

// rectOut: left column, then bottom row (excluding the shared corner).
func rectOut(a, b, c, d int) boundary { return boundary{kind: bRectOut, a: a, b: b, c: c, d: d} }

// inject builds the |from|·K × |to|·K matrix that routes state (cell, A)
// to (mapCell(cell), B) for every (A,B) set in block (nil block = the
// identity on nonterminals). Cells that mapCell rejects route nowhere.
func (ctx *dcCtx) inject(from, to boundary, mapCell func([2]int) ([2]int, bool), block *boolmat.Matrix) *boolmat.Matrix {
	out := boolmat.NewFromPool(ctx.m.Scope(), from.size()*ctx.k, to.size()*ctx.k)
	for fi, fn := 0, from.size(); fi < fn; fi++ {
		tc, ok := mapCell(from.cell(fi))
		if !ok {
			continue
		}
		ti, ok := to.lookup(tc)
		if !ok {
			continue
		}
		if block == nil {
			for a := 0; a < ctx.k; a++ {
				out.Set(fi*ctx.k+a, ti*ctx.k+a, true)
			}
			continue
		}
		for a := 0; a < ctx.k; a++ {
			for b := 0; b < ctx.k; b++ {
				if block.Get(a, b) {
					out.Set(fi*ctx.k+a, ti*ctx.k+b, true)
				}
			}
		}
	}
	return out
}

func (ctx *dcCtx) mul(a, b *boolmat.Matrix) *boolmat.Matrix {
	ctx.prods++
	ctx.cnt.Add(int64(a.R) * int64(a.C) * int64((b.C+63)/64))
	// Small block products (most of the separator recursion's, by count)
	// drop out of the PRAM machinery entirely below the profile's cutover
	// — the serial cache-blocked kernel for one counted step, skipping
	// both the statement dispatch and the per-product phase bookkeeping.
	// The counted word-op total above is model-level and unchanged.
	if cut := engine.LinCFLSerialWords(); cut > 0 && boolmat.EstMulWords(a, b) <= int64(cut) {
		out := boolmat.Mul(ctx.m.Scope(), a, b)
		ctx.m.Step(1)
		return out
	}
	return boolmat.MulPar(ctx.m, a, b)
}

func (ctx *dcCtx) noteDepth(d int) {
	if d > ctx.depth {
		ctx.depth = d
	}
}

// same returns the cell unchanged (same-cell injection between regions
// whose boundaries share cells).
func same(c [2]int) ([2]int, bool) { return c, true }

// crossLeft maps (i, col) → (i, col-1), consuming w[col].
func crossLeft(col int) func([2]int) ([2]int, bool) {
	return func(c [2]int) ([2]int, bool) {
		if c[1] != col {
			return c, false
		}
		return [2]int{c[0], col - 1}, true
	}
}

// crossDown maps (row, j) → (row+1, j), consuming w[row].
func crossDown(row int) func([2]int) ([2]int, bool) {
	return func(c [2]int) ([2]int, bool) {
		if c[0] != row {
			return c, false
		}
		return [2]int{row + 1, c[1]}, true
	}
}

func (ctx *dcCtx) blockLeft(t byte) *boolmat.Matrix {
	if b, ok := ctx.leftBlock[t]; ok {
		return b
	}
	return ctx.emptyBlock() // no rules: empty block
}

func (ctx *dcCtx) blockRight(t byte) *boolmat.Matrix {
	if b, ok := ctx.rightBlock[t]; ok {
		return b
	}
	return ctx.emptyBlock()
}

// emptyBlock lazily builds the shared all-false block; inject only reads
// blocks, so one instance serves every terminal with no rules.
func (ctx *dcCtx) emptyBlock() *boolmat.Matrix {
	if ctx.empty == nil {
		ctx.empty = boolmat.New(ctx.k, ctx.k)
	}
	return ctx.empty
}

// tri computes the triangle reachability IN×OUT.
func (ctx *dcCtx) tri(lo, hi, depth int) *boolmat.Matrix {
	ctx.noteDepth(depth)
	faultpoint.Hit("lincfl.tri")
	if lo == hi {
		return boolmat.Identity(ctx.m.Scope(), ctx.k)
	}
	mid := (lo + hi) / 2
	rl := ctx.tri(lo, mid, depth+1)
	rr := ctx.tri(mid+1, hi, depth+1)
	rq := ctx.rect(lo, mid, mid+1, hi, depth+1)
	res := ctx.combineTri(lo, hi, rl, rr, rq)
	// The children are fully folded into res; recycle their slabs for the
	// sibling recursions. (The caching extractor keeps its children alive
	// instead — see derive_dc.go.)
	release(rl, rr, rq)
	return res
}

// combineTri assembles a triangle's boundary reachability from its three
// pieces' matrices — shared with the caching recursion in derive_dc.go.
func (ctx *dcCtx) combineTri(lo, hi int, rl, rr, rq *boolmat.Matrix) *boolmat.Matrix {
	mid := (lo + hi) / 2
	inT := triIn(lo, hi)
	outT := triOut(lo, hi)
	inL, outL := triIn(lo, mid), triOut(lo, mid)
	inR, outR := triIn(mid+1, hi), triOut(mid+1, hi)
	inQ, outQ := rectIn(lo, mid, mid+1, hi), rectOut(lo, mid, mid+1, hi)

	// Region → OUT(T) pipelines.
	loutT := ctx.inject(outL, outT, same, nil) // L's diagonal is part of T's
	routT := ctx.inject(outR, outT, same, nil) // R's diagonal too
	lFull := ctx.mul(rl, loutT)                // IN(L) → OUT(T)
	rFull := ctx.mul(rr, routT)                // IN(R) → OUT(T)
	xl := ctx.inject(outQ, inL, crossLeft(mid+1), ctx.blockRight(ctx.w[mid+1]))
	xr := ctx.inject(outQ, inR, crossDown(mid), ctx.blockLeft(ctx.w[mid]))
	ql := ctx.mul(xl, lFull)
	qr := ctx.mul(xr, rFull)
	qFull := ctx.mul(rq, ql.Or(qr)) // IN(Q) → OUT(T)
	release(loutT, routT, xl, xr, ql, qr)

	// IN(T) routing.
	sl := ctx.inject(inT, inL, same, nil)
	sr := ctx.inject(inT, inR, same, nil)
	sq := ctx.inject(inT, inQ, same, nil)
	res := ctx.mul(sl, lFull)
	tr := ctx.mul(sr, rFull)
	tq := ctx.mul(sq, qFull)
	res.Or(tr).Or(tq)
	release(sl, sr, sq, tr, tq, lFull, rFull, qFull)
	return res
}

// rect computes the rectangle reachability IN×OUT for rows a..b, cols c..d.
func (ctx *dcCtx) rect(a, b, c, d, depth int) *boolmat.Matrix {
	ctx.noteDepth(depth)
	if a == b && c == d {
		return boolmat.Identity(ctx.m.Scope(), ctx.k)
	}
	if a == b {
		// Single row: split columns.
		m2 := (c + d) / 2
		r1 := ctx.rect(a, b, c, m2, depth+1)
		r2 := ctx.rect(a, b, m2+1, d, depth+1)
		res := ctx.combineRectRow(a, b, c, d, r1, r2)
		release(r1, r2)
		return res
	}
	if c == d {
		// Single column: split rows.
		m1 := (a + b) / 2
		r1 := ctx.rect(a, m1, c, d, depth+1)
		r2 := ctx.rect(m1+1, b, c, d, depth+1)
		res := ctx.combineRectCol(a, b, c, d, r1, r2)
		release(r1, r2)
		return res
	}
	// Full quadrant split.
	m1 := (a + b) / 2
	m2 := (c + d) / 2
	r1 := ctx.rect(a, m1, c, m2, depth+1)
	r2 := ctx.rect(a, m1, m2+1, d, depth+1)
	r3 := ctx.rect(m1+1, b, c, m2, depth+1)
	r4 := ctx.rect(m1+1, b, m2+1, d, depth+1)
	res := ctx.combineRectQuad(a, b, c, d, r1, r2, r3, r4)
	release(r1, r2, r3, r4)
	return res
}

// combineRectRow assembles a single-row rectangle from its west/east
// halves. Like combineTri, it releases every intermediate it creates but
// leaves the child matrices to the caller (the extractor caches them).
func (ctx *dcCtx) combineRectRow(a, b, c, d int, rw, re *boolmat.Matrix) *boolmat.Matrix {
	inQ := rectIn(a, b, c, d)
	outQ := rectOut(a, b, c, d)
	m2 := (c + d) / 2
	inW, outW := rectIn(a, b, c, m2), rectOut(a, b, c, m2)
	inE, outE := rectIn(a, b, m2+1, d), rectOut(a, b, m2+1, d)
	woutQ := ctx.inject(outW, outQ, same, nil)
	eoutQ := ctx.inject(outE, outQ, same, nil)
	wFull := ctx.mul(rw, woutQ)
	xw := ctx.inject(outE, inW, crossLeft(m2+1), ctx.blockRight(ctx.w[m2+1]))
	xwF := ctx.mul(xw, wFull)
	eFull := ctx.mul(re, eoutQ.Or(xwF))
	sw := ctx.inject(inQ, inW, same, nil)
	se := ctx.inject(inQ, inE, same, nil)
	res := ctx.mul(sw, wFull)
	te := ctx.mul(se, eFull)
	res.Or(te)
	release(woutQ, eoutQ, xw, xwF, sw, se, te, wFull, eFull)
	return res
}

// combineRectCol assembles a single-column rectangle from its north/south
// halves.
func (ctx *dcCtx) combineRectCol(a, b, c, d int, rn, rs *boolmat.Matrix) *boolmat.Matrix {
	inQ := rectIn(a, b, c, d)
	outQ := rectOut(a, b, c, d)
	m1 := (a + b) / 2
	inN, outN := rectIn(a, m1, c, d), rectOut(a, m1, c, d)
	inS, outS := rectIn(m1+1, b, c, d), rectOut(m1+1, b, c, d)
	noutQ := ctx.inject(outN, outQ, same, nil)
	soutQ := ctx.inject(outS, outQ, same, nil)
	sFull := ctx.mul(rs, soutQ)
	xn := ctx.inject(outN, inS, crossDown(m1), ctx.blockLeft(ctx.w[m1]))
	xnF := ctx.mul(xn, sFull)
	// IN(N) → OUT(Q): direct exits plus crossing down into S.
	nFull := ctx.mul(rn, noutQ.Or(xnF))
	sn := ctx.inject(inQ, inN, same, nil)
	ss := ctx.inject(inQ, inS, same, nil)
	res := ctx.mul(sn, nFull)
	ts := ctx.mul(ss, sFull)
	res.Or(ts)
	release(noutQ, soutQ, xn, xnF, sn, ss, ts, nFull, sFull)
	return res
}

// combineRectQuad assembles a rectangle from its four quadrants.
func (ctx *dcCtx) combineRectQuad(a, b, c, d int, rnw, rne, rsw, rse *boolmat.Matrix) *boolmat.Matrix {
	inQ := rectIn(a, b, c, d)
	outQ := rectOut(a, b, c, d)
	m1 := (a + b) / 2
	m2 := (c + d) / 2

	inNW, outNW := rectIn(a, m1, c, m2), rectOut(a, m1, c, m2)
	inNE, outNE := rectIn(a, m1, m2+1, d), rectOut(a, m1, m2+1, d)
	inSW, outSW := rectIn(m1+1, b, c, m2), rectOut(m1+1, b, c, m2)
	inSE, outSE := rectIn(m1+1, b, m2+1, d), rectOut(m1+1, b, m2+1, d)

	swOut := ctx.inject(outSW, outQ, same, nil)
	swFull := ctx.mul(rsw, swOut)
	xwDown := ctx.inject(outNW, inSW, crossDown(m1), ctx.blockLeft(ctx.w[m1]))
	xwF := ctx.mul(xwDown, swFull)
	nwOut := ctx.inject(outNW, outQ, same, nil)
	nwFull := ctx.mul(rnw, nwOut.Or(xwF))
	xsLeft := ctx.inject(outSE, inSW, crossLeft(m2+1), ctx.blockRight(ctx.w[m2+1]))
	xsF := ctx.mul(xsLeft, swFull)
	seOut := ctx.inject(outSE, outQ, same, nil)
	seFull := ctx.mul(rse, seOut.Or(xsF))
	xnLeft := ctx.inject(outNE, inNW, crossLeft(m2+1), ctx.blockRight(ctx.w[m2+1]))
	xeDown := ctx.inject(outNE, inSE, crossDown(m1), ctx.blockLeft(ctx.w[m1]))
	xnF := ctx.mul(xnLeft, nwFull)
	xeF := ctx.mul(xeDown, seFull)
	neFull := ctx.mul(rne, xnF.Or(xeF))
	release(swOut, xwDown, xwF, nwOut, xsLeft, xsF, seOut, xnLeft, xeDown, xnF, xeF)

	snw := ctx.inject(inQ, inNW, same, nil)
	sne := ctx.inject(inQ, inNE, same, nil)
	sse := ctx.inject(inQ, inSE, same, nil)
	res := ctx.mul(snw, nwFull)
	tne := ctx.mul(sne, neFull)
	tse := ctx.mul(sse, seFull)
	res.Or(tne).Or(tse)
	release(snw, sne, sse, tne, tse, nwFull, neFull, swFull, seFull)
	return res
}
