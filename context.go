package partree

import (
	"context"

	"partree/internal/hufpar"
	"partree/internal/leafpattern"
	"partree/internal/lincfl"
	"partree/internal/obst"
	"partree/internal/pram"
	"partree/internal/shannonfano"
)

// Context-accepting variants of the parallel entry points, and the one
// call shape of the façade: each plain entry point is a thin call to its
// …Context twin with context.Background(), so every call acquires a
// pooled machine and runs its kernel inside Machine.Run.
//
// A cancelable ctx is installed on the simulated PRAM: the orchestrator
// polls it at every parallel-statement boundary (and between serial
// grain-chunks), so cancelling ctx aborts the call within one checkpoint
// interval with ctx.Err() — context.Canceled or
// context.DeadlineExceeded. A context with no Done channel
// (context.Background, context.TODO) installs nothing and costs nothing.
// Aborted statements book no Steps/Work, so Stats from an aborted call
// reflect only the statements that completed.
//
// Run is also the unwind path. Kernels release their pooled workspaces
// on the normal path; on an abort or a panic — including a panic in a
// parallel statement's body on a worker goroutine, which is re-raised on
// the calling goroutine — Run returns every workspace still held to the
// arena before returning the error or re-panicking, and no goroutines
// are leaked (workers stop at their next steal boundary and park at the
// statement barrier as usual).
//
// A context carrying a trace recorder (TraceContext) arms per-call
// tracing exactly as Options.Trace does; Options.Trace wins when both
// are set.

// run is the façade's one call shape: it acquires a pooled machine for
// opts under ctx, executes f inside Machine.Run and returns f's result
// with the call's Stats. On an abort the result is T's zero value and
// the error is ctx.Err(); a panic unwinds through Run to the caller.
func run[T any](ctx context.Context, opts []Options, f func(*pram.Machine) T) (T, Stats, error) {
	m, release := firstOption(opts).acquire(ctx)
	defer release()
	var out T
	err := m.Run(func() { out = f(m) })
	return out, statsOf(m), err
}

// HuffmanParallelContext is HuffmanParallel under a context. On
// cancellation it returns (nil, ctx.Err()).
func HuffmanParallelContext(ctx context.Context, freqs []float64, opts ...Options) (*HuffmanParallelResult, error) {
	res, _, err := run(ctx, opts, func(m *pram.Machine) *HuffmanParallelResult { return huffmanParallelOn(m, freqs) })
	return res, err
}

// HuffmanRakeCompressCostContext is HuffmanRakeCompressCost under a
// context.
func HuffmanRakeCompressCostContext(ctx context.Context, freqs []float64, opts ...Options) (float64, Stats, error) {
	return run(ctx, opts, func(m *pram.Machine) float64 { return hufpar.CostRakeCompress(m, freqs) })
}

// HuffmanHeightLimitedContext is HuffmanHeightLimited under a context.
// The returned error is either the kernel's infeasibility error or
// ctx.Err() on cancellation.
func HuffmanHeightLimitedContext(ctx context.Context, freqs []float64, maxHeight int, opts ...Options) (*Tree, float64, error) {
	var cost float64
	var kerr error
	t, _, err := run(ctx, opts, func(m *pram.Machine) *Tree {
		var t *Tree
		t, cost, kerr = hufpar.HeightLimited(m, freqs, maxHeight)
		return t
	})
	if err != nil {
		return nil, 0, err
	}
	return t, cost, kerr
}

// ShannonFanoContext is ShannonFano under a context.
func ShannonFanoContext(ctx context.Context, probs []float64, opts ...Options) (*ShannonFanoResult, error) {
	var kerr error
	res, st, err := run(ctx, opts, func(m *pram.Machine) *shannonfano.Result {
		var res *shannonfano.Result
		res, kerr = shannonfano.Build(m, probs)
		return res
	})
	if err != nil {
		return nil, err
	}
	if kerr != nil {
		return nil, kerr
	}
	return &ShannonFanoResult{
		Lengths:       res.Lengths,
		Codes:         res.Codes,
		Tree:          res.Tree,
		AverageLength: res.AverageLength,
		Stats:         st,
	}, nil
}

// ApproxBSTContext is ApproxBST under a context.
func ApproxBSTContext(ctx context.Context, in *BSTInstance, eps float64, opts ...Options) (*ApproxBSTResult, error) {
	res, st, err := run(ctx, opts, func(m *pram.Machine) *obst.ApproxResult { return obst.Approx(m, in, eps) })
	if err != nil {
		return nil, err
	}
	return &ApproxBSTResult{
		Tree:          res.Tree,
		Cost:          res.Cost,
		Epsilon:       res.Epsilon,
		CollapsedKeys: res.Collapsed,
		Comparisons:   res.Comparisons,
		Stats:         st,
	}, nil
}

// RecognizeLinearParallelContext is RecognizeLinearParallel under a
// context.
func RecognizeLinearParallelContext(ctx context.Context, g *LinearGrammar, w []byte, opts ...Options) (*LinearRecognitionResult, error) {
	res, st, err := run(ctx, opts, func(m *pram.Machine) *lincfl.DCResult { return lincfl.RecognizeDC(m, g, w) })
	if err != nil {
		return nil, err
	}
	return &LinearRecognitionResult{
		Accepted: res.Accepted,
		Products: res.Products,
		WordOps:  res.WordOps,
		Depth:    res.Depth,
		Stats:    st,
	}, nil
}

// DeriveLinearParallelContext is DeriveLinearParallel under a context.
// ok is false both for w ∉ L(G) and on cancellation; check err to tell
// them apart.
func DeriveLinearParallelContext(ctx context.Context, g *LinearGrammar, w []byte, opts ...Options) ([]DerivationStep, bool, error) {
	var ok bool
	steps, _, err := run(ctx, opts, func(m *pram.Machine) []DerivationStep {
		var steps []DerivationStep
		steps, ok = lincfl.DeriveDC(m, g, w)
		return steps
	})
	if err != nil {
		return nil, false, err
	}
	return steps, ok, nil
}

// TreeFromMonotoneDepthsContext is TreeFromMonotoneDepths under a
// context.
func TreeFromMonotoneDepthsContext(ctx context.Context, depths []int, opts ...Options) (*Tree, Stats, error) {
	var kerr error
	t, st, err := run(ctx, opts, func(m *pram.Machine) *Tree {
		var t *Tree
		t, kerr = leafpattern.MonotonePar(m, depths)
		return t
	})
	if err != nil {
		return nil, st, err
	}
	return t, st, kerr
}

// ConcaveMultiplyContext is ConcaveMultiply under a context.
func ConcaveMultiplyContext(ctx context.Context, a, b [][]float64, opts ...Options) (*ConcaveMultiplyResult, error) {
	res, _, err := run(ctx, opts, func(m *pram.Machine) *ConcaveMultiplyResult { return concaveMultiplyOn(m, a, b) })
	return res, err
}
