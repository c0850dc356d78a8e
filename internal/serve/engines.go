package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"partree"
	"partree/internal/pool"
	"partree/internal/tree"
)

// engines declares every /v1 engine once. Each entry is the whole
// request pipeline of one engine — decode the body into Q, parse it into
// the job J and its canonical cache key, solve a batch of jobs with the
// façade's *BatchContext entry point, render one result R — and the rest
// of the server is written once over this table: New starts one batcher
// per entry and mounts the generic handler (engineSpec.serve) on its
// path, Close and Snapshot walk the batchers, and CanonicalKey runs the
// entry's own decode and parse, so the gateway's routing key and the
// backend's cache key are the same function. Adding an engine means
// adding one entry.
var engines = []engineEntry{
	&engineSpec[codingRequest, []float64, partree.HuffmanBatchResult]{
		name:  "huffman",
		path:  "/v1/huffman",
		parse: parseCoding("huffman"),
		free:  pool.PutFloat64s,
		solve: partree.HuffmanBatchContext,
		render: func(probs []float64, res partree.HuffmanBatchResult) (any, error) {
			if res.Err != nil {
				return nil, badRequest("engine", "%v", res.Err)
			}
			return &codingResponse{N: len(probs), Lengths: res.Lengths, Codes: codeStrings(res.Codes), AvgBits: res.Cost}, nil
		},
	},
	&engineSpec[codingRequest, []float64, partree.ShannonFanoBatchResult]{
		name:  "shannonfano",
		path:  "/v1/shannonfano",
		parse: parseCoding("shannonfano"),
		free:  pool.PutFloat64s,
		solve: partree.ShannonFanoBatchContext,
		render: func(probs []float64, res partree.ShannonFanoBatchResult) (any, error) {
			if res.Err != nil {
				return nil, badRequest("engine", "%v", res.Err)
			}
			return &codingResponse{N: len(probs), Lengths: res.Lengths, Codes: codeStrings(res.Codes), AvgBits: res.AverageLength}, nil
		},
	},
	&engineSpec[depthsRequest, []int, partree.PatternBatchResult]{
		name:  "treefromdepths",
		path:  "/v1/treefromdepths",
		parse: parseDepths,
		solve: partree.TreeFromDepthsBatchContext,
		render: func(_ []int, res partree.PatternBatchResult) (any, error) {
			if res.Err != nil {
				// An unrealizable pattern is a valid query with a negative
				// answer, not a client error.
				if errors.Is(res.Err, partree.ErrNoTree) {
					return &depthsResponse{Realizable: false, Reason: res.Err.Error()}, nil
				}
				return nil, badRequest("engine", "%v", res.Err)
			}
			shape, symbols := tree.Marshal(res.Tree)
			return &depthsResponse{Realizable: true, Shape: shape, Symbols: symbols}, nil
		},
	},
	&engineSpec[obstRequest, *partree.BSTInstance, partree.BSTBatchResult]{
		name:  "obst",
		path:  "/v1/obst",
		parse: parseOBST,
		// The instance aliases both pooled probability vectors.
		free: func(in *partree.BSTInstance) {
			pool.PutFloat64s(in.Beta)
			pool.PutFloat64s(in.Alpha)
		},
		solve: partree.OptimalBSTBatchContext,
		render: func(in *partree.BSTInstance, res partree.BSTBatchResult) (any, error) {
			shape, symbols := tree.Marshal(res.Tree)
			return &obstResponse{N: in.N(), Cost: res.Cost, Shape: shape, Symbols: symbols}, nil
		},
	},
	&engineSpec[lincflRequest, partree.LinCFLBatchJob, bool]{
		name:  "lincfl",
		path:  "/v1/lincfl/recognize",
		parse: parseLinCFL,
		solve: partree.RecognizeLinearBatchContext,
		render: func(_ partree.LinCFLBatchJob, accepted bool) (any, error) {
			return &lincflResponse{Accepted: accepted}, nil
		},
	},
}

// engineSpec is one engine's request pipeline: Q is the decoded request
// body, J the façade batch job, R one job's batch result.
type engineSpec[Q, J, R any] struct {
	name, path string
	// parse validates and normalizes a decoded request into the job the
	// engine solves and the canonical cache key of that job. On error it
	// returns no job and has released whatever it pooled.
	parse func(*Q, Limits) (J, string, *apiError)
	// free, when non-nil, returns a job's pooled buffers to the arena.
	free  func(J)
	solve func(context.Context, []J, ...partree.Options) ([]R, partree.Stats, error)
	// render turns one result into the response body, or into the
	// client-visible error for a job the engine rejected.
	render func(J, R) (any, error)
}

// engineEntry is an engineSpec with its type parameters erased, so one
// table holds all five.
type engineEntry interface {
	route() (name, path string)
	canonicalKey(body []byte, lim Limits) (string, error)
	// start builds the engine's batcher on s and returns it with the
	// engine's handler.
	start(s *Server, opts partree.Options) (runner, engineHandler)
}

// engineHandler serves one admitted /v1 request; a is its announcement
// to the engine's batcher, which the handler releases (see arrival).
type engineHandler func(w http.ResponseWriter, r *http.Request, a *arrival)

// runner is the untyped face of a batcher.
type runner interface {
	counters() BatcherCounters
	announce()
	release()
	Flush()
	Close()
}

func (e *engineSpec[Q, J, R]) route() (string, string) { return e.name, e.path }

// decode strictly decodes the body and parses it into a job and its key.
func (e *engineSpec[Q, J, R]) decode(body io.Reader, lim Limits) (J, string, *apiError) {
	var req Q
	if ae := decodeJSON(body, lim.MaxBodyBytes, &req); ae != nil {
		var zero J
		return zero, "", ae
	}
	return e.parse(&req, lim)
}

func (e *engineSpec[Q, J, R]) canonicalKey(body []byte, lim Limits) (string, error) {
	job, key, ae := e.decode(bytes.NewReader(body), lim)
	if ae != nil {
		return "", ae
	}
	if e.free != nil {
		e.free(job)
	}
	return key, nil
}

func (e *engineSpec[Q, J, R]) start(s *Server, opts partree.Options) (runner, engineHandler) {
	b := newBatcher(e.name, s.cfg.MaxBatch, s.cfg.Linger, s.cfg.MaxInflight,
		func(ctx context.Context, jobs []J) ([]R, error) {
			res, st, err := e.solve(ctx, jobs, opts)
			s.addStats(e.name, st)
			return res, err
		})
	// Every batch run records into its own bounded trace (independent of
	// client-requested request traces); the observe hook folds those
	// spans into the /metricsz histograms.
	b.observe = s.observeTrace
	return b, func(w http.ResponseWriter, r *http.Request, a *arrival) { e.serve(s, b, w, r, a) }
}

// serve is the one /v1 handler: decode and parse, then look the key up
// in the result cache, whose miss submits the job to the engine's
// batcher and renders the result.
func (e *engineSpec[Q, J, R]) serve(s *Server, b *batcher[J, R], w http.ResponseWriter, r *http.Request, a *arrival) {
	job, key, ae := e.decode(r.Body, s.cfg.Limits)
	if ae != nil {
		a.leave()
		s.served[e.name].Errors.Add(1)
		writeError(w, ae)
		return
	}
	var abandoned bool
	if e.free != nil {
		defer e.release(&abandoned, job)
	}
	val, hit, err := s.cache.Do(r.Context(), key, a, func(ctx context.Context) (any, error) {
		res, err := b.Submit(ctx, job, a)
		abandoned = ctx.Err() != nil
		if err != nil {
			return nil, err
		}
		return e.render(job, res)
	})
	s.finish(w, r, e.name, val, hit, err)
}

// release frees a job's pooled buffers unless it was abandoned: after
// Submit returns with its context done, the batch may still be executing
// with a reference to them (Submit's "slot outlives us" path), so reuse
// would race — the GC takes them instead. A job that was never submitted
// (its request was served from the cache or another caller's flight) is
// not abandoned.
func (e *engineSpec[Q, J, R]) release(abandoned *bool, job J) {
	if !*abandoned {
		e.free(job)
	}
}

// CanonicalKey computes the canonical cache key a partreed backend would
// use for the given /v1 request, by running the path's engine entry:
// the same decode, validation and normalization (unit-sum weight
// scaling, grammar resolution, instance checks) and the same keyWriter
// as the handler. Exported for the cluster gateway, which routes on
// this key so that equivalent requests — whatever their JSON spelling or
// weight scale — always land on the same shard and concentrate that
// shard's LRU hits.
//
// The path must be one of the /v1 endpoints; the error for an undecodable
// or invalid body is the same structured *apiError the backend would
// reject it with (the gateway falls back to raw-body routing and lets the
// backend produce the 400).
func CanonicalKey(path string, body []byte, lim Limits) (string, error) {
	lim.setDefaults()
	for _, e := range engines {
		if _, p := e.route(); p == path {
			return e.canonicalKey(body, lim)
		}
	}
	return "", fmt.Errorf("serve: no canonical key for path %q", path)
}

func codeStrings(codes []partree.Codeword) []string {
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = c.String()
	}
	return out
}
