package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"partree"
	"partree/internal/cluster"
	"partree/internal/engine"
	"partree/internal/grammar"
	"partree/internal/huffman"
	"partree/internal/leafpattern"
	"partree/internal/lincfl"
	"partree/internal/obst"
	"partree/internal/serve"
	"partree/internal/shannonfano"
)

// The traced run records one span per request at every layer boundary
// the benchmark can reach from outside the program: the client call, the
// gateway's handler and each backend's handler. The gateway forwards only
// a fixed header set, so spans of one request are joined by the hash of
// its body and by interval containment. Spans stay in memory and are
// written out as a Chrome trace-event file when the run ends. What
// happens inside a backend handler is split by replaying its stages on
// the same bodies: serve.CanonicalKey, the façade batch call at the
// observed batch size, and the serial oracles.

// gatewaySpan marks a span recorded around the gateway's handler; backend
// spans carry the backend's index.
const gatewaySpan = -1

// span is one handler invocation, in nanoseconds since the tracer's base.
type span struct {
	hash       uint64
	start, end int64
	where      int8
}

func (s *span) wall() int64 { return s.end - s.start }

// tracer collects handler spans while armed. A nil tracer wraps nothing.
type tracer struct {
	armed atomic.Bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// wrap records a span around every POST h serves while the tracer is
// armed. Reading the body to hash it is part of the tracing overhead.
func (t *tracer) wrap(where int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.armed.Load() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Since(t.base)
		h.ServeHTTP(w, r)
		end := time.Since(t.base)
		sp := span{hash: bodyHash(body), start: int64(start), end: int64(end), where: int8(where)}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	})
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// joined is one client request with the server spans that served it.
type joined struct {
	s     *sample
	outer *span // the gateway's span, or the lone backend's
	inner *span // the backend span that answered (gateway stack only)
}

// handler is the backend span that answered the request.
func (j *joined) handler() *span {
	if j.inner != nil {
		return j.inner
	}
	return j.outer
}

// join matches every OK sample of p to the spans recorded for it. A
// gateway span must lie inside its client span, and the answering
// backend span is the earliest-ending one with the same body inside the
// gateway span (a hedge's loser ends later or is canceled).
func join(p *phaseResult, tr *tracer, spans []span, jobs []job, gateway bool) []joined {
	shift := int64(p.base.Sub(tr.base))
	outerBy := map[uint64][]int{}
	innerBy := map[uint64][]int{}
	for i := range spans {
		if gateway && spans[i].where != gatewaySpan {
			innerBy[spans[i].hash] = append(innerBy[spans[i].hash], i)
		} else {
			outerBy[spans[i].hash] = append(outerBy[spans[i].hash], i)
		}
	}
	var out []joined
	for i := range p.samples {
		sm := &p.samples[i]
		if !sm.ok() {
			continue
		}
		h := bodyHash(jobs[sm.job].bodies[sm.spelling])
		cs, ce := sm.send+shift, sm.done+shift
		var outer *span
		for _, k := range outerBy[h] {
			if sp := &spans[k]; sp.start >= cs && sp.end <= ce {
				outer = sp
				break
			}
		}
		if outer == nil {
			continue
		}
		j := joined{s: sm, outer: outer}
		if gateway {
			for _, k := range innerBy[h] {
				sp := &spans[k]
				if sp.start >= outer.start && sp.end <= outer.end && (j.inner == nil || sp.end < j.inner.end) {
					j.inner = sp
				}
			}
			if j.inner == nil {
				continue
			}
		}
		out = append(out, j)
	}
	return out
}

// nullRTT is the median round trip of GET /healthz on the stack's entry
// point: the client and loopback cost of a request that does no work,
// measured independently of the spans.
func nullRTT(c *http.Client, target string, n int) (float64, error) {
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		resp, err := c.Get(target + "/healthz")
		if err != nil {
			return 0, fmt.Errorf("null round trip: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
		rtts = append(rtts, us(time.Since(start)))
	}
	return median(rtts), nil
}

// canonicalTimes times serve.CanonicalKey, and CanonicalKey followed by
// the ring lookup the gateway does, on every distinct body in reqs.
func canonicalTimes(reqs []req, jobs []job, ring *cluster.Ring) (canon, ringKey map[req]float64) {
	lim := serve.Limits{}.WithDefaults()
	canon = make(map[req]float64)
	ringKey = make(map[req]float64)
	for _, r := range reqs {
		if _, ok := canon[r]; ok {
			continue
		}
		j := &jobs[r.job]
		body := j.bodies[r.spelling]
		var err error
		canon[r] = us(timed(func() { _, err = serve.CanonicalKey(j.engine.path(), body, lim) }))
		if err != nil {
			panic(fmt.Sprintf("perfbench: generated body does not canonicalize: %v", err)) // generator bug
		}
		if ring != nil {
			ringKey[r] = us(timed(func() {
				k, _ := serve.CanonicalKey(j.engine.path(), body, lim)
				ring.Lookup(k)
			}))
		}
	}
	return canon, ringKey
}

// facadeJob is a served job decoded into the façade's batch input.
type facadeJob struct {
	probs  []float64
	depths []int
	bst    *partree.BSTInstance
	cfl    partree.LinCFLBatchJob
}

type lincflReq struct {
	Grammar string `json:"grammar"`
	Word    string `json:"word"`
}

// decodeJob turns a job's body into the input the server hands its
// batcher: normalized weights, raw depths, a normalized OBST instance,
// or a stock grammar and word.
func decodeJob(j *job) facadeJob {
	var f facadeJob
	var err error
	switch j.engine {
	case engHuffman, engShannonFano:
		var r codingReq
		err = json.Unmarshal(j.bodies[0], &r)
		f.probs = normalizedFloats(r.Weights)
	case engDepths:
		var r depthsReq
		err = json.Unmarshal(j.bodies[0], &r)
		f.depths = r.Depths
	case engOBST:
		var r obstReq
		if err = json.Unmarshal(j.bodies[0], &r); err == nil {
			all := normalizedFloats(append(r.Keys, r.Gaps...))
			f.bst, err = partree.NewBSTInstance(all[:len(r.Keys)], all[len(r.Keys):])
		}
	default:
		var r lincflReq
		err = json.Unmarshal(j.bodies[0], &r)
		g := grammar.Palindrome()
		if r.Grammar == "equalends" {
			g = grammar.EqualEnds()
		}
		f.cfl = partree.LinCFLBatchJob{Grammar: g, Word: []byte(r.Word)}
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated body does not decode: %v", err)) // generator bug
	}
	return f
}

// maxReplayJobs bounds each engine's replay so the traced run's tail
// stays short; the replayed jobs are the first ones the run served.
const maxReplayJobs = 400

// replayBatches runs each engine's façade batch entry point on the
// jobs, cut into batches of the size the server's batcher averaged, with
// the server's options. It returns microseconds per job per engine.
func replayBatches(byEngine [numEngines][]facadeJob, batchAvg [numEngines]float64) [numEngines]float64 {
	opts := partree.Options{Grain: engine.GrainBatch()}
	ctx := context.Background()
	var out [numEngines]float64
	for e := engineID(0); e < numEngines; e++ {
		fj := byEngine[e]
		if len(fj) == 0 {
			continue
		}
		size := int(batchAvg[e] + 0.5)
		if size < 1 {
			size = 1
		}
		var total time.Duration
		for lo := 0; lo < len(fj); lo += size {
			chunk := fj[lo:min(lo+size, len(fj))]
			var err error
			switch e {
			case engHuffman, engShannonFano:
				jobs := make([][]float64, len(chunk))
				for i := range chunk {
					jobs[i] = chunk[i].probs
				}
				if e == engHuffman {
					total += timed(func() { _, _, err = partree.HuffmanBatchContext(ctx, jobs, opts) })
				} else {
					total += timed(func() { _, _, err = partree.ShannonFanoBatchContext(ctx, jobs, opts) })
				}
			case engDepths:
				jobs := make([][]int, len(chunk))
				for i := range chunk {
					jobs[i] = chunk[i].depths
				}
				total += timed(func() { _, _, err = partree.TreeFromDepthsBatchContext(ctx, jobs, opts) })
			case engOBST:
				jobs := make([]*partree.BSTInstance, len(chunk))
				for i := range chunk {
					jobs[i] = chunk[i].bst
				}
				total += timed(func() { _, _, err = partree.OptimalBSTBatchContext(ctx, jobs, opts) })
			default:
				jobs := make([]partree.LinCFLBatchJob, len(chunk))
				for i := range chunk {
					jobs[i] = chunk[i].cfl
				}
				total += timed(func() { _, _, err = partree.RecognizeLinearBatchContext(ctx, jobs, opts) })
			}
			if err != nil {
				panic(fmt.Sprintf("perfbench: %s batch replay: %v", e, err)) // a background context never cancels
			}
		}
		out[e] = us(total) / float64(len(fj))
	}
	return out
}

// replayOracles times the serial oracle each engine's batch runs per job.
func replayOracles(byEngine [numEngines][]facadeJob) [numEngines]float64 {
	var out [numEngines]float64
	for e := engineID(0); e < numEngines; e++ {
		var total time.Duration
		for _, f := range byEngine[e] {
			switch e {
			case engHuffman:
				total += timed(func() { huffman.Build(f.probs) })
			case engShannonFano:
				total += timed(func() { shannonfano.Lengths(f.probs) })
			case engDepths:
				total += timed(func() { _, _ = leafpattern.Greedy(f.depths) })
			case engOBST:
				total += timed(func() { obst.Knuth(f.bst) })
			default:
				total += timed(func() { lincfl.Sequential(f.cfl.Grammar, f.cfl.Word) })
			}
		}
		out[e] = ratio(us(total), float64(len(byEngine[e])))
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the joined requests as Chrome trace events: one
// process per layer (client, gateway, backends), one thread per sender.
func writeTrace(path string, js []joined, base time.Time, tr *tracer, jobs []job) error {
	shift := float64(base.Sub(tr.base)) / 1e3
	var evs []traceEvent
	for _, j := range js {
		name := jobs[j.s.job].engine.String()
		tid := int(j.s.sender)
		evs = append(evs, traceEvent{
			Name: name, Ph: "X", Pid: 0, Tid: tid,
			Ts:   float64(j.s.due)/1e3 + shift,
			Dur:  float64(j.s.done-j.s.due) / 1e3,
			Args: map[string]any{"job": j.s.job, "spelling": j.s.spelling, "hit": j.s.hit, "lag_us": float64(j.s.send-j.s.due) / 1e3},
		})
		for _, sp := range []*span{j.outer, j.inner} {
			if sp == nil {
				continue
			}
			pid := 2 + int(sp.where)
			if sp.where == gatewaySpan {
				pid = 1
			}
			evs = append(evs, traceEvent{Name: name, Ph: "X", Pid: pid, Tid: tid, Ts: float64(sp.start) / 1e3, Dur: float64(sp.wall()) / 1e3})
		}
	}
	return writeEvents(path, evs)
}

// writeEvents writes a Chrome trace-event file (chrome://tracing,
// Perfetto).
func writeEvents(path string, evs []traceEvent) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Unit   string       `json:"displayTimeUnit"`
		Events []traceEvent `json:"traceEvents"`
	}{"ms", evs})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
