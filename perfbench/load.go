package main

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// req names one request: a job and which of its spellings to send.
type req struct {
	job      int32
	spelling int8
}

// arrival is one open-loop request and when it is due, relative to the
// phase start.
type arrival struct {
	at time.Duration
	req
}

// poissonSchedule returns arrivals at the given mean rate over dur, with
// exponential gaps drawn from rng. next supplies each arrival's request.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, next func() req) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, req: next()})
	}
}

// sample is one completed request as the client saw it. Times are
// nanoseconds since the phase start; due equals send in a closed loop.
type sample struct {
	req
	sender          int8
	status          int16
	hit             bool // X-Partree-Cache: hit
	due, send, done int64
}

func (s *sample) ok() bool { return s.status == http.StatusOK }

// respKey identifies a distinct answer: the checker verifies each
// (job, response bytes) pair once, however often it was served.
type respKey struct {
	job  int32
	hash uint64
}

// sender is one load-generating goroutine's state. A phase runs at most
// nproc senders, sharing one client capped at nproc connections.
type sender struct {
	id      int8
	client  *http.Client
	target  string
	jobs    []job
	buf     bytes.Buffer
	samples []sample
	// answers holds every distinct response body with the number of
	// requests that received it, for the checker.
	answers map[respKey]*answer
}

type answer struct {
	body  []byte
	count int
}

// newSenders returns n senders sharing one client capped at n connections.
func newSenders(n int, target string, jobs []job) []*sender {
	c := newClient(n)
	out := make([]*sender, n)
	for i := range out {
		out[i] = &sender{id: int8(i), client: c, target: target, jobs: jobs, answers: make(map[respKey]*answer)}
	}
	return out
}

// send issues r and records it. base anchors the sample's times.
func (s *sender) send(r req, due time.Time, base time.Time) {
	j := &s.jobs[r.job]
	body := j.bodies[r.spelling]
	sm := sample{req: r, sender: s.id, due: int64(due.Sub(base))}
	start := time.Now()
	sm.send = int64(start.Sub(base))
	hreq, err := http.NewRequest(http.MethodPost, s.target+j.engine.path(), bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is built from a listener address; a bug alone breaks it
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(hreq)
	if err == nil {
		s.buf.Reset()
		_, err = s.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil {
			sm.status = int16(resp.StatusCode)
			sm.hit = resp.Header.Get("X-Partree-Cache") == "hit"
		}
	}
	sm.done = int64(time.Since(base))
	s.samples = append(s.samples, sm)
	if sm.ok() {
		h := fnv.New64a()
		_, _ = h.Write(s.buf.Bytes()) // hash.Hash writes never fail
		k := respKey{job: r.job, hash: h.Sum64()}
		if a := s.answers[k]; a != nil {
			a.count++
		} else {
			s.answers[k] = &answer{body: bytes.Clone(s.buf.Bytes()), count: 1}
		}
	}
}

// phaseResult is one load phase's samples, merged across senders.
type phaseResult struct {
	samples []sample
	// base is the phase's start; sample times are offsets from it.
	base    time.Time
	elapsed time.Duration
	// windows are a closed loop's slices; an open loop has none.
	windows []window
	// factor is the median host factor of the probes taken between a
	// closed loop's slices (see hostClock), or 1 without probes.
	factor float64
	// exhausted is set when a closed loop ran out of prepared requests
	// before its time was up.
	exhausted bool
}

// window is one closed-loop slice's span, as offsets from the phase
// start.
type window struct{ start, end int64 }

func (p *phaseResult) okCount() int {
	n := 0
	for i := range p.samples {
		if p.samples[i].ok() {
			n++
		}
	}
	return n
}

// openLoop sends sched on its timetable with the given senders. Each
// sender takes the next due arrival, sleeps until it is due, and sends;
// when every sender is busy the next request goes out late, and its
// latency, measured from its due time, includes that wait.
func openLoop(senders []*sender, sched []arrival) phaseResult {
	var next atomic.Int64
	base := time.Now()
	runSenders(senders, func(s *sender) {
		for {
			i := next.Add(1) - 1
			if i >= int64(len(sched)) {
				return
			}
			a := sched[i]
			due := base.Add(a.at)
			sleepUntil(due)
			s.send(a.req, due, base)
		}
	})
	return collect(senders, base, nil, false, 1)
}

// sliceDur is how long a closed loop sends between two host-speed
// probes.
const sliceDur = 500 * time.Millisecond

// closedLoop has every sender issue reqs back to back, in order, until
// dur has passed or reqs run out. With a host clock it sends in slices
// of sliceDur and probes the host's speed between them, while the stack
// is idle; without one it sends in one slice.
func closedLoop(senders []*sender, reqs []req, dur time.Duration, hc *hostClock) phaseResult {
	var next atomic.Int64
	var exhausted atomic.Bool
	base := time.Now()
	end := base.Add(dur)
	var wins []window
	factor, mark := 1.0, 0
	if hc != nil {
		mark = len(hc.probes)
		hc.probe()
	}
	for !exhausted.Load() {
		start := time.Now()
		if !start.Before(end) {
			break
		}
		stop := end
		if hc != nil && start.Add(sliceDur).Before(end) {
			stop = start.Add(sliceDur)
		}
		runSenders(senders, func(s *sender) {
			for time.Now().Before(stop) {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					exhausted.Store(true)
					return
				}
				now := time.Now()
				s.send(reqs[i], now, base)
			}
		})
		wins = append(wins, window{start: int64(start.Sub(base)), end: int64(time.Since(base))})
		if hc != nil {
			hc.probe()
		}
	}
	if hc != nil {
		factor = hc.medianSince(mark, hc.sens)
	}
	return collect(senders, base, wins, exhausted.Load(), factor)
}

// spinWindow is how far before a due time the generator stops sleeping
// and spins, absorbing the sleep's overshoot.
const spinWindow = 100 * time.Microsecond

// sleepUntil returns at t, or at once if t has passed.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		nanosleep(d)
	}
	for time.Now().Before(t) {
	}
}

func runSenders(senders []*sender, f func(s *sender)) {
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			f(s)
		}(s)
	}
	wg.Wait()
}

// collect moves every sender's samples into one phase result, in send
// order.
func collect(senders []*sender, base time.Time, wins []window, exhausted bool, factor float64) phaseResult {
	p := phaseResult{base: base, elapsed: time.Since(base), windows: wins, exhausted: exhausted, factor: factor}
	for _, s := range senders {
		p.samples = append(p.samples, s.samples...)
		s.samples = s.samples[:0]
	}
	sort.Slice(p.samples, func(a, b int) bool { return p.samples[a].send < p.samples[b].send })
	return p
}

// latenciesMS returns the latency from due time of each OK request.
func (p *phaseResult) latenciesMS() []float64 {
	out := make([]float64, 0, len(p.samples))
	for i := range p.samples {
		if sm := &p.samples[i]; sm.ok() {
			out = append(out, float64(sm.done-sm.due)/1e6)
		}
	}
	return out
}

// lagsMS returns how late the generator sent each request.
func (p *phaseResult) lagsMS() []float64 {
	out := make([]float64, 0, len(p.samples))
	for i := range p.samples {
		out = append(out, math.Max(0, float64(p.samples[i].send-p.samples[i].due)/1e6))
	}
	return out
}

// scaledLatenciesMS returns each OK request's latency divided by the
// phase's host factor: its latency at the nominal host speed.
func (p *phaseResult) scaledLatenciesMS() []float64 {
	out := p.latenciesMS()
	for i := range out {
		out[i] /= p.factor
	}
	return out
}

// scaledRate is the median, over the slices at least half a slice long,
// of OK completions per second, times the phase's host factor: the rate
// at the nominal host speed. A stalled slice does not move the median.
func (p *phaseResult) scaledRate() float64 {
	counts := make([]float64, len(p.windows))
	w := 0
	for i := range p.samples {
		sm := &p.samples[i]
		for w+1 < len(p.windows) && sm.send >= p.windows[w+1].start {
			w++
		}
		if sm.ok() {
			counts[w]++
		}
	}
	var rates []float64
	for k, win := range p.windows {
		if d := time.Duration(win.end - win.start); d >= sliceDur/2 {
			rates = append(rates, counts[k]/d.Seconds())
		}
	}
	if len(rates) == 0 {
		return p.rawRate() * p.factor
	}
	return median(rates) * p.factor
}

// rawRate is OK completions per second of sending, unscaled.
func (p *phaseResult) rawRate() float64 {
	busy := p.elapsed
	if len(p.windows) > 0 {
		busy = 0
		for _, w := range p.windows {
			busy += time.Duration(w.end - w.start)
		}
	}
	return float64(p.okCount()) / busy.Seconds()
}
