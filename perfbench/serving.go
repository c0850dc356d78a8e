package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"partree"
	"partree/internal/cluster"
	"partree/internal/pool"
	"partree/internal/serve"
)

// servingWorkload is a traffic mix sent over HTTP to an in-process stack.
type servingWorkload struct {
	name     string
	backends int
	gateway  bool
	// openRate is the open-loop phase's Poisson rate in requests per
	// second: about a quarter of what two closed-loop senders get on a
	// 2-CPU host. At half, a GC mark phase (a whole P at GOMAXPROCS=2)
	// saturated the other P and the tail flipped between two regimes.
	openRate float64
	// sens is how the workload's times follow the host probe's parts
	// (see hostClock).
	sens sensitivity
	// closedMax bounds the closed-loop rate the prepared requests cover;
	// a closed loop that runs out ends early and is flagged.
	closedMax float64
	prepare   func(seed int64, openDur, closedDur time.Duration, rate, closedMax float64) *plan
}

// plan is a workload's prepared traffic: jobs with expected answers,
// untimed warm-up passes, and the two timed phases.
type plan struct {
	jobs   []job
	warm   [][]req
	open   []arrival
	closed []req
}

var serveUnique = &servingWorkload{
	name: "serve-unique", backends: 1,
	openRate: 300, closedMax: 2200,
	// Much of a request's time is the batcher's timed wait, which no
	// neighbour slows. Fitted on the tuning host while its compute probe
	// ran 1.8–1.9 times slower than nominal: throughput fell as the
	// compute part's slowdown to the power 0.45, latency to 0.35.
	sens:    sensitivity{compute: 0.4},
	prepare: prepareUnique,
}

var gatewayZipf = &servingWorkload{
	name: "gateway-zipf", backends: 2, gateway: true,
	openRate: 1000, closedMax: 10000,
	// Almost every answer comes from a cache through two HTTP hops. When
	// the tuning host's loopback path slowed by a tenth and its compute
	// did not, this workload's throughput fell by as much; when the
	// loopback path ran 2.6–2.7 times slower, so did this workload.
	sens:    sensitivity{net: 1},
	prepare: prepareZipf,
}

const (
	uniqueWarmJobs = 400
	// zipfHotJobs is the hot set: fewer jobs than one backend's 4096-entry
	// caches hold, but with four spellings each more raw bodies than the
	// raw-body fast path holds, so hits split between the two caches.
	zipfHotJobs   = 3000
	zipfS         = 1.1
	zipfFreshFrac = 0.02
	zipfWarmDraws = 6000
)

// prepareUnique sends every job once: distinct bodies, so every request
// misses both caches and inserts into the LRU.
func prepareUnique(seed int64, openDur, closedDur time.Duration, rate, closedMax float64) *plan {
	next := 0
	nextReq := func() req {
		next++
		return req{job: int32(next - 1)}
	}
	pl := &plan{open: poissonSchedule(subRNG(seed, streamArrivals), rate, openDur, nextReq)}
	for i := 0; i < int(closedMax*closedDur.Seconds()); i++ {
		pl.closed = append(pl.closed, nextReq())
	}
	var warm []req
	for i := 0; i < uniqueWarmJobs; i++ {
		warm = append(warm, nextReq())
	}
	pl.warm = [][]req{warm}
	pl.jobs = append(uniquePool(seed, streamUnique, next-uniqueWarmJobs), uniquePool(seed, streamWarm, uniqueWarmJobs)...)
	return pl
}

// prepareZipf draws requests from a Zipf law over the hot set, each in
// a random spelling, with a small share of fresh jobs.
func prepareZipf(seed int64, openDur, closedDur time.Duration, rate, closedMax float64) *plan {
	pl := &plan{jobs: zipfJobs(seed, zipfHotJobs)}
	rng := subRNG(seed, streamZipfDraws)
	z := rand.NewZipf(rng, zipfS, 1, zipfHotJobs-1)
	fresh := 0
	hot := func() req { return req{job: int32(z.Uint64()), spelling: int8(rng.Intn(numSpellings))} }
	nextReq := func() req {
		if rng.Float64() < zipfFreshFrac {
			fresh++
			return req{job: int32(zipfHotJobs + fresh - 1)}
		}
		return hot()
	}
	first := make([]req, zipfHotJobs)
	for i := range first {
		first[i] = req{job: int32(i)}
	}
	draws := make([]req, zipfWarmDraws)
	for i := range draws {
		draws[i] = hot()
	}
	pl.warm = [][]req{first, draws}
	pl.open = poissonSchedule(subRNG(seed, streamArrivals), rate, openDur, nextReq)
	for i := 0; i < int(closedMax*closedDur.Seconds()); i++ {
		pl.closed = append(pl.closed, nextReq())
	}
	pl.jobs = append(pl.jobs, uniquePool(seed, streamFresh, fresh)...)
	return pl
}

// stackSnap is the counters a stack exposes, read between phases.
type stackSnap struct {
	serve       []serve.StatsSnapshot
	view        *serve.ClusterView
	poolGets    int64
	poolHits    int64
	constructed int64
	gc          goCounters
}

func snapshot(st *stack) stackSnap {
	s := stackSnap{gc: readGo(), constructed: partree.MachinePoolStats().Constructed}
	for _, srv := range st.servers {
		s.serve = append(s.serve, srv.Snapshot())
	}
	if st.gw != nil {
		s.view = st.gw.View()
	}
	for _, sh := range pool.PerShard() {
		s.poolGets += sh.Gets
		s.poolHits += sh.Hits
	}
	return s
}

// serveDelta sums the backends' counter changes between two snapshots.
type serveDelta struct {
	fastHits, fastMisses, hits, misses, evictions, collapses int64
	batches, jobs, lingerCuts, expired, shed                 int64
	engineBatches, engineJobs                                [numEngines]int64
}

func deltaServe(a, b stackSnap) serveDelta {
	var d serveDelta
	for i := range b.serve {
		x, y := a.serve[i], b.serve[i]
		d.fastHits += y.FastPath.Hits - x.FastPath.Hits
		d.fastMisses += y.FastPath.Misses - x.FastPath.Misses
		d.hits += y.Cache.Hits - x.Cache.Hits
		d.misses += y.Cache.Misses - x.Cache.Misses
		d.evictions += y.Cache.Evictions - x.Cache.Evictions
		d.collapses += y.Cache.Collapses - x.Cache.Collapses
		d.shed += y.Shed - x.Shed
		for e := engineID(0); e < numEngines; e++ {
			bx, by := x.Batchers[e.String()], y.Batchers[e.String()]
			d.engineBatches[e] += by.Batches - bx.Batches
			d.engineJobs[e] += by.Jobs - bx.Jobs
			d.batches += by.Batches - bx.Batches
			d.jobs += by.Jobs - bx.Jobs
			d.lingerCuts += by.LingerCuts - bx.LingerCuts
			d.expired += by.Expired - bx.Expired
		}
	}
	return d
}

// runOpts is one invocation's command line.
type runOpts struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// result is one run's outcome in the contract's terms.
type result struct {
	attempted, failed int
	metrics           *metricSet
	notes             []string
}

// setupReps is how many times a run builds its stack to time set-up.
const setupReps = 31

func runServing(w *servingWorkload, o runOpts) (*result, error) {
	res, err := serveLoad(w, o)
	if err != nil {
		return nil, err
	}
	if o.traced {
		for _, d := range perLayer {
			if d.kernelOnly {
				res.metrics.add(d.name, 0, d.unit)
			}
		}
		res.metrics.add("bench.fail_frac", ratio(float64(res.failed), float64(res.attempted)), "frac")
	}
	return res, nil
}

// serveLoad sets the stack up, warms it, runs the timed phases, checks
// every answer and derives the serving metrics.
func serveLoad(w *servingWorkload, o runOpts) (*result, error) {
	// The closed loop gives the end-to-end figures, so it gets two thirds.
	openDur := o.seconds / 3
	closedDur := o.seconds - openDur
	clock := newStopwatch()
	pl := w.prepare(o.seed, openDur, closedDur, w.openRate, w.closedMax)
	clock.lap("prepare")

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	hc, err := newHostClock(w.sens)
	if err != nil {
		return nil, err
	}
	defer hc.close()
	st, setupS, err := setupStack(setupReps, w.backends, w.gateway, tr, hc)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	clock.lap("set-up")
	senders := newSenders(runtime.GOMAXPROCS(0), st.target, pl.jobs)
	var phases []phaseResult
	for _, warm := range pl.warm {
		phases = append(phases, closedLoop(senders, warm, time.Hour, nil))
	}
	clock.lap("warm-up")

	res := &result{metrics: newMetricSet()}
	// Start each timed phase from a collected heap, so runs do not differ
	// by where the collector happened to be when timing began.
	runtime.GC()
	before := snapshot(st)
	var open, closed phaseResult
	var spans []span
	var rtt, overhead float64
	var gcA, gcB goCounters
	if !o.traced {
		open = openLoop(senders, pl.open)
		runtime.GC()
		gcA = readGo()
		closed = closedLoop(senders, pl.closed, closedDur, hc)
		gcB = readGo()
	} else {
		if rtt, err = nullRTT(senders[0].client, st.target, 200); err != nil {
			st.close()
			return nil, err
		}
		tr.armed.Store(true)
		open = openLoop(senders, pl.open)
		tr.armed.Store(false)
		spans = tr.take()
		// Half the closed loop untraced, half traced, on consecutive slices
		// of the same request list: the throughput ratio is the overhead.
		half := len(pl.closed) / 2
		runtime.GC()
		gcA = readGo()
		closed = closedLoop(senders, pl.closed[:half], closedDur/2, hc)
		gcB = readGo()
		runtime.GC()
		tr.armed.Store(true)
		tracedClosed := closedLoop(senders, pl.closed[half:], closedDur/2, hc)
		tr.armed.Store(false)
		tr.take()
		overhead = ratio(closed.scaledRate(), tracedClosed.scaledRate()) - 1
		phases = append(phases, tracedClosed)
	}
	after := snapshot(st)
	clock.lap("timed phases")
	st.close()
	rss := peakRSSMB()
	phases = append(phases, open, closed)
	if closed.exhausted {
		res.notes = append(res.notes, "closed loop ran out of prepared requests before its time was up; raise closedMax")
	}
	res.attempted, res.failed = checkPhases(senders, pl.jobs, phases, &res.notes)
	clock.lap("check")
	defer func() { res.notes = append(res.notes, clock.String()) }()

	m := res.metrics
	if !o.traced {
		lat, raw, openLat := closed.scaledLatenciesMS(), closed.latenciesMS(), open.latenciesMS()
		m.add("throughput_rps", closed.scaledRate(), "1/s")
		m.add("lat_p50_ms", quantile(lat, 0.5), "ms")
		m.add("setup_s", setupS, "s")
		m.add("peak_rss_mb", rss, "MiB")
		lags := open.lagsMS()
		res.notes = append(res.notes, fmt.Sprintf("closed loop: %d OK in %d slices with %d senders, %.1f/s and p50 %.4fms unscaled, p90 %.3fms p99 %.3fms scaled; throughput is the median slice's scaled rate",
			closed.okCount(), len(closed.windows), len(senders), closed.rawRate(), quantile(raw, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)))
		res.notes = append(res.notes, fmt.Sprintf("open loop at %.0f/s: %d OK, latency from due p50 %.3fms p90 %.3fms p99 %.3fms (%d beyond p99); generator lag mean %.3fms p99 %.3fms",
			w.openRate, len(openLat), quantile(openLat, 0.5), quantile(openLat, 0.9), quantile(openLat, 0.99), len(openLat)/100, mean(lags), quantile(lags, 0.99)))
		res.notes = append(res.notes, hc.String())
		return res, nil
	}

	js := join(&open, tr, spans, pl.jobs, w.gateway)
	servingLayers(w, st, pl, &open, js, before, after, rtt, m, &res.notes)
	m.add("pool.hit_frac", ratio(float64(after.poolHits-before.poolHits), float64(after.poolGets-before.poolGets)), "frac")
	m.add("go.allocs_per_req", ratio(gcB.allocs-gcA.allocs, float64(len(closed.samples))), "count")
	m.add("go.gc_cpu_frac", ratio(gcB.gcCPU-gcA.gcCPU, gcB.totalCPU-gcA.totalCPU), "frac")
	closedLat, openLat := closed.scaledLatenciesMS(), open.latenciesMS()
	m.add("bench.p90_ms", quantile(closedLat, 0.9), "ms")
	m.add("bench.p99_ms", quantile(closedLat, 0.99), "ms")
	m.add("bench.open_p50_ms", quantile(openLat, 0.5), "ms")
	m.add("bench.open_p90_ms", quantile(openLat, 0.9), "ms")
	m.add("bench.open_p99_ms", quantile(openLat, 0.99), "ms")
	m.add("bench.lag_p99_ms", quantile(open.lagsMS(), 0.99), "ms")
	m.add("bench.trace_overhead_frac", overhead, "frac")
	m.add("bench.host_factor", hc.medianSince(0, hc.sens), "ratio")
	m.add("bench.unscaled_throughput_rps", closed.rawRate(), "1/s")
	m.add("bench.unscaled_lat_p50_ms", quantile(closed.latenciesMS(), 0.5), "ms")
	path := fmt.Sprintf("%s/%s-seed%d.json", traceDir, w.name, o.seed)
	if err := writeTrace(path, js, open.base, tr, pl.jobs); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans written to "+path)
	return res, nil
}

// stageSumBand is the band the traced run's stage sum must fall in, as a
// share of the mean client-observed latency.
var stageSumBand = [2]float64{0.75, 1.25}

// servingLayers derives the cluster and serve layer metrics of a traced
// run from the joined spans, the counter deltas and the replays.
func servingLayers(w *servingWorkload, st *stack, pl *plan, open *phaseResult, js []joined, before, after stackSnap, rtt float64, m *metricSet, notes *[]string) {
	d := deltaServe(before, after)
	var batchAvg [numEngines]float64
	for e := range batchAvg {
		batchAvg[e] = ratio(float64(d.engineJobs[e]), float64(d.engineBatches[e]))
	}

	reqs := make([]req, len(js))
	for i, j := range js {
		reqs[i] = j.s.req
	}
	var ring *cluster.Ring
	if w.gateway {
		ring = cluster.NewRing(384)
		for _, b := range st.backends {
			ring.Add(b.url)
		}
	}
	canon, ringKey := canonicalTimes(reqs, pl.jobs, ring)

	// The jobs that missed, per engine, for the batch and oracle replays.
	var byEngine [numEngines][]facadeJob
	seen := map[int32]bool{}
	for _, j := range js {
		e := pl.jobs[j.s.job].engine
		if j.s.hit || seen[j.s.job] || len(byEngine[e]) >= maxReplayJobs {
			continue
		}
		seen[j.s.job] = true
		byEngine[e] = append(byEngine[e], decodeJob(&pl.jobs[j.s.job]))
	}
	engineUS := replayBatches(byEngine, batchAvg)
	oracleUS := replayOracles(byEngine)

	var gwSelf, handler, canonUS, ringUS, wait, lat, lag, outer []float64
	for _, j := range js {
		h := j.handler()
		handler = append(handler, float64(h.wall())/1e3)
		if j.inner != nil {
			gwSelf = append(gwSelf, float64(j.outer.wall()-j.inner.wall())/1e3)
			ringUS = append(ringUS, ringKey[j.s.req])
		}
		canonUS = append(canonUS, canon[j.s.req])
		if !j.s.hit {
			e := pl.jobs[j.s.job].engine
			wait = append(wait, float64(h.wall())/1e3-canon[j.s.req]-engineUS[e])
		}
		lat = append(lat, float64(j.s.done-j.s.due)/1e3)
		lag = append(lag, float64(j.s.send-j.s.due)/1e3)
		outer = append(outer, float64(j.outer.wall())/1e3)
	}
	// Stage sum: generator lag + the independently measured null round
	// trip + the outermost handler's wall, against the client's latency.
	stageSum := ratio(mean(lag)+rtt+mean(outer), mean(lat))
	if stageSum < stageSumBand[0] || stageSum > stageSumBand[1] {
		*notes = append(*notes, fmt.Sprintf("stage sum %.3f of client latency is outside the stated band [%.2f, %.2f]", stageSum, stageSumBand[0], stageSumBand[1]))
	}
	*notes = append(*notes, fmt.Sprintf("traced open loop: %d of %d OK requests joined; mean latency %.1fus = lag %.1f + null rtt %.1f + handler %.1f (+ residual %.1f)",
		len(js), open.okCount(), mean(lat), mean(lag), rtt, mean(outer), mean(lat)-mean(lag)-rtt-mean(outer)))

	m.add("cluster.self_us_p50", quantile(gwSelf, 0.5), "us")
	m.add("cluster.self_us_p99", quantile(gwSelf, 0.99), "us")
	m.add("cluster.ringkey_us", mean(ringUS), "us")
	if after.view != nil {
		v0, v1 := before.view, after.view
		proxied := float64(v1.ProxiedOK + v1.ProxiedErr - v0.ProxiedOK - v0.ProxiedErr)
		hedges := float64(v1.HedgesFired - v0.HedgesFired)
		m.add("cluster.hedge_frac", ratio(hedges, proxied), "frac")
		m.add("cluster.hedge_win_frac", ratio(float64(v1.HedgeWins-v0.HedgeWins), hedges), "frac")
		m.add("cluster.failovers", float64(v1.Failovers-v0.Failovers), "count")
		var routed []float64
		for i := range v1.Backends {
			routed = append(routed, float64(v1.Backends[i].Routed-v0.Backends[i].Routed))
		}
		sort.Float64s(routed)
		m.add("cluster.shard_skew", ratio(routed[len(routed)-1], mean(routed)), "ratio")
	} else {
		m.add("cluster.hedge_frac", 0, "frac")
		m.add("cluster.hedge_win_frac", 0, "frac")
		m.add("cluster.failovers", 0, "count")
		m.add("cluster.shard_skew", 0, "ratio")
	}

	m.add("serve.handler_us_p50", quantile(handler, 0.5), "us")
	m.add("serve.handler_us_p99", quantile(handler, 0.99), "us")
	m.add("serve.canonical_us", mean(canonUS), "us")
	m.add("serve.wait_us", mean(wait), "us")
	m.add("serve.fastpath_hit_frac", ratio(float64(d.fastHits), float64(d.fastHits+d.fastMisses)), "frac")
	m.add("serve.cache_hit_frac", ratio(float64(d.hits), float64(d.hits+d.misses)), "frac")
	m.add("serve.cache_evictions", float64(d.evictions), "count")
	m.add("serve.collapses", float64(d.collapses), "count")
	m.add("serve.batch_avg", ratio(float64(d.jobs), float64(d.batches)), "jobs")
	m.add("serve.linger_cut_frac", ratio(float64(d.lingerCuts), float64(d.batches)), "frac")
	m.add("serve.expired", float64(d.expired), "count")
	m.add("serve.shed", float64(d.shed), "count")
	for e := engineID(0); e < numEngines; e++ {
		m.add("partree.batch_us_per_job."+e.String(), engineUS[e], "us")
	}
	m.add("partree.machines_constructed", float64(after.constructed-before.constructed), "count")
	m.add("huffman.build_us", oracleUS[engHuffman], "us")
	m.add("shannonfano.build_us", oracleUS[engShannonFano], "us")
	m.add("leafpattern.build_us", oracleUS[engDepths], "us")
	m.add("obst.knuth_us", oracleUS[engOBST], "us")
	m.add("lincfl.seq_us", oracleUS[engLinCFL], "us")
	m.add("bench.stage_sum_frac", stageSum, "frac")
	m.add("bench.trace_join_frac", ratio(float64(len(js)), float64(open.okCount())), "frac")
}

// checkPhases verifies every distinct answer the senders received and
// returns the requests attempted and failed over all phases: refused,
// errored or timed-out requests, and every request that got a wrong
// answer.
func checkPhases(senders []*sender, jobs []job, phases []phaseResult, notes *[]string) (attempted, failed int) {
	for _, p := range phases {
		attempted += len(p.samples)
		failed += len(p.samples) - p.okCount()
	}
	type pending struct {
		key respKey
		a   *answer
	}
	var all []pending
	for _, s := range senders {
		for k, a := range s.answers {
			all = append(all, pending{k, a})
		}
	}
	errs := make([]error, len(all))
	parallelFor(len(all), func(i int) { errs[i] = checkResponse(&jobs[all[i].key.job], all[i].a.body) })
	for i, err := range errs {
		if err != nil {
			failed += all[i].a.count
			if len(*notes) < 20 {
				*notes = append(*notes, "wrong answer: "+err.Error())
			}
		}
	}
	return attempted, failed
}
