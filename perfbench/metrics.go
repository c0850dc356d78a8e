package main

// metricDecl declares one metric as BENCHMARK.json lists it.
type metricDecl struct {
	name, unit, better string
	// bound is an end-to-end metric's allowed worsening, as a share of
	// the parent's median.
	bound float64
	// servingOnly marks a per-layer metric only a serving workload
	// drives; paper-kernels reports it as 0. kernelOnly marks one only
	// paper-kernels drives; the serving workloads report it as 0.
	servingOnly, kernelOnly bool
}

// endToEnd is what a user of the system sees, from an untraced run. The
// three times are scaled to a nominal host speed by the host probes (see
// hostClock); peak RSS is not. fail_frac is not among them because a
// healthy run reads exactly 0: it is the result line's failed/attempted.
// Only the median latency is gated: on a shared 2-vCPU host the open
// loop's p50/p90/p99 moved by 13–88% and the closed loop's p90 by a third
// between runs of the same code, more than any bound a gate can use; the
// tails are per-layer metrics instead. Each kernel's own median
// (thmNN.ms) is per layer too, as every workload must report every
// end-to-end metric.
var endToEnd = []metricDecl{
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.2},
}

// perLayer is what the traced run reports.
var perLayer = []metricDecl{
	{name: "cluster.self_us_p50", unit: "us", better: "lower", servingOnly: true},
	{name: "cluster.self_us_p99", unit: "us", better: "lower", servingOnly: true},
	{name: "cluster.ringkey_us", unit: "us", better: "lower", servingOnly: true},
	{name: "cluster.hedge_frac", unit: "frac", better: "lower", servingOnly: true},
	{name: "cluster.hedge_win_frac", unit: "frac", better: "higher", servingOnly: true},
	{name: "cluster.failovers", unit: "count", better: "lower", servingOnly: true},
	{name: "cluster.shard_skew", unit: "ratio", better: "lower", servingOnly: true},
	{name: "serve.handler_us_p50", unit: "us", better: "lower", servingOnly: true},
	{name: "serve.handler_us_p99", unit: "us", better: "lower", servingOnly: true},
	{name: "serve.canonical_us", unit: "us", better: "lower", servingOnly: true},
	{name: "serve.wait_us", unit: "us", better: "lower", servingOnly: true},
	{name: "serve.fastpath_hit_frac", unit: "frac", better: "higher", servingOnly: true},
	{name: "serve.cache_hit_frac", unit: "frac", better: "higher", servingOnly: true},
	{name: "serve.cache_evictions", unit: "count", better: "lower", servingOnly: true},
	{name: "serve.collapses", unit: "count", better: "higher", servingOnly: true},
	{name: "serve.batch_avg", unit: "jobs", better: "higher", servingOnly: true},
	{name: "serve.linger_cut_frac", unit: "frac", better: "lower", servingOnly: true},
	{name: "serve.expired", unit: "count", better: "lower", servingOnly: true},
	{name: "serve.shed", unit: "count", better: "lower", servingOnly: true},
	{name: "partree.batch_us_per_job.huffman", unit: "us", better: "lower", servingOnly: true},
	{name: "partree.batch_us_per_job.shannonfano", unit: "us", better: "lower", servingOnly: true},
	{name: "partree.batch_us_per_job.treefromdepths", unit: "us", better: "lower", servingOnly: true},
	{name: "partree.batch_us_per_job.obst", unit: "us", better: "lower", servingOnly: true},
	{name: "partree.batch_us_per_job.lincfl", unit: "us", better: "lower", servingOnly: true},
	{name: "partree.machines_constructed", unit: "count", better: "lower"},
	{name: "huffman.build_us", unit: "us", better: "lower", servingOnly: true},
	{name: "shannonfano.build_us", unit: "us", better: "lower", servingOnly: true},
	{name: "leafpattern.build_us", unit: "us", better: "lower", servingOnly: true},
	{name: "obst.knuth_us", unit: "us", better: "lower", servingOnly: true},
	{name: "lincfl.seq_us", unit: "us", better: "lower", servingOnly: true},
	{name: "thm41.ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm41.p1_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm41.oracle_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm41.steps", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm41.work", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm41.steals", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm41.barrier_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm41.comparisons", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm51.ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm51.p1_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm51.oracle_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm51.steps", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm51.work", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm51.steals", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm51.barrier_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm61.ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm61.p1_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm61.oracle_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm61.steps", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm61.work", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm61.steals", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm61.barrier_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm71.ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm71.p1_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm71.oracle_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm71.steps", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm71.work", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm71.steals", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm71.barrier_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm81.ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm81.p1_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm81.oracle_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm81.steps", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm81.work", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm81.steals", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm81.barrier_ms", unit: "ms", better: "lower", kernelOnly: true},
	{name: "thm81.word_ops", unit: "count", better: "lower", kernelOnly: true},
	{name: "thm81.bytes_computed", unit: "B", better: "lower", kernelOnly: true},
	{name: "pool.hit_frac", unit: "frac", better: "higher"},
	{name: "go.allocs_per_req", unit: "count", better: "lower"},
	{name: "go.gc_cpu_frac", unit: "frac", better: "lower"},
	{name: "bench.p90_ms", unit: "ms", better: "lower"},
	{name: "bench.p99_ms", unit: "ms", better: "lower"},
	{name: "bench.open_p50_ms", unit: "ms", better: "lower", servingOnly: true},
	{name: "bench.open_p90_ms", unit: "ms", better: "lower", servingOnly: true},
	{name: "bench.open_p99_ms", unit: "ms", better: "lower", servingOnly: true},
	{name: "bench.lag_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "frac", better: "lower"},
	{name: "bench.stage_sum_frac", unit: "frac", better: "higher", servingOnly: true},
	{name: "bench.trace_join_frac", unit: "frac", better: "higher", servingOnly: true},
	{name: "bench.fail_frac", unit: "frac", better: "lower"},
	{name: "bench.host_factor", unit: "ratio", better: "lower"},
	{name: "bench.unscaled_throughput_rps", unit: "1/s", better: "higher"},
	{name: "bench.unscaled_lat_p50_ms", unit: "ms", better: "lower"},
}

// ordered returns the set in its declaration order.
func (s *metricSet) ordered(traced bool) *metricSet {
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	out := newMetricSet()
	for _, d := range decls {
		out.add(d.name, s.m[d.name].Value, d.unit)
	}
	return out
}
