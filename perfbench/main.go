// Command perfbench is partree's benchmark. It drives the shipped stack —
// partreed alone, partreegw in front of two partreeds, or the façade's
// paper kernels — from one process, checks every answer against a serial
// oracle, and prints the metrics by name with their units.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from the checkout's sources:
//
//	bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all          # every workload, end-to-end metrics
//	bash perfbench/run.sh compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from a run with spans recorded at every layer boundary. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"partree"
	"partree/internal/engine"
	"partree/internal/pool"
)

// traceDir is where traced runs write their span files.
const traceDir = ".bench_build/traces"

// metric is one named measurement in the output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	order []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) add(name string, v float64, unit string) {
	if _, dup := s.m[name]; !dup {
		s.order = append(s.order, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

func (s *metricSet) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range s.order {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(name)
		v, err := json.Marshal(s.m[name])
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// output is the contract's result line.
type output struct {
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Metrics   *metricSet `json:"metrics"`
}

// record is what --out saves: the result with its provenance, for
// compare.
type record struct {
	Provenance provenance `json:"provenance"`
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	Result     output     `json:"result"`
}

var workloads = []string{"serve-unique", "gateway-zipf", "paper-kernels"}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:])
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "serve-unique, gateway-zipf, paper-kernels, or all")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives byte-identical request bodies")
		seconds = fs.Int("seconds", 24, "measured seconds per run (set-up, warm-up and checking excluded)")
		traced  = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		out     = fs.String("out", "", "also write the result with its provenance to this file, for compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	if *wl == "all" {
		return runAll(*seed, *seconds, *traced)
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1}

	// Size the workspace arena the way partreed does with no profile file.
	if n := engine.ArenaShards(); n > 0 {
		pool.SetShards(n)
	}
	prov := collectProvenance()
	var res *result
	var err error
	switch *wl {
	case "serve-unique":
		res, err = runServing(serveUnique, o)
	case "gateway-zipf":
		res, err = runServing(gatewayZipf, o)
	case "paper-kernels":
		res, err = runKernels(o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *wl, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := checkNames(res.metrics, o.traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.metrics = res.metrics.ordered(o.traced)
	outp := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}
	printTable(*wl, *seed, res, prov)
	if *out != "" {
		rec := record{Provenance: prov, Workload: *wl, Seed: *seed, Seconds: float64(*seconds), Trace: o.traced, Result: outp}
		b, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	line, err := json.Marshal(outp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printTable writes every metric by name with its unit, the run's notes
// and its provenance to standard error.
func printTable(wl string, seed int64, res *result, prov provenance) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d: attempted=%d failed=%d fail_frac=%.6f\n", wl, seed, res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)))
	for _, name := range res.metrics.order {
		m := res.metrics.m[name]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
	b, _ := json.Marshal(prov)
	fmt.Fprintf(os.Stderr, "  provenance: %s\n", b)
}

// checkNames verifies the run produced exactly the metrics the benchmark
// declares for its mode, so every workload reports the same set.
func checkNames(ms *metricSet, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(ms.order) != len(want) {
		return fmt.Errorf("produced %d metrics, the benchmark declares %d", len(ms.order), len(want))
	}
	for _, d := range want {
		got, ok := ms.m[d.name]
		if !ok || got.Unit != d.unit {
			return fmt.Errorf("metric %s (%s) missing or with unit %q", d.name, d.unit, got.Unit)
		}
	}
	return nil
}

// runAll runs every workload in its own process, so each has its own
// peak RSS, and prints every workload's metrics.
func runAll(seed int64, seconds, traced int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	all := output{Correct: true, Metrics: newMetricSet()}
	for _, wl := range workloads {
		cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var o struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: bad result line: %v\n", wl, err)
			return 1
		}
		all.Correct = all.Correct && o.Correct
		all.Attempted += o.Attempted
		all.Failed += o.Failed
		names := make([]string, 0, len(o.Metrics))
		for n := range o.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			all.Metrics.add(wl+"/"+n, o.Metrics[n].Value, o.Metrics[n].Unit)
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// compare prints the ratio new/old of every metric two --out records
// share. Records from different host shapes are flagged and not
// compared.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reading %s: %v\n", p, err)
			return 1
		}
	}
	if err := comparable(recs[0], recs[1]); err != nil {
		fmt.Printf("not compared: %v\n", err)
		return 3
	}
	old, cur := recs[0].Result.Metrics, recs[1].Result.Metrics
	for _, name := range cur.order {
		o, ok := old.m[name]
		if !ok {
			continue
		}
		fmt.Printf("%-40s %14.6g -> %14.6g %-6s x%.3f\n", name, o.Value, cur.m[name].Value, o.Unit, ratio(cur.m[name].Value, o.Value))
	}
	return 0
}

// comparable reports why two records may not be compared: a different
// host shape, workload, mode or run length.
func comparable(a, b record) error {
	switch {
	case a.Provenance.hostShape() != b.Provenance.hostShape():
		return fmt.Errorf("host shape differs (%s vs %s)", a.Provenance.hostShape(), b.Provenance.hostShape())
	case a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds:
		return errors.New("workload, trace mode or run length differs")
	}
	return nil
}

func (s *metricSet) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(strings.NewReader(string(b)))
	if _, err := dec.Token(); err != nil {
		return err
	}
	*s = *newMetricSet()
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return err
		}
		var m metric
		if err := dec.Decode(&m); err != nil {
			return err
		}
		s.add(t.(string), m.Value, m.Unit)
	}
	return nil
}

// runKernels is the paper-kernels workload.
func runKernels(o runOpts) (*result, error) {
	ks := buildKernels(o.seed)
	// The kernels only compute: when the compute probe ran 1.8–1.9 times
	// slower than nominal, their calls slowed as its slowdown to the
	// power 1.1.
	hc, err := newHostClock(sensitivity{compute: 1.1})
	if err != nil {
		return nil, err
	}
	defer hc.close()
	setupS := kernelSetup(ks, 5, hc)
	res := &result{metrics: newMetricSet()}
	m := res.metrics
	if !o.traced {
		s := runRounds(ks, workersOpts(), 0, o.seconds, hc, nil)
		countKernels(res, s)
		walls := allScaled(s)
		m.add("throughput_rps", float64(len(walls))/(sumOf(walls)/1e3), "1/s")
		m.add("lat_p50_ms", quantile(walls, 0.5), "ms")
		m.add("setup_s", setupS, "s")
		m.add("peak_rss_mb", peakRSSMB(), "MiB")
		var raw []float64
		for k := range s {
			raw = append(raw, s[k].walls...)
		}
		res.notes = append(res.notes, fmt.Sprintf("%d kernel calls, one caller with Workers=%d; unscaled %.2f calls/s, p50 %.4fms; throughput is calls per second of scaled kernel wall time", countCalls(s), workersOpts().Workers, float64(len(raw))/(sumOf(raw)/1e3), median(raw)))
		res.notes = append(res.notes, hc.String())
		return res, nil
	}

	constructed := partree.MachinePoolStats().Constructed
	gcA := readGo()
	var gets0, hits0 int64
	for _, sh := range pool.PerShard() {
		gets0, hits0 = gets0+sh.Gets, hits0+sh.Hits
	}
	a := runRounds(ks, workersOpts(), 0, o.seconds/2, hc, nil)
	gcB := readGo()
	constructed = partree.MachinePoolStats().Constructed - constructed
	var gets1, hits1 int64
	for _, sh := range pool.PerShard() {
		gets1, hits1 = gets1+sh.Gets, hits1+sh.Hits
	}
	type call struct {
		k          int
		start, end time.Time
	}
	var calls []call
	b := runRounds(ks, workersOpts(), 0, o.seconds/2, hc, func(k int, start, end time.Time) {
		calls = append(calls, call{k, start, end})
	})
	countKernels(res, a)
	countKernels(res, b)

	zeroServingLayers(m)
	m.add("partree.machines_constructed", float64(constructed), "count")
	kernelLayerMetrics(ks, a, 5, hc, m)
	overhead := 0.0
	for k := range ks {
		overhead += ratio(median(b[k].scaled), median(a[k].scaled)) - 1
	}
	n := 0
	for _, k := range a {
		n += k.calls
	}
	m.add("pool.hit_frac", ratio(float64(hits1-hits0), float64(gets1-gets0)), "frac")
	m.add("go.allocs_per_req", ratio(gcB.allocs-gcA.allocs, float64(n)), "count")
	m.add("go.gc_cpu_frac", ratio(gcB.gcCPU-gcA.gcCPU, gcB.totalCPU-gcA.totalCPU), "frac")
	m.add("bench.p90_ms", quantile(allScaled(a), 0.9), "ms")
	m.add("bench.p99_ms", quantile(allScaled(a), 0.99), "ms")
	m.add("bench.lag_p99_ms", 0, "ms")
	m.add("bench.trace_overhead_frac", overhead/float64(len(ks)), "frac")
	m.add("bench.fail_frac", ratio(float64(res.failed), float64(res.attempted)), "frac")
	m.add("bench.host_factor", hc.medianSince(0, hc.sens), "ratio")
	var raw []float64
	for k := range a {
		raw = append(raw, a[k].walls...)
	}
	m.add("bench.unscaled_throughput_rps", float64(len(raw))/(sumOf(raw)/1e3), "1/s")
	m.add("bench.unscaled_lat_p50_ms", median(raw), "ms")
	res.notes = append(res.notes, "the cluster and serve layers are idle on paper-kernels and read 0")
	evs := make([]traceEvent, len(calls))
	for i, c := range calls {
		evs[i] = traceEvent{Name: ks[c.k].name, Ph: "X", Ts: us(c.start.Sub(calls[0].start)), Dur: us(c.end.Sub(c.start))}
	}
	path := fmt.Sprintf("%s/paper-kernels-seed%d.json", traceDir, o.seed)
	if err := writeEvents(path, evs); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans written to "+path)
	return res, nil
}

func countKernels(res *result, s []kernelSamples) {
	for _, k := range s {
		res.attempted += k.calls
		res.failed += k.wrong
	}
}

// zeroServingLayers reports the layers only a serving workload drives
// as idle.
func zeroServingLayers(m *metricSet) {
	for _, d := range perLayer {
		if d.servingOnly {
			m.add(d.name, 0, d.unit)
		}
	}
}

func sumOf(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func countCalls(s []kernelSamples) int {
	n := 0
	for _, k := range s {
		n += k.calls
	}
	return n
}
