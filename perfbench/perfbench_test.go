package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"partree/internal/grammar"
	"partree/internal/leafpattern"
	"partree/internal/lincfl"
	"partree/internal/serve"
)

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range []*servingWorkload{serveUnique, gatewayZipf} {
		a := w.prepare(7, time.Second, time.Second/4, w.openRate, 400)
		b := w.prepare(7, time.Second, time.Second/4, w.openRate, 400)
		c := w.prepare(8, time.Second, time.Second/4, w.openRate, 400)
		if len(a.jobs) != len(b.jobs) || len(a.open) != len(b.open) || len(a.closed) != len(b.closed) {
			t.Fatalf("%s: same seed gave different plan sizes", w.name)
		}
		for i := range a.open {
			if a.open[i] != b.open[i] {
				t.Fatalf("%s: arrival %d differs under the same seed", w.name, i)
			}
		}
		for i := range a.jobs {
			for s := range a.jobs[i].bodies {
				if !bytes.Equal(a.jobs[i].bodies[s], b.jobs[i].bodies[s]) {
					t.Fatalf("%s: job %d spelling %d differs under the same seed", w.name, i, s)
				}
			}
		}
		if bytes.Equal(a.jobs[0].bodies[0], c.jobs[0].bodies[0]) {
			t.Errorf("%s: seeds 7 and 8 gave the same first body", w.name)
		}
	}
}

func TestUniqueBodiesAreDistinct(t *testing.T) {
	pl := prepareUnique(3, 2*time.Second, time.Second, serveUnique.openRate, 500)
	seen := map[string]bool{}
	lim := serve.Limits{}
	for i := range pl.jobs {
		key, err := serve.CanonicalKey(pl.jobs[i].engine.path(), pl.jobs[i].bodies[0], lim)
		if err != nil {
			t.Fatalf("job %d does not canonicalize: %v", i, err)
		}
		if seen[key] {
			t.Fatalf("job %d repeats an earlier canonical key", i)
		}
		seen[key] = true
	}
}

func TestSpellingsShareCanonicalKey(t *testing.T) {
	jobs := zipfJobs(11, 40)
	lim := serve.Limits{}
	for i, j := range jobs {
		if len(j.bodies) != numSpellings {
			t.Fatalf("job %d has %d spellings", i, len(j.bodies))
		}
		want, err := serve.CanonicalKey(j.engine.path(), j.bodies[0], lim)
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, j.engine, err)
		}
		raw := map[uint64]bool{}
		for s, body := range j.bodies {
			got, err := serve.CanonicalKey(j.engine.path(), body, lim)
			if err != nil || got != want {
				t.Errorf("job %d (%s) spelling %d: key %q, %v; want %q", i, j.engine, s, got, err, want)
			}
			raw[bodyHash(body)] = true
		}
		if len(raw) != numSpellings {
			t.Errorf("job %d (%s): %d distinct raw hashes over %d spellings", i, j.engine, len(raw), numSpellings)
		}
	}
}

func TestConstructionTruthMatchesOracles(t *testing.T) {
	rng := subRNG(5, 99)
	for i := 0; i < 200; i++ {
		e := engLinCFL
		if i%2 == 0 {
			e = engDepths
		}
		in := genInput(rng, e, sizeRange[e][0]+i)
		switch e {
		case engLinCFL:
			g := grammar.Palindrome()
			if in.grammar == "equalends" {
				g = grammar.EqualEnds()
			}
			if got := lincfl.Sequential(g, in.word); got != in.truth {
				t.Fatalf("%s word %q: oracle says %v, construction %v", in.grammar, in.word, got, in.truth)
			}
		case engDepths:
			_, err := leafpattern.Greedy(in.ints)
			if (err == nil) != in.truth {
				t.Fatalf("depths %v: oracle err %v, construction realizable=%v", in.ints, err, in.truth)
			}
		}
	}
}

// served answers one job of each engine from an in-process partreed.
func served(t *testing.T) ([]job, [][]byte) {
	t.Helper()
	st, err := startStack(1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	rng := subRNG(2, 1)
	var jobs []job
	var resps [][]byte
	for e := engineID(0); e < numEngines; e++ {
		for _, truth := range []bool{true, false} {
			var in input
			for {
				in = genInput(rng, e, sizeRange[e][0])
				if (e != engDepths && e != engLinCFL) || in.truth == truth {
					break
				}
			}
			j := makeJob(in)
			resp, err := http.Post(st.target+e.path(), "application/json", bytes.NewReader(j.bodies[0]))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, %v: %s", e, resp.StatusCode, err, body)
			}
			jobs = append(jobs, j)
			resps = append(resps, body)
		}
	}
	return jobs, resps
}

func TestCheckerAcceptsServedAndRejectsCorrupted(t *testing.T) {
	jobs, resps := served(t)
	for i := range jobs {
		j := &jobs[i]
		if err := checkResponse(j, resps[i]); err != nil {
			t.Fatalf("%s: correct response rejected: %v", j.engine, err)
		}
		var m map[string]any
		if err := json.Unmarshal(resps[i], &m); err != nil {
			t.Fatal(err)
		}
		switch j.engine {
		case engHuffman, engShannonFano:
			m["avg_bits"] = m["avg_bits"].(float64) + 0.01
		case engDepths:
			if m["realizable"] == true {
				shape := m["shape"].(string)
				m["shape"] = "(" + shape + "L)"
				m["symbols"] = append(m["symbols"].([]any), float64(len(m["symbols"].([]any))))
			} else {
				m["realizable"] = true
			}
		case engOBST:
			m["cost"] = m["cost"].(float64) * 1.001
		case engLinCFL:
			m["accepted"] = !m["accepted"].(bool)
		}
		bad, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if checkResponse(j, bad) == nil {
			t.Errorf("%s: corrupted response %s accepted", j.engine, bad)
		}
	}
	// A code that stops being prefix-free must be caught even when the
	// lengths and the cost still agree.
	for i := range jobs {
		if jobs[i].engine != engHuffman {
			continue
		}
		var r codingResp
		if err := json.Unmarshal(resps[i], &r); err != nil {
			t.Fatal(err)
		}
		longest := 0
		for k := range r.Codes {
			if len(r.Codes[k]) > len(r.Codes[longest]) {
				longest = k
			}
		}
		other := (longest + 1) % len(r.Codes)
		r.Codes[longest] = r.Codes[other] + strings.Repeat("0", len(r.Codes[longest])-len(r.Codes[other]))
		if len(r.Codes[other]) < len(r.Codes[longest]) {
			bad, _ := json.Marshal(r)
			if checkResponse(&jobs[i], bad) == nil {
				t.Errorf("huffman: code with a prefix accepted")
			}
		}
	}
}

func TestKernelsPassTheirOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds brute-force oracles")
	}
	ks := buildKernels(1)
	s := runRounds(ks, workersOpts(), 1, 0, nil, nil)
	for k, kn := range ks {
		if s[k].wrong != 0 || s[k].calls != 1 {
			t.Errorf("%s: %d calls, %d wrong", kn.name, s[k].calls, s[k].wrong)
		}
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const delay = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	jobs := []job{{engine: engLinCFL, bodies: [][]byte{[]byte(`{}`)}}}
	// Three requests all due at once with one sender: the last one waits
	// for the two before it, and its latency must include that wait.
	sched := []arrival{{at: 0}, {at: 0}, {at: 0}}
	p := openLoop(newSenders(1, srv.URL, jobs), sched)
	lat := p.latenciesMS()
	if len(lat) != 3 {
		t.Fatalf("got %d samples", len(lat))
	}
	if worst := quantile(lat, 1); worst < 3*ms(delay) {
		t.Errorf("slowest latency %.1fms; want at least %.1fms (queued behind two %v requests)", worst, 3*ms(delay), delay)
	}
	if lag := quantile(p.lagsMS(), 1); lag < 2*ms(delay) {
		t.Errorf("generator lag %.1fms; want at least %.1fms", lag, 2*ms(delay))
	}
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, perfbench declares %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, perfbench %+v", i, got, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench declares %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, perfbench %+v", i, got, d)
		}
	}
}

func TestScalingUsesThePhasesFactor(t *testing.T) {
	// Two one-second slices with 100 and 300 OK requests, each taking
	// 1ms, on a host probed at factor 2: at the nominal host speed the
	// requests took 0.5ms, and the median slice rate doubles.
	p := phaseResult{elapsed: 2 * time.Second, factor: 2, windows: []window{
		{start: 0, end: int64(time.Second)},
		{start: int64(time.Second), end: int64(2 * time.Second)},
	}}
	add := func(n int, from time.Duration) {
		for i := 0; i < n; i++ {
			send := int64(from) + int64(i)*int64(time.Second)/int64(n)
			p.samples = append(p.samples, sample{status: http.StatusOK, due: send, send: send, done: send + int64(time.Millisecond)})
		}
	}
	add(100, 0)
	add(300, time.Second)
	if got := p.scaledRate(); got < 399.9 || got > 400.1 {
		t.Errorf("scaled rate %.2f/s; want 2 × the median of 100 and 300", got)
	}
	if lat := p.scaledLatenciesMS(); lat[0] != 0.5 || lat[399] != 0.5 {
		t.Errorf("scaled latencies %.3f and %.3f ms; want 0.5", lat[0], lat[399])
	}
	if got := p.rawRate(); got < 199.9 || got > 200.1 {
		t.Errorf("unscaled rate %.2f/s; want 200", got)
	}
}

func TestHostClockProbes(t *testing.T) {
	hc, err := newHostClock(sensitivity{compute: 0.5, net: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.close()
	for i := 0; i < 3; i++ {
		// The race detector slows the compute part tenfold, so only the
		// factor's sign and finiteness are checked.
		if f := hc.probe(); !(f > 0) || math.IsInf(f, 0) {
			t.Fatalf("host factor %v; want positive and finite", f)
		}
	}
	if p := hc.probes[len(hc.probes)-1]; p.computeMS <= 0 || p.netMS <= 0 {
		t.Errorf("probe parts %+v; want both timed", p)
	}
}
