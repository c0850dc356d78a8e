package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"partree"
	"partree/internal/grammar"
	"partree/internal/huffman"
	"partree/internal/leafpattern"
	"partree/internal/lincfl"
	"partree/internal/monge"
	"partree/internal/obst"
	"partree/internal/workload"
)

// The paper-kernels workload calls the façade's parallel constructions
// directly, one per theorem, at sizes where one call takes roughly
// 5–50 ms on a 2-CPU host. Every result is checked against a serial
// oracle whose answer is computed before timing starts.

// kernelRun is one timed call's outcome.
type kernelRun struct {
	wall  time.Duration
	stats partree.Stats
	// ops is the kernel's own operation count: comparisons for
	// Theorem 4.1, 64-bit word operations for Theorem 8.1.
	ops int64
	err error // a wrong answer
}

// kernel is one theorem's construction with its prepared inputs.
type kernel struct {
	name string // thm41 … thm81
	// call runs the façade kernel on input i and checks its answer.
	call func(i int, opts partree.Options) kernelRun
	// oracle runs the serial oracle on input i.
	oracle func(i int)
	inputs int
}

const (
	concaveN  = 512
	huffmanN  = 128
	obstN     = 64
	monotoneN = 1 << 16
	lincflN   = 127
	// Distinct inputs per kernel. Call times depend a little on the input,
	// so several inputs keep the seed from moving the medians; Theorem
	// 4.1's time does not, and its brute-force check is the costliest.
	kernelInputs  = 8
	concaveInputs = 3
)

// buildKernels prepares every kernel's inputs and expected answers.
func buildKernels(seed int64) []*kernel {
	rng := subRNG(seed, streamKernels)
	return []*kernel{
		concaveKernel(rng),
		huffmanKernel(rng),
		obstKernel(rng),
		monotoneKernel(rng),
		lincflKernel(rng),
	}
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func concaveKernel(rng *rand.Rand) *kernel {
	type in struct {
		a, b [][]float64
		want [][]float64
	}
	ins := make([]in, concaveInputs)
	for i := range ins {
		a := rowsOf(monge.Random(rng, concaveN, concaveN, 100, 5))
		b := rowsOf(monge.Random(rng, concaveN, concaveN, 100, 5))
		ins[i] = in{a: a, b: b}
	}
	parallelFor(len(ins), func(i int) { ins[i].want, _ = partree.MinPlusMultiply(ins[i].a, ins[i].b) })
	return &kernel{
		name: "thm41", inputs: len(ins),
		call: func(i int, opts partree.Options) kernelRun {
			var res *partree.ConcaveMultiplyResult
			wall := timed(func() { res = partree.ConcaveMultiply(ins[i].a, ins[i].b, opts) })
			r := kernelRun{wall: wall, stats: res.Stats, ops: res.Comparisons}
			for x, row := range res.Product {
				for y, v := range row {
					if v != ins[i].want[x][y] {
						r.err = fmt.Errorf("thm41: product[%d][%d] = %v, brute force %v", x, y, v, ins[i].want[x][y])
						return r
					}
				}
			}
			return r
		},
		oracle: func(i int) { partree.MinPlusMultiply(ins[i].a, ins[i].b) },
	}
}

func rowsOf(d interface{ At(i, j int) float64 }) [][]float64 {
	out := make([][]float64, concaveN)
	for i := range out {
		out[i] = make([]float64, concaveN)
		for j := range out[i] {
			out[i][j] = d.At(i, j)
		}
	}
	return out
}

func huffmanKernel(rng *rand.Rand) *kernel {
	type in struct {
		freqs []float64
		want  float64
	}
	ins := make([]in, kernelInputs)
	for i := range ins {
		f := workload.Random(rng, huffmanN)
		s := workload.SortedAscending(f)
		ins[i] = in{freqs: f, want: huffman.BuildSorted(s).WeightedPathLength()}
	}
	return &kernel{
		name: "thm51", inputs: len(ins),
		call: func(i int, opts partree.Options) kernelRun {
			var res *partree.HuffmanParallelResult
			wall := timed(func() { res = partree.HuffmanParallel(ins[i].freqs, opts) })
			r := kernelRun{wall: wall, stats: res.Stats}
			if !near(res.Cost, ins[i].want) {
				r.err = fmt.Errorf("thm51: cost %v, two-queue oracle %v", res.Cost, ins[i].want)
				return r
			}
			r.err = checkCodeTree(res.Tree, ins[i].freqs, ins[i].want)
			return r
		},
		oracle: func(i int) { huffman.BuildSorted(workload.SortedAscending(ins[i].freqs)) },
	}
}

// checkCodeTree verifies that t has one leaf per symbol and that its
// weighted path length is the optimum.
func checkCodeTree(t *partree.Tree, freqs []float64, want float64) error {
	seen := make([]bool, len(freqs))
	cost := 0.0
	var walk func(v *partree.Tree, d int) error
	walk = func(v *partree.Tree, d int) error {
		if v.IsLeaf() {
			if v.Symbol < 0 || v.Symbol >= len(freqs) || seen[v.Symbol] {
				return fmt.Errorf("thm51: bad or repeated leaf symbol %d", v.Symbol)
			}
			seen[v.Symbol] = true
			cost += freqs[v.Symbol] * float64(d)
			return nil
		}
		if v.Left == nil || v.Right == nil {
			return fmt.Errorf("thm51: internal node with one child")
		}
		if err := walk(v.Left, d+1); err != nil {
			return err
		}
		return walk(v.Right, d+1)
	}
	if err := walk(t, 0); err != nil {
		return err
	}
	for s, ok := range seen {
		if !ok {
			return fmt.Errorf("thm51: symbol %d has no leaf", s)
		}
	}
	if !near(cost, want) {
		return fmt.Errorf("thm51: tree costs %v, optimum %v", cost, want)
	}
	return nil
}

func obstKernel(rng *rand.Rand) *kernel {
	type in struct {
		inst *partree.BSTInstance
		opt  float64
	}
	const eps = 1.0 / obstN
	ins := make([]in, kernelInputs)
	for i := range ins {
		beta := workload.Random(rng, obstN)
		alpha := workload.Random(rng, obstN+1)
		total := 0.0
		for k := range alpha {
			alpha[k] *= 0.2
		}
		for _, v := range append(append([]float64(nil), beta...), alpha...) {
			total += v
		}
		for k := range beta {
			beta[k] /= total
		}
		for k := range alpha {
			alpha[k] /= total
		}
		inst, err := partree.NewBSTInstance(beta, alpha)
		if err != nil {
			panic(err) // generator bug: probabilities are positive
		}
		opt, _ := obst.Knuth(inst)
		ins[i] = in{inst: inst, opt: opt}
	}
	return &kernel{
		name: "thm61", inputs: len(ins),
		call: func(i int, opts partree.Options) kernelRun {
			var res *partree.ApproxBSTResult
			wall := timed(func() { res = partree.ApproxBST(ins[i].inst, eps, opts) })
			r := kernelRun{wall: wall, stats: res.Stats, ops: res.Comparisons}
			switch {
			case ins[i].inst.Check(res.Tree) != nil:
				r.err = fmt.Errorf("thm61: not a search tree: %v", ins[i].inst.Check(res.Tree))
			case !near(ins[i].inst.Cost(res.Tree), res.Cost):
				r.err = fmt.Errorf("thm61: tree costs %v, result says %v", ins[i].inst.Cost(res.Tree), res.Cost)
			case res.Cost > ins[i].opt+eps+1e-9:
				r.err = fmt.Errorf("thm61: cost %v exceeds Knuth optimum %v by more than ε=%v", res.Cost, ins[i].opt, eps)
			}
			return r
		},
		oracle: func(i int) { obst.Knuth(ins[i].inst) },
	}
}

func monotoneKernel(rng *rand.Rand) *kernel {
	ins := make([][]int, kernelInputs)
	for i := range ins {
		ins[i] = workload.MonotonePattern(rng, monotoneN, 4)
	}
	return &kernel{
		name: "thm71", inputs: len(ins),
		call: func(i int, opts partree.Options) kernelRun {
			var (
				t   *partree.Tree
				st  partree.Stats
				err error
			)
			wall := timed(func() { t, st, err = partree.TreeFromMonotoneDepths(ins[i], opts) })
			r := kernelRun{wall: wall, stats: st}
			if err != nil {
				// MonotonePattern has Kraft sum exactly 1: always realizable.
				r.err = fmt.Errorf("thm71: %v", err)
				return r
			}
			got := t.LeafDepths()
			if len(got) != len(ins[i]) {
				r.err = fmt.Errorf("thm71: %d leaves, want %d", len(got), len(ins[i]))
				return r
			}
			for k, d := range got {
				if d != ins[i][k] {
					r.err = fmt.Errorf("thm71: leaf %d at depth %d, want %d", k, d, ins[i][k])
					return r
				}
			}
			return r
		},
		oracle: func(i int) { _, _ = leafpattern.Greedy(ins[i]) },
	}
}

func lincflKernel(rng *rand.Rand) *kernel {
	type in struct {
		word   []byte
		member bool
	}
	g := grammar.Palindrome()
	ins := make([]in, kernelInputs)
	for i := range ins {
		member := i%2 == 0
		w := palindromeWord(rng, lincflN, member)
		if lincfl.Sequential(g, w) != member {
			panic("perfbench: palindrome generator disagrees with the sequential oracle")
		}
		ins[i] = in{word: w, member: member}
	}
	return &kernel{
		name: "thm81", inputs: len(ins),
		call: func(i int, opts partree.Options) kernelRun {
			var res *partree.LinearRecognitionResult
			wall := timed(func() { res = partree.RecognizeLinearParallel(g, ins[i].word, opts) })
			r := kernelRun{wall: wall, stats: res.Stats, ops: res.WordOps}
			if res.Accepted != ins[i].member {
				r.err = fmt.Errorf("thm81: accepted=%v, want %v", res.Accepted, ins[i].member)
			}
			return r
		},
		oracle: func(i int) { lincfl.Sequential(g, ins[i].word) },
	}
}

// kernelSamples is what a series of rounds measured for one kernel.
type kernelSamples struct {
	walls  []float64 // ms
	scaled []float64 // ms at the nominal host speed (see hostClock)
	runs   []kernelRun
	calls  int
	wrong  int
}

// runRounds calls every kernel once per round, cycling inputs, until
// rounds rounds are done or, when dur > 0, dur has passed. With a host
// clock it probes the host's speed before the first round and after
// each round that ends sliceDur or more after the last probe, and scales
// every call's wall by the median factor of those probes. onCall, when
// non-nil, sees each call's start and end (the traced run's spans).
func runRounds(ks []*kernel, opts partree.Options, rounds int, dur time.Duration, hc *hostClock, onCall func(k int, start, end time.Time)) []kernelSamples {
	out := make([]kernelSamples, len(ks))
	start := time.Now()
	last, mark := start, 0
	if hc != nil {
		mark = len(hc.probes)
		hc.probe()
	}
	for r := 0; rounds == 0 || r < rounds; r++ {
		if dur > 0 && time.Since(start) >= dur {
			break
		}
		for k, kn := range ks {
			t0 := time.Now()
			run := kn.call(r%kn.inputs, opts)
			if onCall != nil {
				onCall(k, t0, t0.Add(run.wall))
			}
			s := &out[k]
			s.calls++
			s.walls = append(s.walls, ms(run.wall))
			s.runs = append(s.runs, run)
			if run.err != nil {
				s.wrong++
				fmt.Fprintf(os.Stderr, "perfbench: wrong kernel result: %v\n", run.err)
			}
		}
		if hc != nil && time.Since(last) >= sliceDur {
			hc.probe()
			last = time.Now()
		}
	}
	factor := 1.0
	if hc != nil {
		hc.probe()
		factor = hc.medianSince(mark, hc.sens)
	}
	for k := range out {
		for _, w := range out[k].walls {
			out[k].scaled = append(out[k].scaled, w/factor)
		}
	}
	return out
}

// workersOpts is the façade configuration of the paper-kernels calls:
// one worker per CPU.
func workersOpts() partree.Options { return partree.Options{Workers: runtime.GOMAXPROCS(0)} }

// kernelLayerMetrics measures each kernel's per-layer metrics: the
// median wall of the Workers=nproc calls in main, its Workers=1 wall, its
// serial oracle's wall, all scaled by the host clock, and the counted
// PRAM cost of the calls in main.
func kernelLayerMetrics(ks []*kernel, main []kernelSamples, reps int, hc *hostClock, m *metricSet) {
	one := runRounds(ks, partree.Options{Workers: 1}, reps, 0, hc, nil)
	factor := hc.medianSince(0, hc.sens)
	for k, kn := range ks {
		oracle := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			oracle = append(oracle, ms(timed(func() { kn.oracle(r % kn.inputs) }))/factor)
		}
		var steps, work, steals, barrier, ops []float64
		for _, run := range main[k].runs {
			steps = append(steps, float64(run.stats.Steps))
			work = append(work, float64(run.stats.Work))
			steals = append(steals, float64(run.stats.Steals))
			barrier = append(barrier, ms(run.stats.BarrierWait))
			ops = append(ops, float64(run.ops))
		}
		m.add(kn.name+".ms", median(main[k].scaled), "ms")
		m.add(kn.name+".p1_ms", median(one[k].scaled), "ms")
		m.add(kn.name+".oracle_ms", median(oracle), "ms")
		m.add(kn.name+".steps", median(steps), "count")
		m.add(kn.name+".work", median(work), "count")
		m.add(kn.name+".steals", median(steals), "count")
		m.add(kn.name+".barrier_ms", median(barrier), "ms")
		switch kn.name {
		case "thm41":
			m.add("thm41.comparisons", median(ops), "count")
		case "thm81":
			m.add("thm81.word_ops", median(ops), "count")
			// Each word operation reads or writes one 64-bit word: these
			// are bytes computed on, not bytes measured moving in memory.
			m.add("thm81.bytes_computed", 8*median(ops), "B")
		}
	}
}

// kernelSetup times a cold first call of every kernel (an empty façade
// machine pool, so machines are constructed) reps times, probing the
// host around each; the median time over the probes' median factor is
// the workload's set-up time.
func kernelSetup(ks []*kernel, reps int, hc *hostClock) float64 {
	times := make([]float64, 0, reps)
	mark := len(hc.probes)
	hc.probe()
	for r := 0; r < reps; r++ {
		partree.DrainMachinePool()
		start := time.Now()
		for _, kn := range ks {
			kn.call(0, workersOpts())
		}
		times = append(times, time.Since(start).Seconds())
		hc.probe()
	}
	return median(times) / hc.medianSince(mark, hc.sens)
}

// allScaled merges every kernel's scaled call walls.
func allScaled(s []kernelSamples) []float64 {
	var out []float64
	for k := range s {
		out = append(out, s[k].scaled...)
	}
	sort.Float64s(out)
	return out
}
