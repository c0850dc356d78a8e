package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"partree/internal/huffman"
	"partree/internal/obst"
	"partree/internal/workload"
)

// engine indexes the five partreed endpoints.
type engineID uint8

const (
	engHuffman engineID = iota
	engShannonFano
	engDepths
	engOBST
	engLinCFL
	numEngines
)

var engineNames = [numEngines]string{"huffman", "shannonfano", "treefromdepths", "obst", "lincfl"}

var enginePaths = [numEngines]string{"/v1/huffman", "/v1/shannonfano", "/v1/treefromdepths", "/v1/obst", "/v1/lincfl/recognize"}

func (e engineID) String() string { return engineNames[e] }
func (e engineID) path() string   { return enginePaths[e] }

// numSpellings is how many JSON spellings every job has. All spellings of
// one job canonicalize to the same serve.CanonicalKey, but their raw bytes
// differ, so the raw-body fast path sees them as distinct requests.
const numSpellings = 4

// job is one request the benchmark can send. Its input is kept only as
// the rendered bodies; the checker and the replays decode them again
// after timing, so the pools stay small.
type job struct {
	engine engineID
	bodies [][]byte
	want   want
}

// want is the answer a job must get, fixed before any timing starts:
// by construction for depths and lincfl, by a serial oracle for the
// coding engines and OBST.
type want struct {
	// cost is the Huffman optimum (two-queue oracle), the Shannon–Fano
	// average length, or the Knuth OBST optimum, all on the normalized
	// input the server solves.
	cost float64
	// yes is "realizable" for treefromdepths and "accepted" for lincfl.
	yes bool
}

// input is a generated job before rendering.
type input struct {
	engine  engineID
	ints    []int // coding weights, depths, or OBST keys followed by gaps
	nKeys   int   // OBST: the first nKeys entries of ints are key weights
	grammar string
	word    []byte
	truth   bool // depths realizable / word in the language, by construction
	// only, when ≥ 0, renders that one spelling instead of all of them.
	only int
}

// sizeRange is the per-engine input size range of both serving workloads.
var sizeRange = [numEngines][2]int{
	engHuffman:     {64, 256},
	engShannonFano: {64, 256},
	engDepths:      {256, 1024},
	engOBST:        {32, 96},
	engLinCFL:      {64, 192},
}

// genInput draws one input for engine e at size n.
func genInput(rng *rand.Rand, e engineID, n int) input {
	in := input{engine: e, only: -1}
	switch e {
	case engHuffman, engShannonFano:
		in.ints = make([]int, n)
		for i := range in.ints {
			in.ints[i] = 1 + rng.Intn(9999)
		}
	case engDepths:
		in.ints = workload.TreePattern(rng, n)
		in.truth = true
		if rng.Intn(4) == 0 {
			// Lifting one leaf of a full tree pushes the Kraft sum above 1,
			// so no ordered tree realizes the pattern.
			in.ints[rng.Intn(n)]--
			in.truth = false
		}
	case engOBST:
		in.nKeys = n
		in.ints = make([]int, 2*n+1)
		for i := 0; i < n; i++ {
			in.ints[i] = 1 + rng.Intn(999)
		}
		for i := n; i < len(in.ints); i++ {
			in.ints[i] = rng.Intn(200)
		}
	case engLinCFL:
		in.truth = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			in.grammar, in.word = "palindrome", palindromeWord(rng, n, in.truth)
		} else {
			in.grammar, in.word = "equalends", equalEndsWord(rng, n, in.truth)
		}
	}
	return in
}

// palindromeWord returns an odd-length word over {a,b} with centre c: a
// palindrome when member, otherwise one mirrored pair is broken.
func palindromeWord(rng *rand.Rand, n int, member bool) []byte {
	if n%2 == 0 {
		n--
	}
	half := n / 2
	w := make([]byte, n)
	for i := 0; i < half; i++ {
		w[i] = "ab"[rng.Intn(2)]
		w[n-1-i] = w[i]
	}
	w[half] = 'c'
	if !member {
		i := rng.Intn(half)
		w[i] = 'a' + 'b' - w[i]
	}
	return w
}

// equalEndsWord returns aᵏ cᵐ bʲ of length n with j = k for members and
// j = k+1 otherwise.
func equalEndsWord(rng *rand.Rand, n int, member bool) []byte {
	extra := 0
	if !member {
		extra = 1
	}
	k := 1 + rng.Intn((n-1-extra)/2)
	m := n - 2*k - extra
	w := make([]byte, 0, n)
	for i := 0; i < k; i++ {
		w = append(w, 'a')
	}
	for i := 0; i < m; i++ {
		w = append(w, 'c')
	}
	for i := 0; i < k+extra; i++ {
		w = append(w, 'b')
	}
	return w
}

// render writes spelling s of the input's JSON body. Spellings differ in
// number format ("5" vs "5.0"), power-of-two scaling, field order and
// whitespace — every one of which the server's canonicalization removes.
func (in *input) render(s int) []byte {
	b := make([]byte, 0, 16+6*len(in.ints)+len(in.word))
	switch in.engine {
	case engHuffman, engShannonFano:
		switch s {
		case 0:
			b = appendInts(append(b, `{"weights":`...), in.ints, 1, "", ",")
		case 1:
			b = appendInts(append(b, `{"weights":`...), in.ints, 1, ".0", ",")
		case 2:
			b = appendInts(append(b, `{"weights":`...), in.ints, 2, "", ",")
		default:
			b = appendInts(append(b, `{ "weights": `...), in.ints, 1, "", ", ")
			b = append(b, ' ')
		}
		return append(b, '}')
	case engDepths:
		switch s {
		case 0:
			b = appendInts(append(b, `{"depths":`...), in.ints, 1, "", ",")
		case 1:
			b = appendInts(append(b, `{ "depths": `...), in.ints, 1, "", ", ")
		case 2:
			b = appendInts(append(b, `{"depths" : `...), in.ints, 1, "", " ,")
		default:
			b = appendInts(append(b, "{\n\t\"depths\":"...), in.ints, 1, "", ",\n")
			b = append(b, '\n')
		}
		return append(b, '}')
	case engOBST:
		keys, gaps := in.ints[:in.nKeys], in.ints[in.nKeys:]
		scale, suffix := 1, ""
		keysFirst := s%2 == 0
		switch s {
		case 2:
			scale = 2
		case 3:
			suffix = ".0"
		}
		b = append(b, '{')
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				b = append(b, ',')
			}
			if (pass == 0) == keysFirst {
				b = appendInts(append(b, `"keys":`...), keys, scale, suffix, ",")
			} else {
				b = appendInts(append(b, `"gaps":`...), gaps, scale, suffix, ",")
			}
		}
		return append(b, '}')
	default: // engLinCFL
		g := strconv.Quote(in.grammar)
		w := strconv.Quote(string(in.word))
		switch s {
		case 0:
			return append(b, `{"grammar":`+g+`,"word":`+w+`}`...)
		case 1:
			return append(b, `{"word":`+w+`,"grammar":`+g+`}`...)
		case 2:
			return append(b, `{ "grammar": `+g+`, "word": `+w+` }`...)
		default:
			return append(b, `{"word" : `+w+` , "grammar" : `+g+`}`...)
		}
	}
}

func appendInts(b []byte, vs []int, scale int, suffix, sep string) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, sep...)
		}
		b = strconv.AppendInt(b, int64(v*scale), 10)
		b = append(b, suffix...)
	}
	return append(b, ']')
}

// normalized returns ws scaled to unit sum exactly as the server scales
// them (one left-to-right sum, then a division per entry).
func normalized(ws []int) []float64 {
	sum := 0.0
	for _, w := range ws {
		sum += float64(w)
	}
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = float64(w) / sum
	}
	return out
}

// expected computes the input's answer with the serial oracles. It is
// independent of the served engines where an independent oracle exists:
// the two-queue Huffman build (the service runs the heap build), the
// Shannon–Fano length definition, and construction truth for depths and
// lincfl. OBST uses Knuth's DP, the only exact oracle.
func (in *input) expected() want {
	switch in.engine {
	case engHuffman:
		p := normalized(in.ints)
		sort.Float64s(p)
		return want{cost: huffman.BuildSorted(p).WeightedPathLength()}
	case engShannonFano:
		p := normalized(in.ints)
		avg := 0.0
		for _, v := range p {
			avg += v * float64(sfLength(v))
		}
		return want{cost: avg}
	case engOBST:
		all := normalized(in.ints)
		inst, err := obst.NewInstance(all[:in.nKeys], all[in.nKeys:])
		if err != nil {
			panic(err) // generator bug: weights are non-negative with n ≥ 32
		}
		cost, _ := obst.Knuth(inst)
		return want{cost: cost}
	default:
		return want{yes: in.truth}
	}
}

// sfLength is the Shannon–Fano length of probability p: the smallest
// l ≥ 0 with 2^-l ≤ p.
func sfLength(p float64) int {
	l := 0
	for math.Ldexp(1, -l) > p {
		l++
	}
	return l
}

// makeJob renders the input's spellings and computes its expected
// answer.
func makeJob(in input) job {
	j := job{engine: in.engine, want: in.expected()}
	if in.only >= 0 {
		j.bodies = [][]byte{in.render(in.only)}
		return j
	}
	for s := 0; s < numSpellings; s++ {
		j.bodies = append(j.bodies, in.render(s))
	}
	return j
}

// bodyHash is the 64-bit FNV-1a hash the tracer uses to join client,
// gateway and backend spans of one request.
func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash writes never fail
	return h.Sum64()
}

// subRNG returns an independent deterministic stream for one purpose of
// one seed, so resizing one pool never shifts another.
func subRNG(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose*7919))
}

// Stream purposes for subRNG.
const (
	streamUnique int64 = iota + 1
	streamWarm
	streamZipfJobs
	streamZipfDraws
	streamFresh
	streamArrivals
	streamKernels
)

// uniquePool draws n jobs with uniformly mixed engines, random sizes and
// one randomly chosen spelling each. Inputs are distinct (checked), so
// every request misses both caches.
func uniquePool(seed, purpose int64, n int) []job {
	rng := subRNG(seed, purpose)
	ins := make([]input, 0, n)
	seen := make(map[uint64]bool, n)
	for len(ins) < n {
		e := engineID(rng.Intn(int(numEngines)))
		lo, hi := sizeRange[e][0], sizeRange[e][1]
		in := genInput(rng, e, lo+rng.Intn(hi-lo+1))
		in.only = rng.Intn(numSpellings)
		h := bodyHash(in.render(0))
		if seen[h] {
			continue
		}
		seen[h] = true
		ins = append(ins, in)
	}
	return buildJobs(ins)
}

// zipfJobs draws the k-job hot set of gateway-zipf. Job r's engine and
// size depend only on its rank r (a golden-ratio sequence spreads sizes
// evenly), so the hottest jobs have the same shape under every seed and
// the seed only changes their values.
func zipfJobs(seed int64, k int) []job {
	rng := subRNG(seed, streamZipfJobs)
	ins := make([]input, k)
	for r := range ins {
		e := engineID(r % int(numEngines))
		lo, hi := sizeRange[e][0], sizeRange[e][1]
		frac := math.Mod(float64(r/int(numEngines)+1)*0.6180339887498949, 1)
		ins[r] = genInput(rng, e, lo+int(frac*float64(hi-lo)))
	}
	return buildJobs(ins)
}

// buildJobs renders and solves inputs on every CPU; the work happens
// before timing starts.
func buildJobs(ins []input) []job {
	jobs := make([]job, len(ins))
	parallelFor(len(ins), func(i int) { jobs[i] = makeJob(ins[i]) })
	return jobs
}
