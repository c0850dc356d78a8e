package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"partree/internal/obst"
	"partree/internal/tree"
)

// The checker verifies a served response against the job's expected
// answer and against the response's own internal consistency. It runs
// after timing, on every distinct (job, response bytes) pair seen.

type codingResp struct {
	N       int      `json:"n"`
	Lengths []int    `json:"lengths"`
	Codes   []string `json:"codes"`
	AvgBits float64  `json:"avg_bits"`
}

type depthsResp struct {
	Realizable bool   `json:"realizable"`
	Shape      string `json:"shape"`
	Symbols    []int  `json:"symbols"`
}

type obstResp struct {
	N       int     `json:"n"`
	Cost    float64 `json:"cost"`
	Shape   string  `json:"shape"`
	Symbols []int   `json:"symbols"`
}

type lincflResp struct {
	Accepted bool `json:"accepted"`
}

// Request bodies, decoded again for the checks that need the input.
type codingReq struct {
	Weights []float64 `json:"weights"`
}

type depthsReq struct {
	Depths []int `json:"depths"`
}

type obstReq struct {
	Keys []float64 `json:"keys"`
	Gaps []float64 `json:"gaps"`
}

// near reports whether got equals want to within 1e-9 relative.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// checkResponse returns nil when resp is a correct answer to j.
func checkResponse(j *job, resp []byte) error {
	switch j.engine {
	case engHuffman, engShannonFano:
		return checkCoding(j, resp)
	case engDepths:
		return checkDepths(j, resp)
	case engOBST:
		return checkOBST(j, resp)
	default:
		var r lincflResp
		if err := json.Unmarshal(resp, &r); err != nil {
			return fmt.Errorf("lincfl: decoding response: %v", err)
		}
		if r.Accepted != j.want.yes {
			return fmt.Errorf("lincfl: accepted=%v, want %v", r.Accepted, j.want.yes)
		}
		return nil
	}
}

func checkCoding(j *job, resp []byte) error {
	var req codingReq
	if err := json.Unmarshal(j.bodies[0], &req); err != nil {
		return fmt.Errorf("%s: decoding request: %v", j.engine, err)
	}
	var r codingResp
	if err := json.Unmarshal(resp, &r); err != nil {
		return fmt.Errorf("%s: decoding response: %v", j.engine, err)
	}
	n := len(req.Weights)
	if r.N != n || len(r.Lengths) != n || len(r.Codes) != n {
		return fmt.Errorf("%s: n=%d with %d lengths and %d codes, want %d", j.engine, r.N, len(r.Lengths), len(r.Codes), n)
	}
	sum := 0.0
	for _, w := range req.Weights {
		sum += w
	}
	avg := 0.0
	for i, c := range r.Codes {
		if len(c) != r.Lengths[i] {
			return fmt.Errorf("%s: code %d has %d bits, length says %d", j.engine, i, len(c), r.Lengths[i])
		}
		for k := 0; k < len(c); k++ {
			if c[k] != '0' && c[k] != '1' {
				return fmt.Errorf("%s: code %d is not binary: %q", j.engine, i, c)
			}
		}
		p := req.Weights[i] / sum
		if j.engine == engShannonFano && r.Lengths[i] != sfLength(p) {
			return fmt.Errorf("shannonfano: length %d for p=%v, want %d", r.Lengths[i], p, sfLength(p))
		}
		avg += p * float64(r.Lengths[i])
	}
	if !prefixFree(r.Codes) {
		return fmt.Errorf("%s: codes are not prefix-free", j.engine)
	}
	if !near(r.AvgBits, avg) {
		return fmt.Errorf("%s: avg_bits %v disagrees with its own lengths (%v)", j.engine, r.AvgBits, avg)
	}
	if !near(r.AvgBits, j.want.cost) {
		return fmt.Errorf("%s: avg_bits %v, oracle %v", j.engine, r.AvgBits, j.want.cost)
	}
	return nil
}

// prefixFree reports whether no code is a prefix of another. After a
// lexicographic sort, a prefix of any later code is a prefix of its
// immediate successor, so adjacent pairs suffice.
func prefixFree(codes []string) bool {
	s := append([]string(nil), codes...)
	sort.Strings(s)
	for i := 1; i < len(s); i++ {
		if len(s[i-1]) <= len(s[i]) && s[i][:len(s[i-1])] == s[i-1] {
			return false
		}
	}
	return true
}

func checkDepths(j *job, resp []byte) error {
	var req depthsReq
	if err := json.Unmarshal(j.bodies[0], &req); err != nil {
		return fmt.Errorf("treefromdepths: decoding request: %v", err)
	}
	var r depthsResp
	if err := json.Unmarshal(resp, &r); err != nil {
		return fmt.Errorf("treefromdepths: decoding response: %v", err)
	}
	if r.Realizable != j.want.yes {
		return fmt.Errorf("treefromdepths: realizable=%v, want %v", r.Realizable, j.want.yes)
	}
	if !r.Realizable {
		return nil
	}
	t, err := tree.Unmarshal(r.Shape, r.Symbols)
	if err != nil || t == nil {
		return fmt.Errorf("treefromdepths: bad tree: %v", err)
	}
	got := t.LeafDepths()
	if len(got) != len(req.Depths) {
		return fmt.Errorf("treefromdepths: %d leaves, want %d", len(got), len(req.Depths))
	}
	for i, d := range got {
		if d != req.Depths[i] || r.Symbols[i] != i {
			return fmt.Errorf("treefromdepths: leaf %d (symbol %d) at depth %d, want depth %d", i, r.Symbols[i], d, req.Depths[i])
		}
	}
	return nil
}

func checkOBST(j *job, resp []byte) error {
	var req obstReq
	if err := json.Unmarshal(j.bodies[0], &req); err != nil {
		return fmt.Errorf("obst: decoding request: %v", err)
	}
	var r obstResp
	if err := json.Unmarshal(resp, &r); err != nil {
		return fmt.Errorf("obst: decoding response: %v", err)
	}
	if r.N != len(req.Keys) {
		return fmt.Errorf("obst: n=%d, want %d", r.N, len(req.Keys))
	}
	if !near(r.Cost, j.want.cost) {
		return fmt.Errorf("obst: cost %v, Knuth %v", r.Cost, j.want.cost)
	}
	t, err := tree.Unmarshal(r.Shape, r.Symbols)
	if err != nil || t == nil {
		return fmt.Errorf("obst: bad tree: %v", err)
	}
	numberKeys(t)
	all := normalizedFloats(append(append([]float64(nil), req.Keys...), req.Gaps...))
	in, err := obst.NewInstance(all[:len(req.Keys)], all[len(req.Keys):])
	if err != nil {
		return fmt.Errorf("obst: %v", err)
	}
	if err := in.Check(t); err != nil {
		return fmt.Errorf("obst: %v", err)
	}
	if c := in.Cost(t); !near(c, r.Cost) {
		return fmt.Errorf("obst: tree costs %v, response says %v", c, r.Cost)
	}
	return nil
}

// numberKeys gives internal nodes their key index: a search tree's i-th
// internal node in inorder holds key i (the response does not ship them).
func numberKeys(t *tree.Node) {
	k := 0
	var walk func(v *tree.Node)
	walk = func(v *tree.Node) {
		if v == nil || v.IsLeaf() {
			return
		}
		walk(v.Left)
		v.Symbol = k
		k++
		walk(v.Right)
	}
	walk(t)
}

func normalizedFloats(vs []float64) []float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	for i := range vs {
		vs[i] /= sum
	}
	return vs
}
