package boolmat

import (
	"math/rand"
	"testing"

	"partree/internal/pram"
	"partree/internal/tune"
)

// TestMulParSerialCutoverMatches arms the boolmat serial cutover at a
// threshold that catches some of the trial products and leaves others
// parallel, and checks every result against the serial kernel — the two
// paths must be indistinguishable in output, and products that cut over
// must still charge a counted step.
func TestMulParSerialCutoverMatches(t *testing.T) {
	prof := tune.Defaults()
	prof.Tuned.BoolmatSerialWords = 4_000
	tune.SetActive(prof)
	defer tune.SetActive(nil)

	rng := rand.New(rand.NewSource(17))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(4))
	serialSeen, parallelSeen := false, false
	for trial := 0; trial < 25; trial++ {
		p, q, r := 1+rng.Intn(90), 1+rng.Intn(90), 1+rng.Intn(90)
		a := randMat(rng, p, q, 0.2)
		b := randMat(rng, q, r, 0.2)
		if EstMulWords(a, b) <= 4_000 {
			serialSeen = true
		} else {
			parallelSeen = true
		}
		before := m.Counters().Steps
		got := MulPar(m, a, b)
		if m.Counters().Steps == before {
			t.Fatalf("trial %d: MulPar charged no steps", trial)
		}
		if !got.Equal(Mul(nil, a, b)) {
			t.Fatalf("trial %d (%d,%d,%d): cutover product differs from serial", trial, p, q, r)
		}
	}
	if !serialSeen || !parallelSeen {
		t.Fatalf("trial mix did not exercise both paths (serial=%v parallel=%v) — retune the threshold",
			serialSeen, parallelSeen)
	}
}
