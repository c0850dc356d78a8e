package partree

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"partree/internal/faultpoint"
	"partree/internal/obst"
	"partree/internal/pool"
	"partree/internal/pram"
)

// --- fault-injection helpers ---

// cancelAt installs a hook at the named fault point that cancels the
// returned context on its nth hit (1-based). Hooks and the context are
// torn down with the test.
func cancelAt(t *testing.T, point string, nth int) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var hits atomic.Int64
	faultpoint.Set(point, func(...any) {
		if hits.Add(1) == int64(nth) {
			cancel()
		}
	})
	t.Cleanup(func() {
		faultpoint.Reset()
		cancel()
	})
	return ctx
}

// faultArm is one way an injected fault unwinds a call: the hook at
// point cancels the call's context on its nth hit (1-based), or panics
// there the way an engine bug would. Both must leave the pool ledger
// balanced. A panic arm is only a real test where pooled workspaces are
// live at its site: early recursion points fire before anything is
// allocated, so some panic arms sit later than their cancel twins (a
// cancel arm aborts at the next checkpoint, after the point).
type faultArm struct {
	name  string
	point string
	nth   int
}

// bothArms returns the cancel and panic arms at one site.
func bothArms(point string, nth int) []faultArm {
	return []faultArm{{"cancel", point, nth}, {"panic", point, nth}}
}

// injectedFault is the value the panic arm's hook panics with.
const injectedFault = "injected fault"

// errPanicked stands in for the error of a call that unwound with the
// injected panic (see faulted).
var errPanicked = errors.New("call panicked with the injected fault")

// injectAt installs arm's hook and returns the context to pass to the
// call.
func injectAt(t *testing.T, arm faultArm) context.Context {
	t.Helper()
	if arm.name == "cancel" {
		return cancelAt(t, arm.point, arm.nth)
	}
	var hits atomic.Int64
	faultpoint.Set(arm.point, func(...any) {
		if hits.Add(1) == int64(arm.nth) {
			panic(injectedFault)
		}
	})
	t.Cleanup(faultpoint.Reset)
	return context.Background()
}

// faulted runs call, turning the injected panic, once it has reached
// this goroutine, into errPanicked. Any other panic propagates.
func faulted(call func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != injectedFault {
				panic(r)
			}
			err = errPanicked
		}
	}()
	return call()
}

// checkAborted asserts the fault-injected call unwound the way its arm
// says — context.Canceled, or the injected panic reaching the caller —
// and handed every pooled slab back to the arena: the arena's get/put
// deltas across the call must match exactly.
func checkAborted(t *testing.T, arm faultArm, before pool.Stats, err error) {
	t.Helper()
	want := context.Canceled
	if arm.name == "panic" {
		want = errPanicked
	}
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	after := pool.Snapshot()
	if dg, dp := after.Gets-before.Gets, after.Puts-before.Puts; dg != dp {
		t.Errorf("pool ledger unbalanced after abort: %d gets vs %d puts", dg, dp)
	}
}

// checkGoroutines polls until the goroutine count returns to (near) the
// baseline, failing if workers leaked past the abort.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d, baseline %d — workers leaked after abort", runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func sortedWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i + 1)
	}
	return w
}

// concaveMat is the Monge matrix M[i][j] = -i·j (quadrangle condition
// holds with equality slack i(l-j) ≤ k(l-j)).
func concaveMat(r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = -float64(i * j)
		}
	}
	return m
}

// --- per-kernel-family fault injection ---

func TestFaultInjectionHuffmanParallel(t *testing.T) {
	for _, tc := range []struct {
		point    string
		panicNth int
	}{
		{"hufpar.height.level", 2},
		{"hufpar.spine.level", 2},
		// Every hit of one product precedes its first cut table; the
		// 12th lands in a later product, with earlier tables live.
		{"monge.cutpar.level", 12},
	} {
		t.Run(tc.point, func(t *testing.T) {
			for _, arm := range []faultArm{{"cancel", tc.point, 2}, {"panic", tc.point, tc.panicNth}} {
				t.Run(arm.name, func(t *testing.T) {
					base := runtime.NumGoroutine()
					ctx := injectAt(t, arm)
					before := pool.Snapshot()
					var res *HuffmanParallelResult
					err := faulted(func() (err error) {
						res, err = HuffmanParallelContext(ctx, sortedWeights(64))
						return err
					})
					if res != nil {
						t.Errorf("result %v on aborted call, want nil", res)
					}
					checkAborted(t, arm, before, err)
					checkGoroutines(t, base)
				})
			}
		})
	}
}

func TestFaultInjectionHuffmanHeightLimited(t *testing.T) {
	for _, arm := range bothArms("hufpar.height.level", 3) {
		t.Run(arm.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := injectAt(t, arm)
			before := pool.Snapshot()
			var tr *Tree
			err := faulted(func() (err error) {
				tr, _, err = HuffmanHeightLimitedContext(ctx, sortedWeights(48), 10)
				return err
			})
			if tr != nil {
				t.Errorf("tree %v on aborted call, want nil", tr)
			}
			checkAborted(t, arm, before, err)
			checkGoroutines(t, base)
		})
	}
}

func TestFaultInjectionApproxBST(t *testing.T) {
	n := 40
	keys := make([]float64, n)
	gaps := make([]float64, n+1)
	for i := range keys {
		keys[i] = 1 / float64(2*n+1)
	}
	for i := range gaps {
		gaps[i] = 1 / float64(2*n+1)
	}
	in, err := NewBSTInstance(keys, gaps)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range bothArms("obst.approx.level", 2) {
		t.Run(arm.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := injectAt(t, arm)
			before := pool.Snapshot()
			var res *ApproxBSTResult
			err := faulted(func() (err error) {
				res, err = ApproxBSTContext(ctx, in, 0.01)
				return err
			})
			if res != nil {
				t.Errorf("result %v on aborted call, want nil", res)
			}
			checkAborted(t, arm, before, err)
			checkGoroutines(t, base)
		})
	}
}

// TestFaultInjectionOBSTHeightBounded drives the internal height-bounded
// kernel directly (it has no façade) through the machine's Run/SetContext
// seam.
func TestFaultInjectionOBSTHeightBounded(t *testing.T) {
	n := 24
	keys := make([]float64, n)
	gaps := make([]float64, n+1)
	for i := range keys {
		keys[i] = 1 / float64(2*n+1)
	}
	for i := range gaps {
		gaps[i] = 1 / float64(2*n+1)
	}
	in, err := obst.NewInstance(keys, gaps)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range bothArms("obst.height.level", 2) {
		t.Run(arm.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := injectAt(t, arm)
			before := pool.Snapshot()
			m := pram.New()
			m.SetContext(ctx)
			runErr := faulted(func() error {
				return m.Run(func() {
					_, _, _ = obst.HeightBounded(m, in, 8)
				})
			})
			checkAborted(t, arm, before, runErr)
			checkGoroutines(t, base)
		})
	}
}

func TestFaultInjectionConcaveMultiply(t *testing.T) {
	a := concaveMat(48, 48)
	if !IsConcave(a) {
		t.Fatal("test matrix is not concave")
	}
	// The panic arm fires between the cut table and the value product,
	// where the cut table is live.
	for _, arm := range []faultArm{{"cancel", "monge.cutpar.level", 1}, {"panic", "monge.mulpar.value", 1}} {
		t.Run(arm.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := injectAt(t, arm)
			before := pool.Snapshot()
			var res *ConcaveMultiplyResult
			err := faulted(func() (err error) {
				res, err = ConcaveMultiplyContext(ctx, a, a)
				return err
			})
			if res != nil {
				t.Errorf("result on aborted call, want nil")
			}
			checkAborted(t, arm, before, err)
			checkGoroutines(t, base)
		})
	}
}

func TestFaultInjectionRecognizeLinear(t *testing.T) {
	g := PalindromeGrammar()
	word := make([]byte, 65)
	for i := range word {
		word[i] = 'a'
	}
	word[32] = 'c'
	for i := 0; i < 32; i++ {
		word[64-i] = word[i]
	}
	for _, tc := range []struct {
		point    string
		nth      int
		panicNth int
	}{
		// The first hits walk the left spine before any region matrix
		// exists; the 40th lands with many of them live.
		{"lincfl.tri", 4, 40},
		{"boolmat.mulpar", 3, 3},
	} {
		t.Run(tc.point, func(t *testing.T) {
			for _, arm := range []faultArm{{"cancel", tc.point, tc.nth}, {"panic", tc.point, tc.panicNth}} {
				t.Run(arm.name, func(t *testing.T) {
					base := runtime.NumGoroutine()
					ctx := injectAt(t, arm)
					before := pool.Snapshot()
					var res *LinearRecognitionResult
					err := faulted(func() (err error) {
						res, err = RecognizeLinearParallelContext(ctx, g, word)
						return err
					})
					if res != nil {
						t.Errorf("result on aborted call, want nil")
					}
					checkAborted(t, arm, before, err)
					checkGoroutines(t, base)
				})
			}
		})
	}
}

// TestFaultInjectionDeriveLinear aborts inside the derivation pass, whose
// per-region reach caches deliberately outlive the recursion — the abort
// path must hand all of them back to the arena.
func TestFaultInjectionDeriveLinear(t *testing.T) {
	g := PalindromeGrammar()
	word := []byte("aabacabaabacabaabacabaabacabaaczaabacabaabacaba"[:33])
	word[16] = 'c'
	// As in TestFaultInjectionRecognizeLinear, the panic arm fires once
	// the caches hold matrices.
	for _, arm := range []faultArm{{"cancel", "lincfl.tri", 6}, {"panic", "lincfl.tri", 40}} {
		t.Run(arm.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := injectAt(t, arm)
			before := pool.Snapshot()
			var ok bool
			err := faulted(func() (err error) {
				_, ok, err = DeriveLinearParallelContext(ctx, g, word)
				return err
			})
			if ok {
				t.Errorf("ok on aborted call, want false")
			}
			checkAborted(t, arm, before, err)
			checkGoroutines(t, base)
		})
	}
}

func TestFaultInjectionShannonFano(t *testing.T) {
	probs := make([]float64, 64)
	for i := range probs {
		probs[i] = 1.0 / 64
	}
	for _, arm := range bothArms("shannonfano.build", 1) {
		t.Run(arm.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := injectAt(t, arm)
			before := pool.Snapshot()
			var res *ShannonFanoResult
			err := faulted(func() (err error) {
				res, err = ShannonFanoContext(ctx, probs)
				return err
			})
			if res != nil {
				t.Errorf("result on aborted call, want nil")
			}
			checkAborted(t, arm, before, err)
			checkGoroutines(t, base)
		})
	}
}

func TestFaultInjectionTreeFromMonotoneDepths(t *testing.T) {
	depths := make([]int, 64)
	for i := range depths {
		depths[i] = 6
	}
	for _, arm := range bothArms("leafpattern.monotone", 1) {
		t.Run(arm.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := injectAt(t, arm)
			before := pool.Snapshot()
			var tr *Tree
			err := faulted(func() (err error) {
				tr, _, err = TreeFromMonotoneDepthsContext(ctx, depths)
				return err
			})
			if tr != nil {
				t.Errorf("tree on aborted call, want nil")
			}
			checkAborted(t, arm, before, err)
			checkGoroutines(t, base)
		})
	}
}

// TestFaultInjectionBatch faults mid-batch at a per-job fault point.
// Grain 1 makes every job boundary a checkpoint, so the statement aborts
// instead of completing with silently partial results. The per-job point
// runs inside the statement body, so the panic arm raises on whichever
// worker goroutine holds the job and must still reach the caller.
func TestFaultInjectionBatch(t *testing.T) {
	jobs := make([][]float64, 16)
	for i := range jobs {
		jobs[i] = []float64{1, 2, 3, float64(i + 1)}
	}
	for _, arm := range bothArms("batch.huffman.job", 3) {
		t.Run(arm.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := injectAt(t, arm)
			before := pool.Snapshot()
			var out []HuffmanBatchResult
			err := faulted(func() (err error) {
				out, _, err = HuffmanBatchContext(ctx, jobs, Options{Workers: 2, Grain: 1})
				return err
			})
			if out != nil {
				t.Errorf("results on aborted batch, want nil")
			}
			checkAborted(t, arm, before, err)
			checkGoroutines(t, base)
		})
	}
}

// TestWorkerPanicReachesFacadeCaller: a job that panics inside a batch
// statement — here a nil grammar, every 97th job — panics on a worker
// goroutine. The panic must reach the façade caller, every time, and the
// pooled machine must keep working.
func TestWorkerPanicReachesFacadeCaller(t *testing.T) {
	g := PalindromeGrammar()
	jobs := make([]LinCFLBatchJob, 4096)
	for i := range jobs {
		jobs[i] = LinCFLBatchJob{Grammar: g, Word: []byte("abcba")}
		if i%97 == 0 {
			jobs[i].Grammar = nil
		}
	}
	opts := Options{Workers: 4, Grain: 1}
	for run := 0; run < 3; run++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("run %d: nil-grammar job did not panic", run)
				}
			}()
			RecognizeLinearBatch(jobs, opts)
		}()
	}
	out, _ := RecognizeLinearBatch(jobs[1:97], opts)
	for i, ok := range out {
		if !ok {
			t.Fatalf("job %d rejected after the panicking batches", i+1)
		}
	}
}

// TestCancelBatchDefaultGrainStillAborts pins the serial-path fix: even
// when the whole batch fits one grain chunk (default grain, no worker
// fan-out), a cancellation during the statement must surface as an error,
// not as a silently truncated result set.
func TestCancelBatchDefaultGrainStillAborts(t *testing.T) {
	jobs := make([][]float64, 8)
	for i := range jobs {
		jobs[i] = []float64{1, 2, 3}
	}
	ctx := cancelAt(t, "batch.shannonfano.job", 2)
	probs := make([][]float64, len(jobs))
	for i := range probs {
		probs[i] = []float64{0.25, 0.25, 0.5}
	}
	out, _, err := ShannonFanoBatchContext(ctx, probs)
	if err == nil {
		t.Fatalf("batch completed (out=%v), want abort", out)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// --- context-variant contract tests ---

// TestCancelPreCanceledFacadeCalls: an already-dead context aborts before
// any parallel work on every Context entry point.
func TestCancelPreCanceledFacadeCalls(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := sortedWeights(16)
	probs := make([]float64, 16)
	for i := range probs {
		probs[i] = 1.0 / 16
	}
	depths := []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}
	g := PalindromeGrammar()
	keys := []float64{0.2, 0.2}
	gaps := []float64{0.2, 0.2, 0.2}
	in, _ := NewBSTInstance(keys, gaps)

	calls := map[string]func() error{
		"HuffmanParallelContext": func() error { _, err := HuffmanParallelContext(ctx, w); return err },
		"HuffmanRakeCompressCostContext": func() error {
			_, _, err := HuffmanRakeCompressCostContext(ctx, w)
			return err
		},
		"HuffmanHeightLimitedContext": func() error { _, _, err := HuffmanHeightLimitedContext(ctx, w, 8); return err },
		"ShannonFanoContext":          func() error { _, err := ShannonFanoContext(ctx, probs); return err },
		"ApproxBSTContext":            func() error { _, err := ApproxBSTContext(ctx, in, 0.05); return err },
		"RecognizeLinearParallelContext": func() error {
			_, err := RecognizeLinearParallelContext(ctx, g, []byte("aca"))
			return err
		},
		"DeriveLinearParallelContext": func() error { _, _, err := DeriveLinearParallelContext(ctx, g, []byte("aca")); return err },
		"TreeFromMonotoneDepthsContext": func() error {
			_, _, err := TreeFromMonotoneDepthsContext(ctx, depths)
			return err
		},
		"ConcaveMultiplyContext": func() error { _, err := ConcaveMultiplyContext(ctx, concaveMat(8, 8), concaveMat(8, 8)); return err },
		"HuffmanBatchContext":    func() error { _, _, err := HuffmanBatchContext(ctx, [][]float64{w}); return err },
		"ShannonFanoBatchContext": func() error {
			_, _, err := ShannonFanoBatchContext(ctx, [][]float64{probs})
			return err
		},
		"TreeFromDepthsBatchContext": func() error { _, _, err := TreeFromDepthsBatchContext(ctx, [][]int{depths}); return err },
		"OptimalBSTBatchContext":     func() error { _, _, err := OptimalBSTBatchContext(ctx, []*BSTInstance{in}); return err },
		"RecognizeLinearBatchContext": func() error {
			_, _, err := RecognizeLinearBatchContext(ctx, []LinCFLBatchJob{{Grammar: g, Word: []byte("aca")}})
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestCancelDeadlineExceededSurfaces: a deadline (as opposed to explicit
// cancellation) surfaces as DeadlineExceeded through the same machinery.
func TestCancelDeadlineExceededSurfaces(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := HuffmanParallelContext(ctx, sortedWeights(32))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelBackgroundContextMatchesPlainVariant: an uncancelable context
// costs nothing and the Context variants return the same answers as their
// plain counterparts.
func TestCancelBackgroundContextMatchesPlainVariant(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	w := make([]float64, 33)
	for i := range w {
		w[i] = 1 + rng.Float64()*99
	}

	got, err := HuffmanParallelContext(ctx, w)
	if err != nil {
		t.Fatalf("HuffmanParallelContext: %v", err)
	}
	want := HuffmanParallel(w)
	if got.Cost != want.Cost {
		t.Errorf("cost %v != plain %v", got.Cost, want.Cost)
	}

	a := concaveMat(17, 17)
	gotM, err := ConcaveMultiplyContext(ctx, a, a)
	if err != nil {
		t.Fatalf("ConcaveMultiplyContext: %v", err)
	}
	wantP, _ := MinPlusMultiply(a, a)
	for i := range wantP {
		for j := range wantP[i] {
			if gotM.Product[i][j] != wantP[i][j] {
				t.Fatalf("product[%d][%d] = %v, want %v", i, j, gotM.Product[i][j], wantP[i][j])
			}
		}
	}

	jobs := [][]float64{{3, 1, 4, 1, 5}, {9, 2, 6}, {5, 3, 5}}
	gotB, _, err := HuffmanBatchContext(ctx, jobs)
	if err != nil {
		t.Fatalf("HuffmanBatchContext: %v", err)
	}
	wantB, _ := HuffmanBatch(jobs)
	for i := range jobs {
		if gotB[i].Cost != wantB[i].Cost {
			t.Errorf("job %d cost %v != plain %v", i, gotB[i].Cost, wantB[i].Cost)
		}
	}
}

// TestCancelForeignPanicPassesThrough: Run converts only cancellation
// aborts; an engine bug (a genuine panic) still crashes the test loudly.
func TestCancelForeignPanicPassesThrough(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed by Run")
		}
	}()
	m := pram.New()
	m.SetContext(context.Background())
	_ = m.Run(func() { panic("engine bug") })
}
