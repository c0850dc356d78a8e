package pram

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// fakeWS is a minimal Workspace: it counts releases and returns its
// lease the way the pooled matrix types do.
type fakeWS struct {
	lease    Lease
	released int
}

func (f *fakeWS) Release() {
	f.released++
	f.lease.Return()
}

func newFake(s *Scope) *fakeWS {
	f := &fakeWS{}
	s.Track(f, &f.lease)
	return f
}

// TestWorkerPanicReraisedOnCaller: a body panic on a worker goroutine
// must not kill the process. Every body panics; the value must reach the
// calling goroutine, every time, and the resident workers must survive
// to serve the next statement and retire cleanly afterwards.
func TestWorkerPanicReraisedOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(WithWorkers(4), WithGrain(1))
	for i := 0; i < 200; i++ {
		func() {
			defer func() {
				if r := recover(); r != "body" {
					t.Fatalf("iteration %d: recovered %v, want \"body\"", i, r)
				}
			}()
			m.For(64, func(int) { panic("body") })
			t.Fatalf("iteration %d: For returned normally", i)
		}()
	}
	var sum atomic.Int64
	m.For(100, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 4950 {
		t.Fatalf("statement after panics summed %d, want 4950", sum.Load())
	}
	m.Close()
	waitForGoroutines(t, before)
}

// TestWorkerPanicStopsOtherWorkers: one panicking index halts the
// statement early instead of letting the other workers run it to the end.
func TestWorkerPanicStopsOtherWorkers(t *testing.T) {
	for _, spawn := range []bool{false, true} {
		opts := []Option{WithWorkers(4), WithGrain(1)}
		if spawn {
			opts = append(opts, WithSpawnDispatch())
		}
		m := New(opts...)
		var ran atomic.Int64
		func() {
			defer func() {
				if r := recover(); r != "first" {
					t.Fatalf("spawn=%v: recovered %v, want \"first\"", spawn, r)
				}
			}()
			m.For(1<<20, func(i int) {
				if ran.Add(1) == 10 {
					panic("first")
				}
			})
		}()
		if n := ran.Load(); n >= 1<<20 {
			t.Fatalf("spawn=%v: all %d iterations ran after a panic", spawn, n)
		}
		m.Close()
	}
}

// TestRunReleasesScopeOnWorkerPanic: a worker-side panic unwinds through
// Run, which releases the workspaces the kernel still held.
func TestRunReleasesScopeOnWorkerPanic(t *testing.T) {
	m := New(WithWorkers(4), WithGrain(1))
	defer m.Close()
	var held, freed *fakeWS
	func() {
		defer func() {
			if r := recover(); r != "worker" {
				t.Fatalf("recovered %v, want \"worker\"", r)
			}
		}()
		_ = m.Run(func() {
			held = newFake(m.Scope())
			freed = newFake(m.Scope())
			freed.Release()
			m.For(64, func(i int) {
				if i == 63 {
					panic("worker")
				}
			})
		})
	}()
	if held.released != 1 || freed.released != 1 {
		t.Fatalf("releases: held %d, freed %d; want 1 each", held.released, freed.released)
	}
	if n := len(m.scope.live); n != 0 || m.Scope() != nil {
		t.Fatalf("scope after Run: %d live entries, active=%v", n, m.Scope() != nil)
	}
}

// TestRunReleasesScopeOnAbort: the cancellation path releases the same
// way and still returns the context's error.
func TestRunReleasesScopeOnAbort(t *testing.T) {
	m := New(WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	m.SetContext(ctx)
	var ws []*fakeWS
	err := m.Run(func() {
		for i := 0; i < 5; i++ {
			ws = append(ws, newFake(m.Scope()))
		}
		ws[1].Release()
		ws[3].Release()
		cancel()
		m.For(10, func(int) {})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	for i, w := range ws {
		if w.released != 1 {
			t.Errorf("workspace %d released %d times, want 1", i, w.released)
		}
	}
}

// TestRunKeepsResultsOnNormalExit: workspaces still live when f returns
// are the caller's results; Run must neither release them nor keep
// tracking them (a later Release must not touch the scope).
func TestRunKeepsResultsOnNormalExit(t *testing.T) {
	m := New()
	var out *fakeWS
	if err := m.Run(func() { out = newFake(m.Scope()) }); err != nil {
		t.Fatal(err)
	}
	if out.released != 0 {
		t.Fatalf("result released %d times by a normal Run", out.released)
	}
	var next *fakeWS
	_ = m.Run(func() {
		next = newFake(m.Scope())
		out.Release() // detached: must not clear next's slot
		if len(m.scope.live) != 1 || m.scope.live[0].w != next {
			t.Errorf("detached release disturbed the live set: %+v", m.scope.live)
		}
		next.Release()
	})
	if m.Scope() != nil {
		t.Fatal("scope still active outside Run")
	}
}

// TestNestedRunUnwindsOnlyItsOwn: an inner Run that unwinds releases
// what it registered and leaves the outer Run's workspaces alone.
func TestNestedRunUnwindsOnlyItsOwn(t *testing.T) {
	m := New()
	var outer, inner *fakeWS
	_ = m.Run(func() {
		outer = newFake(m.Scope())
		func() {
			defer func() { _ = recover() }()
			_ = m.Run(func() {
				inner = newFake(m.Scope())
				panic("inner")
			})
		}()
		if outer.released != 0 || inner.released != 1 {
			t.Errorf("after inner unwind: outer %d, inner %d releases", outer.released, inner.released)
		}
		outer.Release()
	})
	if outer.released != 1 {
		t.Fatalf("outer released %d times, want 1", outer.released)
	}
}

// TestRunRestoresPhasesOnUnwind: phase labels pushed by frames that
// unwound without popping them are popped by Run, so a reused machine
// books its next statements under the right label.
func TestRunRestoresPhasesOnUnwind(t *testing.T) {
	m := New()
	func() {
		defer func() { _ = recover() }()
		_ = m.Run(func() {
			m.Phase("outer")
			m.Phase("inner")
			panic("bug")
		})
	}()
	m.For(4, func(int) {})
	if _, ok := m.Stats().Phases["inner"]; ok {
		t.Fatal("statement after an unwind was booked under a stale phase")
	}
}

// TestScopeSteadyStateAllocs: a reused machine tracks and returns
// workspaces without allocating.
func TestScopeSteadyStateAllocs(t *testing.T) {
	m := New()
	ws := make([]fakeWS, 8)
	run := func() {
		for i := range ws {
			ws[i] = fakeWS{}
			m.Scope().Track(&ws[i], &ws[i].lease)
		}
		for i := range ws {
			ws[i].Release()
		}
	}
	_ = m.Run(run)
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Run(run) }); allocs != 0 {
		t.Fatalf("Run with tracked workspaces allocated %.1f times per call", allocs)
	}
}
