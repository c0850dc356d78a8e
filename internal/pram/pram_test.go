package pram

import (
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	m := New(WithWorkers(4), WithGrain(8))
	const n = 1000
	seen := make([]int32, n)
	m.For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d executed %d times, want 1", i, c)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	m := New()
	ran := false
	m.For(0, func(int) { ran = true })
	m.For(-5, func(int) { ran = true })
	if ran {
		t.Error("body ran for non-positive n")
	}
	if c := m.Counters(); c.Steps != 0 || c.Work != 0 || c.Calls != 0 {
		t.Errorf("counters should be zero, got %+v", c)
	}
}

func TestBrentStepAccounting(t *testing.T) {
	// With p processors, a statement over n virtual processors costs ⌈n/p⌉.
	m := New(WithProcessors(10))
	m.For(25, func(int) {})
	if c := m.Counters(); c.Steps != 3 {
		t.Errorf("steps = %d, want ⌈25/10⌉ = 3", c.Steps)
	}
	m.Reset()
	m.For(10, func(int) {})
	m.For(1, func(int) {})
	c := m.Counters()
	if c.Steps != 2 {
		t.Errorf("steps = %d, want 2", c.Steps)
	}
	if c.Work != 11 {
		t.Errorf("work = %d, want 11", c.Work)
	}
	if c.Calls != 2 {
		t.Errorf("calls = %d, want 2", c.Calls)
	}
}

func TestUnboundedProcessorsOneStepPerStatement(t *testing.T) {
	m := New()
	for i := 0; i < 7; i++ {
		m.For(1_000_000, func(int) {})
	}
	if c := m.Counters(); c.Steps != 7 {
		t.Errorf("steps = %d, want 7 (one per statement)", c.Steps)
	}
}

func TestSequentialStepAccounting(t *testing.T) {
	m := New()
	m.Step(5)
	m.Step(0)
	m.Step(-3)
	if c := m.Counters(); c.Steps != 5 || c.Work != 5 {
		t.Errorf("counters = %+v, want steps=work=5", c)
	}
}

func TestNestedForPanics(t *testing.T) {
	m := New(WithWorkers(1))
	defer func() {
		if recover() == nil {
			t.Error("nested For should panic")
		}
	}()
	m.For(3, func(int) {
		m.For(2, func(int) {})
	})
}

func TestForRangeCoversAllIndices(t *testing.T) {
	m := New(WithWorkers(3), WithGrain(4))
	const n = 100
	seen := make([]int32, n)
	m.ForRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d covered %d times, want 1", i, c)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"procs":   func() { New(WithProcessors(0)) },
		"workers": func() { New(WithWorkers(0)) },
		"grain":   func() { New(WithGrain(0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for invalid option", name)
				}
			}()
			f()
		}()
	}
}

func TestModelString(t *testing.T) {
	if EREW.String() != "EREW" || CREW.String() != "CREW" || CRCWCommon.String() != "CRCW(common)" {
		t.Error("model names wrong")
	}
	if Model(99).String() == "" {
		t.Error("unknown model should still render")
	}
}

func TestMachineAccessors(t *testing.T) {
	m := New(WithModel(EREW), WithProcessors(17), WithWorkers(2))
	if m.Model() != EREW || m.Processors() != 17 || m.Workers() != 2 {
		t.Errorf("accessors returned %v/%d/%d", m.Model(), m.Processors(), m.Workers())
	}
}

func TestConcurrentForPanics(t *testing.T) {
	m := New(WithWorkers(2), WithGrain(1))
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		m.For(4, func(i int) {
			if i == 0 {
				close(started)
				<-block
			}
		})
	}()
	<-started
	func() {
		defer func() {
			if recover() == nil {
				t.Error("concurrent For from a second goroutine should panic")
			}
			close(block)
		}()
		m.For(2, func(int) {})
	}()
}

func TestNestedForRangePanics(t *testing.T) {
	m := New(WithWorkers(1))
	defer func() {
		if recover() == nil {
			t.Error("nested ForRange should panic")
		}
	}()
	m.ForRange(3, func(lo, hi int) {
		m.ForRange(2, func(lo, hi int) {})
	})
}

// TestParallelForSteadyStateAllocs: once the resident pool is warm, a
// parallel For statement allocates nothing — the element-body range
// adapter is built once per Machine, not once per statement.
func TestParallelForSteadyStateAllocs(t *testing.T) {
	m := New(WithWorkers(2), WithGrain(4))
	sink := make([]int, 64)
	body := func(i int) { sink[i] = i }
	m.For(len(sink), body) // start the resident workers
	if avg := testing.AllocsPerRun(100, func() { m.For(len(sink), body) }); avg != 0 {
		t.Fatalf("steady-state parallel For allocates %.1f per statement, want 0", avg)
	}
}
