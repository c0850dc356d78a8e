// Package faultpoint provides named fault-injection hook points for
// tests. Production code marks interesting places — a recursion level in
// a kernel, a batcher's collect loop — with Hit("name"); a test installs
// a hook with Set to stall there, panic there, or cancel a context at
// exactly that point, then tears it down with Clear or Reset.
//
// The package is registry-based rather than build-tag-based so the chaos
// and fault-injection suites run under the ordinary `go test` build: with
// no hooks installed, Hit is a single atomic load and a compare. Call
// sites that would pay to build arguments (boxing a job value, say)
// should guard with Armed():
//
//	if faultpoint.Armed() {
//		faultpoint.Hit("batch.huffman.job", job)
//	}
//
// Hooks run synchronously on whatever goroutine reached the point — a
// hook that panics, panics there. A panic on a PRAM worker goroutine is
// captured at the statement barrier and re-raised on the orchestrating
// goroutine (see internal/pram's unwind notes), so either kind of point
// unwinds through Machine.Run to the caller.
package faultpoint

import (
	"sync"
	"sync/atomic"
)

var (
	// armed is the number of installed hooks; zero keeps Hit on its
	// no-op fast path.
	armed atomic.Int32

	mu    sync.Mutex
	hooks = make(map[string]func(args ...any))
)

// Armed reports whether any hook is installed. Use it to skip argument
// construction at call sites; Hit itself re-checks.
func Armed() bool { return armed.Load() != 0 }

// Hit runs the hook installed for name, if any, passing args through.
// With no hooks installed anywhere it is a single atomic load.
func Hit(name string, args ...any) {
	if armed.Load() == 0 {
		return
	}
	mu.Lock()
	fn := hooks[name]
	mu.Unlock()
	if fn != nil {
		fn(args...)
	}
}

// Set installs fn as the hook for name, replacing any previous hook.
// A nil fn is equivalent to Clear(name).
func Set(name string, fn func(args ...any)) {
	if fn == nil {
		Clear(name)
		return
	}
	mu.Lock()
	if _, ok := hooks[name]; !ok {
		armed.Add(1)
	}
	hooks[name] = fn
	mu.Unlock()
}

// Clear removes the hook for name, if installed.
func Clear(name string) {
	mu.Lock()
	if _, ok := hooks[name]; ok {
		delete(hooks, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset removes every installed hook. Tests call it in cleanup so a
// failed test cannot leak hooks into the next one.
func Reset() {
	mu.Lock()
	for name := range hooks {
		delete(hooks, name)
	}
	armed.Store(0)
	mu.Unlock()
}
