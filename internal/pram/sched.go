package pram

import (
	"sync"
	"sync/atomic"
	"time"
)

// The execution engine behind Machine.For: a work-stealing scheduler.
//
// Each parallel statement's index space [0, n) is partitioned evenly into
// one contiguous range per executing worker, held in a per-worker deque.
// A worker pops grain-sized chunks from the bottom (low end) of its own
// range; when its range is empty it steals the top half of a victim's
// remaining range and installs it as its own (chunk stealing, in the
// style of lazy binary splitting). Stealing moves whole half-ranges, so
// the total number of steals per statement is O(w log(n/g)) and the mutex
// on each deque is uncontended in the common case.
//
// A thief executes the first grain of a stolen range immediately and
// parks only the remainder in its own deque. That ordering is what makes
// the scheduler livelock-free: every successful steal executes at least
// one index before the thief steals again, so steals per statement are
// bounded by the element count. (Install-then-pop, the obvious ordering,
// lets another thief snatch the range back through the window between
// install and pop — on a contended host two workers can phase-lock into
// stealing a single index back and forth indefinitely.)
//
// A worker exits after one full scan of all deques finds nothing to
// steal. The chunk a thief is currently executing is invisible to that
// scan, so a worker can exit while work remains in flight — that only
// reduces parallelism at the statement's tail, never correctness,
// because the holder always executes what it stole. The statement
// barrier is the WaitGroup around the worker calls: For returns only
// after every range has been executed exactly once.
//
// Worker goroutines are normally resident (see wpool.go): parked between
// statements and woken per statement, so steady-state dispatch spawns
// nothing. runSpawn below is the legacy spawn-per-statement dispatcher,
// kept selectable (WithSpawnDispatch) as the measurable pre-resident
// baseline for the E14 dispatch-overhead experiment.

// spawnedWorkers counts every worker goroutine launched by either
// dispatcher, process-wide. Monotone between resets; read it twice and
// subtract to measure goroutines spawned by a window of statements (the
// resident pool's steady state must show a delta of zero).
var spawnedWorkers atomic.Int64

// SpawnedWorkers returns the total number of PRAM worker goroutines
// launched in this process since start (or the last ResetSpawnedWorkers).
func SpawnedWorkers() int64 { return spawnedWorkers.Load() }

// ResetSpawnedWorkers zeroes the process-wide spawn counter. Experiments
// that share one process (E14, E15) call it between runs so one
// experiment's warm-up spawns never leak into another's steady-state
// window; production code has no reason to call it.
func ResetSpawnedWorkers() { spawnedWorkers.Store(0) }

// wdeque is one worker's deque: a contiguous sub-range [lo, hi) of the
// statement's index space. Bottom (lo side) is popped by the owner; the
// top half is removed by thieves. Deques live in one contiguous slice,
// so each is padded out to two cache lines: without the padding every
// owner pop dirties its neighbours' lines and the per-chunk mutex
// traffic ping-pongs between cores even when no stealing happens.
type wdeque struct {
	mu     sync.Mutex
	lo, hi int
	_      [128 - 24]byte
}

// pop removes up to g indices from the bottom of the range.
func (d *wdeque) pop(g int) (lo, hi int, ok bool) {
	d.mu.Lock()
	if d.lo >= d.hi {
		d.mu.Unlock()
		return 0, 0, false
	}
	lo = d.lo
	hi = lo + g
	if hi > d.hi {
		hi = d.hi
	}
	d.lo = hi
	d.mu.Unlock()
	return lo, hi, true
}

// steal removes the top half of the remaining range (all of it when only
// one index remains).
func (d *wdeque) steal() (lo, hi int, ok bool) {
	d.mu.Lock()
	n := d.hi - d.lo
	if n <= 0 {
		d.mu.Unlock()
		return 0, 0, false
	}
	mid := d.lo + n/2 // n == 1 → mid == lo: the thief takes the lone index
	lo, hi = mid, d.hi
	d.hi = mid
	d.mu.Unlock()
	return lo, hi, true
}

// install replaces the worker's (empty) range with a stolen one.
func (d *wdeque) install(lo, hi int) {
	d.mu.Lock()
	d.lo, d.hi = lo, hi
	d.mu.Unlock()
}

// workerStats is one worker's contribution to a statement's observability
// counters, written only by that worker during the statement and
// aggregated by the caller at the barrier — the workers themselves never
// touch a shared counter mid-statement. Entries are adjacent in one
// slice, so each is padded out to two cache lines; workers update busy
// and elems on every chunk, and unpadded entries would false-share those
// writes across all cores.
type workerStats struct {
	busy      time.Duration // time spent executing body chunks
	finish    time.Duration // time from statement start until the worker exited
	stealWait time.Duration // time spent hunting for work (failed pops to acquired steal, plus the final empty scan)
	steals    int64
	elems     int
	_         [128 - 40]byte
}

// aggregate folds the per-worker breakdown into one statement
// measurement at the barrier: sums, the critical path (slowest worker's
// finish) and the residual imbalance (everyone's wait for that worker).
func aggregate(ws []workerStats) stmtStats {
	var st stmtStats
	var maxFinish time.Duration
	for i := range ws {
		st.busy += ws[i].busy
		st.steals += ws[i].steals
		st.stealWait += ws[i].stealWait
		if ws[i].finish > maxFinish {
			maxFinish = ws[i].finish
		}
	}
	for i := range ws {
		st.barrierWait += maxFinish - ws[i].finish
	}
	st.span = maxFinish
	return st
}

// halt is one statement's early-exit state: the cancellation signal and
// the first panic raised by a body on any worker. Workers poll it at
// their pop/steal boundaries and stop taking chunks once either fires.
type halt struct {
	done     <-chan struct{} // closed when the machine's context is done; nil without one
	panicked atomic.Bool
	val      any // the first captured panic value; read after the barrier
}

// stopped reports whether workers should abandon the statement.
func (h *halt) stopped() bool {
	if h.panicked.Load() {
		return true
	}
	if h.done == nil {
		return false
	}
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// capture records r if it is the statement's first body panic.
func (h *halt) capture(r any) {
	if h.panicked.CompareAndSwap(false, true) {
		h.val = r
	}
}

// runSpawn executes body over [0, n) on w workers (the caller is worker
// 0) with chunk size g: the legacy dispatcher that allocates fresh
// deque/stat slices and spawns w-1 goroutines for every statement, with
// exact per-chunk timing. Machines use the resident pool (wpool.go)
// unless WithSpawnDispatch pins them here; E14 measures the difference.
// start is the statement's start instant, taken by the caller so traced
// spans and worker finish times share one zero point. done, when
// non-nil, is a cancellation signal: workers stop taking new chunks once
// it is closed (the orchestrator detects the resulting incomplete
// statement at the barrier and unwinds — see Machine.checkpoint). The
// third result is the first body panic, for the caller to re-raise.
func runSpawn(n, w, g int, body func(lo, hi int), done <-chan struct{}, start time.Time) (stmtStats, []workerStats, any) {
	dq := make([]wdeque, w)
	partition(dq, n, w)

	ws := make([]workerStats, w)
	h := &halt{done: done}
	var wg sync.WaitGroup
	spawnedWorkers.Add(int64(w - 1))
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(id, dq, g, body, &ws[id], start, h, true)
		}(i)
	}
	worker(0, dq, g, body, &ws[0], start, h, true)
	wg.Wait()

	return aggregate(ws), ws, h.val
}

// partition installs the statement's even initial split: one contiguous
// range of ⌈n/w⌉ indices per worker.
func partition(dq []wdeque, n, w int) {
	chunk := (n + w - 1) / w
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo > hi {
			lo = hi
		}
		dq[i].lo, dq[i].hi = lo, hi
	}
}

// worker is the per-goroutine scheduling loop: drain own deque, then
// steal, until a full victim scan comes up empty. A stolen range's first
// grain is executed before anything else can steal it back (see the
// package comment on livelock freedom).
//
// A panicking body does not escape: worker captures the first panic into
// h, which stops every other worker at its next pop/steal boundary the
// way cancellation does, and returns normally so the statement barrier
// still releases. The orchestrator re-raises the value after the
// barrier, where it unwinds through Run (a panic left on a worker
// goroutine would kill the process).
//
// exact selects the timing discipline. Exact — required when a tracer is
// armed, and the legacy dispatcher's only mode — brackets every body
// chunk and every steal hunt with clock reads, so per-worker busy time
// is precise at two time.Now() calls per chunk. Amortized (exact=false,
// the disarmed default) reads the clock twice per worker plus once per
// steal hunt: busy is the worker's wall time minus its measured steal
// waits (the final empty-handed scan is absorbed into busy), so the
// measured Stats fields become approximate-but-monotone while counted
// steps/work/steals/elems stay exact. For the small statements that
// dominate service traffic the clock reads are the dispatch hot path —
// see EXPERIMENTS.md E14.
func worker(id int, dq []wdeque, g int, body func(lo, hi int), ws *workerStats, start time.Time, h *halt, exact bool) {
	seed := uint32(id)*2654435761 + 1
	t0 := start
	if !exact {
		t0 = time.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			h.capture(r)
		}
		finish(ws, start, t0, exact)
	}()
	for {
		if h.stopped() {
			// Cooperative bail before the next pop or steal: leftover
			// chunks are abandoned, and the orchestrator re-raises the
			// captured panic or aborts on the context at the barrier.
			return
		}
		lo, hi, ok := dq[id].pop(g)
		if !ok {
			// Everything from here until work is in hand again is the
			// contention probe: time this worker spends scanning victims
			// instead of executing bodies. Amortized mode skips the
			// closing clock read on the final empty-handed scan.
			h := time.Now()
			lo, hi, ok = steal(id, dq, &seed)
			if exact {
				ws.stealWait += time.Since(h)
			}
			if !ok {
				break
			}
			if !exact {
				ws.stealWait += time.Since(h)
			}
			ws.steals++
			if hi-lo > g {
				// Park the remainder where other thieves can find it;
				// our own deque is empty (pop just failed and only we
				// install into it).
				dq[id].install(lo+g, hi)
				hi = lo + g
			}
		}
		if exact {
			tc := time.Now()
			body(lo, hi)
			ws.busy += time.Since(tc)
		} else {
			body(lo, hi)
		}
		ws.elems += hi - lo
	}
}

// finish closes out a worker's timing. Amortized mode derives busy from
// the worker's own wall time so the loop above never touched the clock
// per chunk; finish stays relative to the statement's start instant in
// both modes so barrier-wait aggregation is uniform.
func finish(ws *workerStats, start, t0 time.Time, exact bool) {
	if exact {
		ws.finish = time.Since(start)
		return
	}
	total := time.Since(t0)
	busy := total - ws.stealWait
	if busy < 0 {
		busy = 0
	}
	ws.busy = busy
	ws.finish = t0.Sub(start) + total
}

// steal scans the other deques from a pseudo-random start and returns the
// first successfully stolen range.
func steal(id int, dq []wdeque, seed *uint32) (int, int, bool) {
	n := len(dq)
	off := int(xorshift32(seed) % uint32(n))
	for t := 0; t < n; t++ {
		v := off + t
		if v >= n {
			v -= n
		}
		if v == id {
			continue
		}
		if lo, hi, ok := dq[v].steal(); ok {
			return lo, hi, true
		}
	}
	return 0, 0, false
}

// xorshift32 is a tiny deterministic PRNG for victim selection; seeding
// by worker id keeps schedules reproducible enough to debug while still
// spreading contention.
func xorshift32(s *uint32) uint32 {
	x := *s
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*s = x
	return x
}
