package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// echoExec doubles each input; positional so misalignment is detectable.
func echoExec(reqs []int) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = fmt.Sprintf("r%d", r)
	}
	return out
}

// echoExecCtx adapts echoExec to the batcher's context-aware signature.
func echoExecCtx(_ context.Context, reqs []int) ([]string, error) {
	return echoExec(reqs), nil
}

// holdOpen announces one arrival that never comes, as a request whose
// body upload stalls would, until the test ends: every batch b opens
// meanwhile waits out its linger (or fills, or drains) instead of being
// cut idle the moment its queue runs dry.
func holdOpen(t *testing.T, b runner) {
	b.announce()
	t.Cleanup(b.release)
}

func TestBatcherLingerCut(t *testing.T) {
	b := newBatcher("t", 64, 5*time.Millisecond, 128, echoExecCtx)
	defer b.Close()
	holdOpen(t, b)

	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := b.Submit(context.Background(), i, nil)
			if err != nil || resp != fmt.Sprintf("r%d", i) {
				t.Errorf("job %d: resp=%q err=%v", i, resp, err)
			}
		}(i)
	}
	wg.Wait()

	c := b.counters()
	if c.Jobs != n {
		t.Errorf("jobs = %d, want %d", c.Jobs, n)
	}
	// Far below maxBatch, so every cut must be a linger (or trivially
	// immediate-dispatch) cut — never a full cut.
	if c.FullCuts != 0 {
		t.Errorf("full cuts = %d, want 0 (maxBatch %d never reached)", c.FullCuts, 64)
	}
	if c.LingerCuts == 0 {
		t.Error("no linger cuts recorded")
	}
}

func TestBatcherFullCut(t *testing.T) {
	const maxBatch = 4
	gate := make(chan struct{})
	entered := make(chan int, 8) // exec reports batch sizes before blocking
	exec := func(_ context.Context, reqs []int) ([]string, error) {
		entered <- len(reqs)
		<-gate
		return echoExec(reqs), nil
	}
	// Linger far beyond the test's life: a cut before gate release can
	// only be a full cut.
	b := newBatcher("t", maxBatch, time.Minute, 64, exec)
	defer b.Close()
	holdOpen(t, b)

	const n = 2 * maxBatch
	var wg sync.WaitGroup
	results := make([]string, n)
	errs := make([]error, n)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = b.Submit(context.Background(), i, nil)
		}()
	}
	for i := 0; i < maxBatch; i++ {
		submit(i)
	}
	// The open batch fills to maxBatch and cuts without waiting for the
	// one-minute linger; exec reports its size and blocks on gate.
	if size := <-entered; size != maxBatch {
		t.Fatalf("first batch size = %d, want %d", size, maxBatch)
	}
	// Queue a second full batch behind the blocked collector.
	for i := maxBatch; i < n; i++ {
		submit(i)
	}
	waitFor(t, func() bool { return len(b.queue) == maxBatch })
	close(gate)
	if size := <-entered; size != maxBatch {
		t.Fatalf("second batch size = %d, want %d", size, maxBatch)
	}
	wg.Wait()
	// The second batch's submitters wake before the collector records
	// it; read the counters only once it has.
	waitFor(t, func() bool { return b.counters().Batches == 2 })

	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i] != fmt.Sprintf("r%d", i) {
			t.Errorf("job %d: resp=%q err=%v", i, results[i], errs[i])
		}
	}
	c := b.counters()
	if c.FullCuts != 2 {
		t.Errorf("full cuts = %d, want 2 (%+v)", c.FullCuts, c)
	}
	if c.LingerCuts != 0 {
		t.Errorf("linger cuts = %d, want 0 (%+v)", c.LingerCuts, c)
	}
	if c.MaxBatch != maxBatch {
		t.Errorf("max batch seen = %d, want %d", c.MaxBatch, maxBatch)
	}
	if c.Jobs != n {
		t.Errorf("jobs = %d, want %d", c.Jobs, n)
	}
}

func TestBatcherDrainOnShutdown(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan int, 8)
	var execMu sync.Mutex
	var executed int
	exec := func(_ context.Context, reqs []int) ([]string, error) {
		entered <- len(reqs)
		<-gate
		execMu.Lock()
		executed += len(reqs)
		execMu.Unlock()
		return echoExec(reqs), nil
	}
	const maxBatch = 4
	b := newBatcher("t", maxBatch, time.Minute, 64, exec)
	holdOpen(t, b)

	const n = 7
	var wg sync.WaitGroup
	errs := make([]error, n)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = b.Submit(context.Background(), i, nil)
		}()
	}
	// First full batch fills, cuts, and blocks in exec on the gate.
	for i := 0; i < maxBatch; i++ {
		submit(i)
	}
	if size := <-entered; size != maxBatch {
		t.Fatalf("first batch size = %d, want %d", size, maxBatch)
	}
	// Three more jobs queue behind the blocked collector; at Close they
	// must drain, not drop.
	for i := maxBatch; i < n; i++ {
		submit(i)
	}
	waitFor(t, func() bool { return len(b.queue) == n-maxBatch })

	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	close(gate)

	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain and return")
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d lost at shutdown: %v", i, err)
		}
	}
	execMu.Lock()
	got := executed
	execMu.Unlock()
	if got != n {
		t.Errorf("executed %d jobs, want %d", got, n)
	}
	if c := b.counters(); c.DrainCuts < 1 {
		t.Errorf("drain cuts = %d, want >= 1 (%+v)", c.DrainCuts, c)
	}

	// Post-close submits are refused.
	if _, err := b.Submit(context.Background(), 99, nil); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("Submit after Close: err = %v, want ErrShuttingDown", err)
	}
	b.Close() // idempotent
}

// TestBatcherLingeringBatchFlushedAtClose covers the other drain path: a
// batch still open on its linger timer when Close fires is cut and
// executed, so no admitted job is ever lost.
func TestBatcherLingeringBatchFlushedAtClose(t *testing.T) {
	b := newBatcher("t", 4, time.Minute, 16, echoExecCtx)
	holdOpen(t, b)

	// Enqueue pendings directly (white-box) so admission is synchronous:
	// after the sends, len(queue)==0 proves the collector pulled all
	// three into an open batch that can only be waiting on the
	// one-minute linger timer (maxBatch 4 is never reached).
	const n = 3
	ps := make([]*pending[int, string], n)
	for i := range ps {
		ps[i] = &pending[int, string]{req: i, ctx: context.Background(), done: make(chan struct{})}
		b.queue <- ps[i]
	}
	waitFor(t, func() bool { return len(b.queue) == 0 })

	start := time.Now()
	b.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v; lingering batch not cut promptly", elapsed)
	}

	for i, p := range ps {
		select {
		case <-p.done:
		default:
			t.Fatalf("job %d never completed", i)
		}
		if p.err != nil || p.resp != fmt.Sprintf("r%d", i) {
			t.Errorf("job %d: resp=%q err=%v", i, p.resp, p.err)
		}
	}
	if c := b.counters(); c.Jobs != n || c.DrainCuts < 1 {
		t.Errorf("counters = %+v, want %d jobs and >= 1 drain cut", c, n)
	}
}

func TestBatcherExecPanicFailsBatchOnly(t *testing.T) {
	var calls int
	exec := func(_ context.Context, reqs []int) ([]string, error) {
		calls++
		if reqs[0] < 0 {
			panic("engine exploded")
		}
		return echoExec(reqs), nil
	}
	b := newBatcher("t", 1, 0, 16, exec)
	defer b.Close()

	if _, err := b.Submit(context.Background(), -1, nil); !errors.Is(err, errBatchPanic) {
		t.Fatalf("panicking batch: err = %v, want errBatchPanic", err)
	}
	// Collector survived the panic and serves the next batch.
	resp, err := b.Submit(context.Background(), 7, nil)
	if err != nil || resp != "r7" {
		t.Fatalf("after panic: resp=%q err=%v", resp, err)
	}
	if calls != 2 {
		t.Errorf("exec ran %d times, want 2", calls)
	}
}

func TestBatcherShortExecResponseFailsUnmatchedJobs(t *testing.T) {
	exec := func(reqs []int) []string {
		return echoExec(reqs)[:len(reqs)-1] // drop the last response
	}
	gate := make(chan struct{})
	gated := func(_ context.Context, reqs []int) ([]string, error) { <-gate; return exec(reqs), nil }
	b := newBatcher("t", 2, time.Minute, 16, gated)
	defer b.Close()
	holdOpen(t, b)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	resps := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = b.Submit(context.Background(), i, nil)
		}(i)
	}
	waitFor(t, func() bool {
		b.cmu.Lock()
		defer b.cmu.Unlock()
		return b.batches == 0 && len(b.queue) == 0
	})
	close(gate)
	wg.Wait()

	var failed int
	for i := range errs {
		if errs[i] != nil {
			if !errors.Is(errs[i], errBatchPanic) {
				t.Errorf("job %d: err = %v, want errBatchPanic", i, errs[i])
			}
			failed++
		} else if resps[i] != fmt.Sprintf("r%d", i) {
			t.Errorf("job %d: resp = %q", i, resps[i])
		}
	}
	if failed != 1 {
		t.Errorf("%d jobs failed, want exactly the unmatched 1", failed)
	}
}

func TestBatcherSubmitHonorsContext(t *testing.T) {
	gate := make(chan struct{})
	b := newBatcher("t", 1, 0, 1, func(_ context.Context, reqs []int) ([]string, error) {
		<-gate
		return echoExec(reqs), nil
	})
	defer func() { close(gate); b.Close() }()

	// First job occupies the collector; second fills the depth-1 queue;
	// third cannot enqueue and must obey its context.
	go b.Submit(context.Background(), 0, nil)
	waitFor(t, func() bool {
		b.cmu.Lock()
		defer b.cmu.Unlock()
		return b.batches == 0 && len(b.queue) == 0
	})
	go b.Submit(context.Background(), 1, nil)
	waitFor(t, func() bool { return len(b.queue) == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := b.Submit(ctx, 2, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("blocked Submit: err = %v, want DeadlineExceeded", err)
	}
}

// TestBatcherCloseDrainsExpiredJobs is the drain-audit regression test:
// every job admitted before Close observes a closed done channel, even
// when its context is already dead at drain time. Close's handshake
// (Lock barrier after closed=true) guarantees all in-flight sends land
// before the collector's final sweep, and the sweep must expire — not
// strand — dead-context jobs.
func TestBatcherCloseDrainsExpiredJobs(t *testing.T) {
	var execJobs int
	exec := func(_ context.Context, reqs []int) ([]string, error) {
		execJobs += len(reqs)
		return echoExec(reqs), nil
	}
	b := newBatcher("t", 8, time.Minute, 16, exec)
	holdOpen(t, b)

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	// White-box enqueue (as in TestBatcherLingeringBatchFlushedAtClose) so
	// admission is synchronous: two live jobs and two already-expired ones
	// sit in the same lingering batch when Close cuts it.
	ps := []*pending[int, string]{
		{req: 0, ctx: context.Background(), done: make(chan struct{})},
		{req: 1, ctx: dead, done: make(chan struct{})},
		{req: 2, ctx: context.Background(), done: make(chan struct{})},
		{req: 3, ctx: dead, done: make(chan struct{})},
	}
	for _, p := range ps {
		b.queue <- p
	}
	waitFor(t, func() bool { return len(b.queue) == 0 })
	b.Close()

	for i, p := range ps {
		select {
		case <-p.done:
		default:
			t.Fatalf("job %d stranded at Close: done never closed", i)
		}
	}
	for _, i := range []int{0, 2} {
		if ps[i].err != nil || ps[i].resp != fmt.Sprintf("r%d", i) {
			t.Errorf("live job %d: resp=%q err=%v", i, ps[i].resp, ps[i].err)
		}
	}
	for _, i := range []int{1, 3} {
		if !errors.Is(ps[i].err, context.Canceled) {
			t.Errorf("expired job %d: err = %v, want context.Canceled", i, ps[i].err)
		}
	}
	if execJobs != 2 {
		t.Errorf("engine saw %d jobs, want only the 2 live ones", execJobs)
	}
	if c := b.counters(); c.Expired != 2 {
		t.Errorf("expired = %d, want 2 (%+v)", c.Expired, c)
	}
}

// TestBatcherBackgroundSubmitterPinsBatch: a batch is aborted only when
// EVERY submitter is gone; one uncancelable submitter keeps the whole
// batch alive, and the departed job's neighbours still complete.
func TestBatcherBackgroundSubmitterPinsBatch(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	b := newBatcher("t", 2, time.Minute, 16, func(ctx context.Context, reqs []int) ([]string, error) {
		close(entered)
		<-gate
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return echoExec(reqs), nil
	})
	defer b.Close()
	holdOpen(t, b)

	ctx, cancel := context.WithCancel(context.Background())
	var impatientErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, impatientErr = b.Submit(ctx, 0, nil) }()
	var patientResp string
	var patientErr error
	go func() { defer wg.Done(); patientResp, patientErr = b.Submit(context.Background(), 1, nil) }()

	// Batch of 2 fills and blocks in exec; the cancelable submitter
	// leaves. The Background submitter pins the batch: exec's ctx stays
	// live and the batch completes.
	<-entered
	cancel()
	close(gate)
	wg.Wait()

	if !errors.Is(impatientErr, context.Canceled) {
		t.Errorf("impatient submitter: err = %v, want context.Canceled", impatientErr)
	}
	if patientErr != nil || patientResp != "r1" {
		t.Errorf("patient submitter: resp=%q err=%v, want r1/nil", patientResp, patientErr)
	}
	if c := b.counters(); c.Aborted != 0 {
		t.Errorf("aborted = %d, want 0 — pinned batch must not abort", c.Aborted)
	}
}

// lingerLatencies submits n lone jobs one after another and returns
// each Submit's latency, sorted.
func lingerLatencies(t *testing.T, b *batcher[int, string], n int) []time.Duration {
	t.Helper()
	lat := make([]time.Duration, n)
	for i := range lat {
		start := time.Now()
		resp, err := b.Submit(context.Background(), i, nil)
		lat[i] = time.Since(start)
		if err != nil || resp != fmt.Sprintf("r%d", i) {
			t.Fatalf("job %d: resp=%q err=%v", i, resp, err)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// TestBatcherLingerPrecision pins that a sub-millisecond linger waits
// about as long as configured. A runtime timer that short fires about a
// millisecond late on an idle process, so a timer-only wait puts the
// median near 1.07 ms; the poll phase brings it within tens of µs. An
// announced arrival that never comes (a stalled upload) holds each lone
// batch open, and for no longer than the linger.
func TestBatcherLingerPrecision(t *testing.T) {
	const linger = 200 * time.Microsecond
	b := newBatcher("t", 64, linger, 128, echoExecCtx)
	defer b.Close()
	holdOpen(t, b)

	const n = 200
	lat := lingerLatencies(t, b, n)
	if lat[0] < linger {
		t.Errorf("fastest lone Submit took %v; a batch must not cut before its %v linger", lat[0], linger)
	}
	if med := lat[n/2]; med >= 700*time.Microsecond {
		t.Errorf("median lone Submit took %v, want < 700µs for a %v linger", med, linger)
	}
	waitFor(t, func() bool { return b.counters().Batches == n })
	c := b.counters()
	if c.LingerCuts != n {
		t.Errorf("linger cuts = %d, want %d (%+v)", c.LingerCuts, n, c)
	}
	if c.CollectUS < n*linger.Microseconds() {
		t.Errorf("collect_us = %d, want >= %d: every batch lingers its full %v", c.CollectUS, n*linger.Microseconds(), linger)
	}
}

// TestBatcherLongLingerPrecision covers the two-phase wait: a linger
// above the timer floor blocks on a timer, then polls the last stretch.
func TestBatcherLongLingerPrecision(t *testing.T) {
	const linger = 2500 * time.Microsecond
	b := newBatcher("t", 64, linger, 128, echoExecCtx)
	defer b.Close()
	holdOpen(t, b)

	const n = 20
	lat := lingerLatencies(t, b, n)
	if lat[0] < linger {
		t.Errorf("fastest lone Submit took %v; a batch must not cut before its %v linger", lat[0], linger)
	}
	if med := lat[n/2]; med >= linger+500*time.Microsecond {
		t.Errorf("median lone Submit took %v, want < %v", med, linger+500*time.Microsecond)
	}
}

// TestBatcherLoneJobCutsIdle: with nothing else queued or announced, a
// lone job's batch is cut at once as an idle cut instead of waiting out
// its linger.
func TestBatcherLoneJobCutsIdle(t *testing.T) {
	const linger = 200 * time.Microsecond
	b := newBatcher("t", 64, linger, 128, echoExecCtx)
	defer b.Close()

	const n = 200
	lingerLatencies(t, b, n)
	waitFor(t, func() bool { return b.counters().Batches == n })
	c := b.counters()
	if c.IdleCuts != n || c.LingerCuts != 0 {
		t.Errorf("counters = %+v, want %d idle cuts and no linger cut", c, n)
	}
	if per := time.Duration(c.CollectUS) * time.Microsecond / n; per >= linger/4 {
		t.Errorf("collect_us/idle_cuts = %v, want well under the %v linger", per, linger)
	}
	if c.Arrivals != 0 {
		t.Errorf("arrivals = %d, want 0", c.Arrivals)
	}
}

// TestBatcherAnnouncedArrivalsShareBatch: requests announced before the
// first of them queues its job all join one batch, which cuts as soon as
// the last has arrived, long before its linger.
func TestBatcherAnnouncedArrivalsShareBatch(t *testing.T) {
	b := newBatcher("t", 64, time.Minute, 128, echoExecCtx)
	defer b.Close()

	const n = 8
	arrivals := make([]*arrival, n)
	for i := range arrivals {
		b.announce()
		arrivals[i] = &arrival{b: b, on: true}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range arrivals {
		wg.Add(1)
		go func(i int, a *arrival) {
			defer wg.Done()
			resp, err := b.Submit(context.Background(), i, a)
			if err != nil || resp != fmt.Sprintf("r%d", i) {
				t.Errorf("job %d: resp=%q err=%v", i, resp, err)
			}
		}(i, a)
	}
	wg.Wait()
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("batch took %v; it must cut once every announced job has arrived", d)
	}
	waitFor(t, func() bool { return b.counters().Batches == 1 })
	if c := b.counters(); c.Jobs != n || c.IdleCuts != 1 || c.MaxBatch != n || c.Arrivals != 0 {
		t.Errorf("counters = %+v, want all %d jobs in one idle-cut batch and no arrival left", c, n)
	}
}

// TestBatcherArrivalLeavesOnce: an arrival releases its announcement
// once however many exits call leave, and a nil arrival is a no-op.
func TestBatcherArrivalLeavesOnce(t *testing.T) {
	b := newBatcher("t", 4, 0, 4, echoExecCtx)
	defer b.Close()
	b.announce()
	a := &arrival{b: b, on: true}
	if _, err := b.Submit(context.Background(), 1, a); err != nil {
		t.Fatal(err)
	}
	a.leave()
	(*arrival)(nil).leave()
	if got := b.arrivals.Load(); got != 0 {
		t.Errorf("arrivals = %d after Submit and a second leave, want 0", got)
	}
	b.Close()
	b.announce()
	a = &arrival{b: b, on: true}
	if _, err := b.Submit(context.Background(), 2, a); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after Close: err = %v, want ErrShuttingDown", err)
	}
	if got := b.arrivals.Load(); got != 0 {
		t.Errorf("arrivals = %d after a refused Submit, want 0", got)
	}
}

// TestBatcherSubMillisecondLingerCutsOnFlushAndClose is the sub-ms
// companion of the flush and close tests above, which linger a minute
// and so cut from the timer phase: with a 900 µs linger the whole wait
// is the poll phase, and flush and quit must still cut at once.
func TestBatcherSubMillisecondLingerCutsOnFlushAndClose(t *testing.T) {
	const linger = 900 * time.Microsecond
	for _, signal := range []string{"flush", "quit"} {
		t.Run(signal, func(t *testing.T) {
			// No collector goroutine: the test drives collect itself, with
			// the signal already given and a second job queued behind it.
			b := &batcher[int, string]{
				name: "t", maxBatch: 4, linger: linger, exec: echoExecCtx,
				queue: make(chan *pending[int, string], 4),
				quit:  make(chan struct{}), flush: make(chan struct{}),
			}
			if signal == "flush" {
				close(b.flush)
			} else {
				close(b.quit)
			}
			b.queue <- &pending[int, string]{req: 1, ctx: context.Background()}
			first := &pending[int, string]{req: 0, ctx: context.Background()}
			batch, cut := b.collect([]*pending[int, string]{first})
			if cut != "drain" || len(batch) == 0 || batch[0] != first {
				t.Fatalf("collect = %d jobs, cut %q; want the open batch cut as drain", len(batch), cut)
			}
		})
	}

	// Through the collector: after Flush every lone job cuts at once.
	b := newBatcher("t", 4, linger, 16, echoExecCtx)
	b.Flush()
	const n = 20
	lingerLatencies(t, b, n)
	b.Close()
	if c := b.counters(); c.DrainCuts != n || c.LingerCuts != 0 {
		t.Errorf("counters = %+v, want %d drain cuts and no linger cut after Flush", c, n)
	}
}

// TestBatcherLoneSubmitAllocs pins the collector's steady state: a lone
// job allocates its pending record and done channel, and the collector
// reuses its batch and request buffers, so nothing else.
func TestBatcherLoneSubmitAllocs(t *testing.T) {
	resps := []string{"r"}
	b := newBatcher("t", 64, 0, 16, func(_ context.Context, reqs []int) ([]string, error) {
		return resps[:len(reqs)], nil
	})
	defer b.Close()
	b.Submit(context.Background(), 0, nil) // warm the scratch buffers

	allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.Submit(context.Background(), 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("lone Submit: %.1f allocs, want <= 2 (pending record and done channel)", allocs)
	}
}

// waitFor polls cond until true or fails the test after 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
