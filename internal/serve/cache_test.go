package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fill inserts key→val pairs in order through Do.
func fill(t *testing.T, c *lruCache, keys ...string) {
	t.Helper()
	for _, k := range keys {
		k := k
		if _, _, err := c.Do(context.Background(), k, nil, func(context.Context) (any, error) { return "val:" + k, nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// probe runs Do with a compute that fails the test if called.
func probe(t *testing.T, c *lruCache, key string) (any, bool) {
	t.Helper()
	v, hit, err := c.Do(context.Background(), key, nil, func(context.Context) (any, error) {
		return "recomputed:" + key, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v, hit
}

func TestCacheEvictionOrder(t *testing.T) {
	cases := []struct {
		name      string
		cap       int
		inserts   []string
		reAccess  []string // hits between inserts and the overflow insert
		overflow  []string
		wantLive  []string
		wantEvict []string
	}{
		{
			name:      "oldest first",
			cap:       2,
			inserts:   []string{"a", "b"},
			overflow:  []string{"c"},
			wantLive:  []string{"b", "c"},
			wantEvict: []string{"a"},
		},
		{
			name:      "hit refreshes recency",
			cap:       2,
			inserts:   []string{"a", "b"},
			reAccess:  []string{"a"},
			overflow:  []string{"c"},
			wantLive:  []string{"a", "c"},
			wantEvict: []string{"b"},
		},
		{
			name:      "repeated refresh chain",
			cap:       3,
			inserts:   []string{"a", "b", "c"},
			reAccess:  []string{"a", "b"},
			overflow:  []string{"d", "e"},
			wantLive:  []string{"b", "d", "e"},
			wantEvict: []string{"a", "c"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newLRUCache(tc.cap)
			fill(t, c, tc.inserts...)
			for _, k := range tc.reAccess {
				if _, hit := probe(t, c, k); !hit {
					t.Fatalf("reaccess of %q missed", k)
				}
			}
			fill(t, c, tc.overflow...)
			// Snapshot before probing: an eviction probe is itself a miss
			// that re-inserts and evicts again.
			cnt := c.counters()
			if cnt.Evictions != int64(len(tc.wantEvict)) {
				t.Errorf("evictions = %d, want %d", cnt.Evictions, len(tc.wantEvict))
			}
			if cnt.Size > tc.cap {
				t.Errorf("size %d exceeds capacity %d", cnt.Size, tc.cap)
			}
			for _, k := range tc.wantLive {
				if v, hit := probe(t, c, k); !hit {
					t.Errorf("%q should be cached, got %v", k, v)
				}
			}
			for _, k := range tc.wantEvict {
				// A miss recomputes: hit=false and the recomputed value.
				if v, hit := probe(t, c, k); hit {
					t.Errorf("%q should have been evicted, got cached %v", k, v)
				}
			}
		})
	}
}

func TestCacheCounterAccuracy(t *testing.T) {
	c := newLRUCache(2)
	fill(t, c, "a", "b") // 2 misses
	probe(t, c, "a")     // hit
	probe(t, c, "b")     // hit
	probe(t, c, "b")     // hit
	fill(t, c, "c")      // miss + eviction of a
	probe(t, c, "a")     // miss (recompute, evicts b)
	cnt := c.counters()
	want := CacheCounters{Size: 2, Capacity: 2, Hits: 3, Misses: 4, Evictions: 2}
	if cnt != want {
		t.Errorf("counters = %+v, want %+v", cnt, want)
	}
}

func TestCacheSingleflightCollapse(t *testing.T) {
	c := newLRUCache(8)
	var computes atomic.Int64
	gate := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	hits := make([]bool, waiters)
	vals := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), "k", nil, func(context.Context) (any, error) {
				computes.Add(1)
				<-gate
				return "expensive", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	// Wait until one flight is registered, then release it.
	deadline := time.Now().Add(2 * time.Second)
	for computes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compute never started")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	owners := 0
	for i := range vals {
		if vals[i] != "expensive" {
			t.Errorf("waiter %d got %v", i, vals[i])
		}
		if !hits[i] {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("%d callers computed, want exactly 1", owners)
	}
	cnt := c.counters()
	// Late arrivals (after the value landed) count as plain hits, so
	// collapses + hits == waiters - 1.
	if cnt.Misses != 1 || cnt.Collapses+cnt.Hits != waiters-1 {
		t.Errorf("counters = %+v, want misses=1 and collapses+hits=%d", cnt, waiters-1)
	}
	if cnt.Collapses < 1 {
		t.Errorf("no collapse recorded: %+v", cnt)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newLRUCache(4)
	wantErr := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, hit, err := c.Do(context.Background(), "k", nil, func(context.Context) (any, error) {
			calls++
			return nil, wantErr
		})
		if !errors.Is(err, wantErr) || hit {
			t.Fatalf("round %d: hit=%v err=%v", i, hit, err)
		}
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (errors are not cached)", calls)
	}
	if cnt := c.counters(); cnt.Size != 0 || cnt.Misses != 2 {
		t.Errorf("counters = %+v", cnt)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := newLRUCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", nil, func(context.Context) (any, error) {
			close(started)
			<-gate
			return "late", nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", nil, func(context.Context) (any, error) { return "never", nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter error = %v, want DeadlineExceeded", err)
	}
	close(gate)
}

// awaitFlight waits until a flight is in progress.
func awaitFlight(t *testing.T, c *lruCache) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.counters().Misses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no flight started")
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitCollapses waits until n callers are waiting on another caller's
// flight.
func awaitCollapses(t *testing.T, c *lruCache, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.counters().Collapses < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers joined the flight", c.counters().Collapses, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheCanceledLeaderDoesNotPoisonFollowers: the caller that started
// a flight hangs up (a client gone, a hedge loser canceled by the
// gateway) while another caller, whose context is still live, waits on
// it. The flight runs on: the follower gets the value, not the leader's
// context.Canceled, the leader gets its own context error, and the key
// is computed once.
func TestCacheCanceledLeaderDoesNotPoisonFollowers(t *testing.T) {
	c := newLRUCache(4)
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started, gate := make(chan struct{}), make(chan struct{})
	var computes atomic.Int64
	compute := func(ctx context.Context) (any, error) {
		if computes.Add(1) == 1 {
			close(started)
		}
		select {
		case <-gate:
			return "computed", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", nil, compute)
		leaderErr <- err
	}()
	<-started

	type result struct {
		val any
		hit bool
		err error
	}
	follower := make(chan result, 1)
	go func() {
		v, hit, err := c.Do(context.Background(), "k", nil, compute)
		follower <- result{v, hit, err}
	}()
	awaitCollapses(t, c, 1)
	cancel()
	close(gate)
	if got := <-follower; got.val != "computed" || !got.hit || got.err != nil {
		t.Fatalf("follower got (%v, hit=%v, %v), want the flight's value", got.val, got.hit, got.err)
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader got %v, want its own context.Canceled", err)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	if cnt := c.counters(); cnt.Misses != 1 || cnt.Collapses != 1 {
		t.Errorf("counters %+v, want 1 miss and 1 collapse", cnt)
	}
	if v, hit := probe(t, c, "k"); v != "computed" || !hit {
		t.Errorf("cache holds %v (hit=%v), want the flight's value", v, hit)
	}
}

// TestCacheExpiredLeaderHandsOver: the flight runs under its starter's
// deadline. When that deadline ends the flight, a follower whose own
// context is still live takes the flight over and computes, instead of
// inheriting DeadlineExceeded.
func TestCacheExpiredLeaderHandsOver(t *testing.T) {
	c := newLRUCache(4)
	leaderCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	joined := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", nil, func(ctx context.Context) (any, error) {
			<-joined
			<-ctx.Done()
			return nil, ctx.Err()
		})
		leaderErr <- err
	}()
	awaitFlight(t, c)
	follower := make(chan error, 1)
	var got any
	var hit bool
	go func() {
		var err error
		got, hit, err = c.Do(context.Background(), "k", nil, func(context.Context) (any, error) { return "follower", nil })
		follower <- err
	}()
	awaitCollapses(t, c, 1)
	close(joined)
	if err := <-follower; err != nil || got != "follower" || hit {
		t.Fatalf("follower got (%v, hit=%v, %v), want its own compute", got, hit, err)
	}
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("leader got %v, want DeadlineExceeded", err)
	}
	// Each caller is counted once: the follower that took over is a
	// miss, not also a collapse.
	if cnt := c.counters(); cnt.Misses != 2 || cnt.Collapses != 0 || cnt.Hits != 0 {
		t.Errorf("counters %+v, want 2 misses, 0 collapses, 0 hits", cnt)
	}
}

// TestCacheLastCallerCancelsFlight: the flight outlives a caller that
// leaves only while another caller still waits on it. When the last one
// leaves — a lone starter, or the waiter that outlived its starter — the
// compute is canceled instead of running on for nobody.
func TestCacheLastCallerCancelsFlight(t *testing.T) {
	compute := func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	t.Run("lone starter", func(t *testing.T) {
		c := newLRUCache(4)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, _, err := c.Do(ctx, "k", nil, compute)
			errc <- err
		}()
		awaitFlight(t, c)
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("starter got %v, want context.Canceled", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("the flight ran on after its only caller left")
		}
	})
	t.Run("waiter leaves last", func(t *testing.T) {
		c := newLRUCache(4)
		starterCtx, cancelStarter := context.WithCancel(context.Background())
		waiterCtx, cancelWaiter := context.WithCancel(context.Background())
		defer cancelWaiter()
		starter, waiter := make(chan error, 1), make(chan error, 1)
		go func() {
			_, _, err := c.Do(starterCtx, "k", nil, compute)
			starter <- err
		}()
		awaitFlight(t, c)
		go func() {
			_, _, err := c.Do(waiterCtx, "k", nil, compute)
			waiter <- err
		}()
		awaitCollapses(t, c, 1)
		cancelStarter()
		select {
		case err := <-starter:
			t.Fatalf("the flight ended (%v) while a caller still waited on it", err)
		case <-time.After(50 * time.Millisecond):
		}
		cancelWaiter()
		for name, errc := range map[string]chan error{"starter": starter, "waiter": waiter} {
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s got %v, want context.Canceled", name, err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("%s still blocked after every caller left", name)
			}
		}
	})
}

// TestCachePanicWakesWaiters: a compute panic unwinds the caller that
// ran it; its waiters get an error instead of hanging, and nothing is
// cached.
func TestCachePanicWakesWaiters(t *testing.T) {
	c := newLRUCache(4)
	gate := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(context.Background(), "k", nil, func(context.Context) (any, error) {
			<-gate
			panic("render bug")
		})
	}()
	awaitFlight(t, c)
	follower := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", nil, func(context.Context) (any, error) { return "never", nil })
		follower <- err
	}()
	awaitCollapses(t, c, 1)
	close(gate)
	if v := <-recovered; v != "render bug" {
		t.Errorf("computing caller recovered %v, want the panic value", v)
	}
	if err := <-follower; !errors.Is(err, errFlightPanic) {
		t.Errorf("follower got %v, want errFlightPanic", err)
	}
	if cnt := c.counters(); cnt.Size != 0 {
		t.Errorf("a panicked flight was cached: %+v", cnt)
	}
}

func TestCacheNilPassthrough(t *testing.T) {
	var c *lruCache
	for i := 0; i < 2; i++ {
		v, hit, err := c.Do(context.Background(), "k", nil, func(context.Context) (any, error) {
			return fmt.Sprintf("fresh-%d", i), nil
		})
		if err != nil || hit || v != fmt.Sprintf("fresh-%d", i) {
			t.Errorf("round %d: v=%v hit=%v err=%v", i, v, hit, err)
		}
	}
	if cnt := c.counters(); cnt != (CacheCounters{}) {
		t.Errorf("nil cache counters = %+v", cnt)
	}
}
