package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// lruCache is a bounded LRU result cache with single-flight collapsing of
// identical in-flight computations. Keys are canonical request hashes
// (see request canonicalization in request.go); values are completed
// response payloads, which are treated as immutable once cached.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // front = most recently used
	items   map[string]*list.Element // key → element whose Value is *cacheEntry
	flights map[string]*flight       // key → in-flight computation

	// Counters, guarded by mu.
	hits      int64
	misses    int64
	evictions int64
	collapses int64 // callers that waited on another caller's flight
}

type cacheEntry struct {
	key string
	val any
}

// flight is one in-progress computation; done is closed when val/err are
// final.
type flight struct {
	done chan struct{}
	val  any
	err  error

	// callers counts the callers still waiting on the flight: its
	// starter and every collapsed waiter. Guarded by lruCache.mu. The
	// last one to leave cancels the compute through cancel.
	callers int
	cancel  context.CancelFunc
}

// errFlightPanic is what the waiters of a flight get when its compute
// panicked; the panic itself unwinds the caller that ran it.
var errFlightPanic = errors.New("serve: panic while computing a shared result")

// newLRUCache returns a cache holding at most capacity entries;
// capacity must be ≥ 1 (a disabled cache is a nil *lruCache, on which Do
// degrades to calling compute directly).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// CacheCounters is a snapshot of the cache's counters.
type CacheCounters struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Collapses int64 `json:"singleflight_collapses"`
}

func (c *lruCache) counters() CacheCounters {
	if c == nil {
		return CacheCounters{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheCounters{
		Size:      c.ll.Len(),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Collapses: c.collapses,
	}
}

// Do returns the cached value for key, or computes it. Concurrent Do
// calls with the same key collapse onto one compute invocation; the
// others wait for its result (or their ctx). Errors are returned to every
// waiter but never cached. hit reports whether the value came from the
// cache or from another caller's flight rather than from this caller's
// own compute.
//
// compute runs under its starter's deadline but not its cancellation: a
// starter that hangs up — a client gone, a hedge loser canceled by the
// gateway — still finishes the flight while another caller waits on it,
// so that caller gets the value and the key is computed once; the
// starter itself then gets its own ctx.Err(). Once every caller has
// left, the compute is canceled. A waiter whose ctx is still live when
// the flight fails with a context error (the starter's deadline ran out)
// takes the flight over instead of inheriting that error.
//
// a (which may be nil) is the caller's announcement to its batcher. Do
// releases it wherever the caller will not queue a job of its own: on a
// hit, when it joins another caller's flight (so that it does not hold
// open the very batch the flight waits in), or when ctx is already
// done. Otherwise compute's job takes it over.
func (c *lruCache) Do(ctx context.Context, key string, a *arrival, compute func(context.Context) (any, error)) (val any, hit bool, err error) {
	if c == nil {
		v, err := compute(ctx)
		return v, false, err
	}
	c.mu.Lock()
	for {
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			v := el.Value.(*cacheEntry).val
			c.mu.Unlock()
			a.leave()
			return v, true, nil
		}
		f, ok := c.flights[key]
		if !ok {
			break
		}
		c.collapses++
		f.callers++
		c.mu.Unlock()
		a.leave()
		select {
		case <-f.done:
			if ctx.Err() == nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				// Take the flight over; this caller is counted again
				// by whatever the next pass finds.
				c.mu.Lock()
				c.collapses--
				continue
			}
			return f.val, true, f.err
		case <-ctx.Done():
			c.leave(f)
			return nil, false, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		// A caller that is already gone starts no flight.
		c.mu.Unlock()
		a.leave()
		return nil, false, err
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	if deadline, ok := ctx.Deadline(); ok {
		var stop context.CancelFunc
		fctx, stop = context.WithDeadline(fctx, deadline)
		defer stop()
	}
	f := &flight{done: make(chan struct{}), err: errFlightPanic, callers: 1, cancel: cancel}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()
	defer c.land(key, f)
	stop := context.AfterFunc(ctx, func() { c.leave(f) })
	defer stop()

	f.val, f.err = compute(fctx)
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	return f.val, false, f.err
}

// leave drops one caller from f; the last one to leave cancels its
// compute.
func (c *lruCache) leave(f *flight) {
	c.mu.Lock()
	f.callers--
	last := f.callers == 0
	c.mu.Unlock()
	if last {
		f.cancel()
	}
}

// land publishes a finished flight: it caches a value, and wakes the
// waiters. It runs deferred, so a compute that panics still wakes them
// (with errFlightPanic) and leaves no flight behind.
func (c *lruCache) land(key string, f *flight) {
	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: f.val})
		for c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*cacheEntry).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(f.done)
}
