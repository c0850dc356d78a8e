package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// arrivalsOf is the number of requests the engine's batcher counts as
// announced and still on their way.
func arrivalsOf(s *Server, engine string) int64 {
	return s.batchers[engine].counters().Arrivals
}

// enginePath is the /v1 path of the named engine.
func enginePath(t *testing.T, engine string) string {
	t.Helper()
	for _, e := range engines {
		if name, path := e.route(); name == engine {
			return path
		}
	}
	t.Fatalf("no engine %q", engine)
	return ""
}

// stallUpload opens a raw connection and sends only the headers of a
// POST to the engine, announcing a body that never comes. The server
// admits the request, which announces itself to the engine's batcher and
// then blocks reading its body, so every batch the engine opens
// meanwhile waits out its linger. stallUpload returns once the batcher
// counts the arrival. The returned release closes the connection, which
// ends the request in a 400; it also runs when the test ends, before the
// server shuts down.
func stallUpload(t *testing.T, s *Server, ts *httptest.Server, engine string) (release func()) {
	t.Helper()
	before := arrivalsOf(s, engine)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(func() { conn.Close() }) }
	t.Cleanup(release)
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: partreed\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n", enginePath(t, engine)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return arrivalsOf(s, engine) > before })
	return release
}

// panicBody is a request body whose first Read panics.
type panicBody struct{}

func (panicBody) Read([]byte) (int, error) { panic("body reader exploded") }
func (panicBody) Close() error             { return nil }

// TestE2EArrivalLedger: every way a request can end gives its
// announcement back exactly once, so the count returns to zero, and a
// shed request never announces.
func TestE2EArrivalLedger(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		run  func(t *testing.T, s *Server, ts *httptest.Server)
	}{
		{"fast-path hit", Config{}, func(t *testing.T, s *Server, ts *httptest.Server) {
			req := codingRequest{Weights: []float64{4, 4, 1}}
			post(t, ts.Client(), ts.URL+"/v1/huffman", req)
			if st, raw, hdr := post(t, ts.Client(), ts.URL+"/v1/huffman", req); st != http.StatusOK || hdr.Get("X-Partree-Cache") != "hit" {
				t.Fatalf("repeat: status %d cache %q (%s)", st, hdr.Get("X-Partree-Cache"), raw)
			}
			if fp := s.Snapshot().FastPath; fp.Hits != 1 {
				t.Errorf("fast path hits = %d, want 1", fp.Hits)
			}
		}},
		{"decode 400", Config{}, func(t *testing.T, s *Server, ts *httptest.Server) {
			if st, raw := postRaw(t, ts, "/v1/huffman", `{"weights":`); st != http.StatusBadRequest || errCode(t, raw) != "bad_json" {
				t.Fatalf("status %d (%s), want 400 bad_json", st, raw)
			}
		}},
		{"parse 400", Config{}, func(t *testing.T, s *Server, ts *httptest.Server) {
			if st, raw := postRaw(t, ts, "/v1/huffman", `{"weights":[1,-2]}`); st != http.StatusBadRequest || errCode(t, raw) != "bad_weight" {
				t.Fatalf("status %d (%s), want 400 bad_weight", st, raw)
			}
		}},
		{"result-cache hit", Config{}, func(t *testing.T, s *Server, ts *httptest.Server) {
			post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: []float64{5, 1, 2, 9}})
			// Scaled weights: a raw-body miss, a canonical-key hit.
			if st, raw, hdr := post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: []float64{10, 2, 4, 18}}); st != http.StatusOK || hdr.Get("X-Partree-Cache") != "hit" {
				t.Fatalf("scaled: status %d cache %q (%s)", st, hdr.Get("X-Partree-Cache"), raw)
			}
			if c := s.Snapshot().Cache; c.Hits != 1 {
				t.Errorf("cache hits = %d, want 1", c.Hits)
			}
		}},
		{"deadline before enqueue", Config{}, func(t *testing.T, s *Server, ts *httptest.Server) {
			// A traced request skips the fast path, so its deadline starts
			// before it reads its body; the body arrives after the deadline,
			// and the cache refuses to start a flight for a caller already
			// gone.
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			body := `{"weights":[3,1,4,1,5]}`
			fmt.Fprintf(conn, "POST /v1/huffman HTTP/1.1\r\nHost: partreed\r\n%s: 1\r\n%s: 20\r\nContent-Length: %d\r\n\r\n", traceHeader, deadlineHeader, len(body))
			waitFor(t, func() bool { return arrivalsOf(s, "huffman") == 1 })
			time.Sleep(60 * time.Millisecond)
			fmt.Fprint(conn, body)
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504", resp.StatusCode)
			}
			if b := s.Snapshot().Batchers["huffman"]; b.Jobs != 0 {
				t.Errorf("batcher saw %d jobs, want none", b.Jobs)
			}
		}},
		{"shed 429", Config{MaxInflight: 1}, func(t *testing.T, s *Server, ts *httptest.Server) {
			release := stallUpload(t, s, ts, "huffman")
			if st, raw := postRaw(t, ts, "/v1/huffman", `{"weights":[1,2]}`); st != http.StatusTooManyRequests {
				t.Fatalf("status %d (%s), want 429", st, raw)
			}
			if n := arrivalsOf(s, "huffman"); n != 1 {
				t.Errorf("arrivals = %d while one upload stalls and one request was shed, want 1", n)
			}
			release()
		}},
		{"shutdown", Config{}, func(t *testing.T, s *Server, ts *httptest.Server) {
			s.Close()
			if st, raw := postRaw(t, ts, "/v1/huffman", `{"weights":[1,2]}`); st != http.StatusServiceUnavailable {
				t.Fatalf("status %d (%s), want 503", st, raw)
			}
		}},
		{"handler panic", Config{}, func(t *testing.T, s *Server, ts *httptest.Server) {
			req := httptest.NewRequest(http.MethodPost, "/v1/huffman", nil)
			req.Body = panicBody{}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusInternalServerError || s.Snapshot().Panics != 1 {
				t.Fatalf("status %d, panics %d; want 500 and one panic", rec.Code, s.Snapshot().Panics)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			tc.run(t, s, ts)
			waitFor(t, func() bool { return arrivalsOf(s, "huffman") == 0 })
		})
	}
}

// postRaw posts a raw body and returns the status and response body.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestE2ELoneRequestCutsIdle: at the default 200 µs linger, a request
// with no company is cut idle at once instead of waiting out the linger.
func TestE2ELoneRequestCutsIdle(t *testing.T) {
	const linger = 200 * time.Microsecond
	s, ts := newTestServer(t, Config{MaxBatch: 8, Linger: linger})
	const n = 50
	for i := 0; i < n; i++ {
		if st, raw, _ := post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: []float64{1, 2, float64(i + 3)}}); st != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, st, raw)
		}
	}
	waitFor(t, func() bool { return s.Snapshot().Batchers["huffman"].Batches == n })
	c := s.Snapshot().Batchers["huffman"]
	if c.IdleCuts != n || c.LingerCuts != 0 {
		t.Errorf("counters = %+v, want %d idle cuts and no linger cut", c, n)
	}
	if per := time.Duration(c.CollectUS) * time.Microsecond / n; per >= linger/4 {
		t.Errorf("collect_us/idle_cuts = %v, want well under the %v linger", per, linger)
	}
}

// TestE2EStalledUploadHoldsBatchOnlyForLinger: an admitted request whose
// body upload stalls holds a lone batch open for the linger, and no
// longer.
func TestE2EStalledUploadHoldsBatchOnlyForLinger(t *testing.T) {
	const linger = 100 * time.Millisecond
	s, ts := newTestServer(t, Config{MaxBatch: 8, Linger: linger, CacheSize: -1})
	stallUpload(t, s, ts, "huffman")

	start := time.Now()
	w := []float64{7, 3, 2, 2}
	st, raw, _ := post(t, ts.Client(), ts.URL+"/v1/huffman", codingRequest{Weights: w})
	d := time.Since(start)
	if st != http.StatusOK {
		t.Fatalf("status %d (%s)", st, raw)
	}
	checkHuffman(t, raw, w)
	if d < linger {
		t.Errorf("request took %v; its batch should wait the %v linger for the announced upload", d, linger)
	}
	if d > linger+500*time.Millisecond {
		t.Errorf("request took %v; a stalled upload must hold the batch no longer than the %v linger", d, linger)
	}
	if c := s.Snapshot().Batchers["huffman"]; c.LingerCuts != 1 || c.IdleCuts != 0 {
		t.Errorf("counters = %+v, want one linger cut", c)
	}
}

// TestE2ECollapsedWaiterLeavesItsFlightsBatch: a request that joins
// another caller's single flight gives its announcement back at once, so
// it does not hold open the batch its flight's job waits in.
func TestE2ECollapsedWaiterLeavesItsFlightsBatch(t *testing.T) {
	const linger = 3 * time.Second
	s, ts := newTestServer(t, Config{MaxBatch: 8, Linger: linger})
	stall := stallUpload(t, s, ts, "huffman")

	body := codingRequest{Weights: []float64{6, 3, 2, 1}}
	var wg sync.WaitGroup
	statuses := make([]int, 2)
	hits := make([]string, 2)
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hdr http.Header
			statuses[i], _, hdr = post(t, ts.Client(), ts.URL+"/v1/huffman", body)
			hits[i] = hdr.Get("X-Partree-Cache")
		}()
	}
	// The starter's job opens a batch that the stalled upload holds open.
	send(0)
	waitFor(t, func() bool { return s.Snapshot().Cache.Misses == 1 && arrivalsOf(s, "huffman") == 1 })
	// The waiter joins the starter's flight.
	send(1)
	waitFor(t, func() bool { return s.Snapshot().Cache.Collapses == 1 })

	start := time.Now()
	stall()
	wg.Wait()
	if d := time.Since(start); d > linger/3 {
		t.Errorf("the flight's batch stayed open %v after the upload failed; the collapsed waiter held it", d)
	}
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("request %d: status %d", i, st)
		}
	}
	if hits[0] == hits[1] {
		t.Errorf("cache dispositions %q, want one miss and one hit", hits)
	}
	if c := s.Snapshot().Batchers["huffman"]; c.Batches != 1 || c.IdleCuts != 1 {
		t.Errorf("counters = %+v, want the one batch cut idle", c)
	}
	waitFor(t, func() bool { return arrivalsOf(s, "huffman") == 0 })
}

// TestHandlerCacheMissAllocs pins the allocations of one cache-missing
// POST through the whole handler chain: admission and announcement, fast
// path, decode, result cache, batcher, render and encode. The bound is
// what the chain allocated before requests announced themselves (Go
// 1.24): the announcement adds none.
func TestHandlerCacheMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := New(Config{MaxBatch: 8, Linger: 200 * time.Microsecond, Logf: t.Logf})
	defer s.Close()
	h := s.Handler()
	const runs = 200
	reqs := make([]*http.Request, runs+2)
	recs := make([]*httptest.ResponseRecorder, runs+2)
	for i := range reqs {
		body := fmt.Sprintf(`{"weights":[1,2,%d]}`, i+3)
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/huffman", strings.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	h.ServeHTTP(recs[0], reqs[0]) // warm the pools and scratch buffers
	i := 1
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[i], reqs[i])
		if recs[i].Code != http.StatusOK || recs[i].Header().Get("X-Partree-Cache") != "miss" {
			t.Fatalf("request %d: status %d cache %q", i, recs[i].Code, recs[i].Header().Get("X-Partree-Cache"))
		}
		i++
	})
	if allocs > 102 {
		t.Errorf("cache-miss POST: %.0f allocs, want <= 102", allocs)
	}
}
