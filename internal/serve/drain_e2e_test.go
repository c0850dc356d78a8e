package serve

import (
	"io"
	"net/http"
	"testing"
	"time"
)

// TestE2EHealthzDrain pins the drain contract the cluster gateway relies
// on: BeginDrain flips /healthz to 503 immediately (so probes stop
// routing here), while work already accepted — including a batch still
// lingering — finishes normally.
func TestE2EHealthzDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 8, Linger: 50 * time.Millisecond})
	client := ts.Client()

	status, raw, _ := post(t, client, ts.URL+"/v1/huffman", codingRequest{Weights: []float64{9, 1, 1}})
	if status != http.StatusOK {
		t.Fatalf("pre-drain request: status %d: %s", status, raw)
	}
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz: status %d", resp.StatusCode)
	}

	// Launch a request that will sit in the batcher's linger window, held
	// open by a stalled upload, then drain while it is in flight.
	stallUpload(t, s, ts, "huffman")
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		st, body, _ := post(t, client, ts.URL+"/v1/huffman", codingRequest{Weights: []float64{5, 4, 3, 2, 1}})
		done <- result{st, body}
	}()
	time.Sleep(10 * time.Millisecond) // request is inside the 50ms linger
	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}

	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	rawBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw2 := mustDecode[map[string]any](t, rawBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503 (%v)", resp.StatusCode, raw2)
	}
	hz.OK, _ = raw2["ok"].(bool)
	hz.Draining, _ = raw2["draining"].(bool)
	if hz.OK || !hz.Draining {
		t.Errorf("draining healthz body = %v, want ok=false draining=true", raw2)
	}

	// The in-flight batch completes despite the drain.
	select {
	case res := <-done:
		if res.status != http.StatusOK {
			t.Fatalf("in-flight request during drain: status %d: %s", res.status, res.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed after BeginDrain")
	}

	// Drain state is sticky and visible in /statsz too.
	if snap := s.Snapshot(); !snap.Draining {
		t.Error("StatsSnapshot.Draining false while draining")
	}
}
