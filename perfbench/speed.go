package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts with their
// neighbours' load. On the 2-vCPU VM it was tuned on, every kind of time
// moved together, from nominal speed to two and a half times slower
// within an hour: wall time, CPU time and the fastest calls alike, with
// almost no hypervisor steal reported. No length of run averages that
// away, so a run measures the host's speed next to the program, with
// fixed probes the benchmark owns, and reports its end-to-end times
// scaled to one nominal host speed.
//
// A probe has two parts, because the host can slow computation and the
// loopback path apart from each other:
//
//   - compute: a fixed mix of cache, branch and arithmetic work on
//     GOMAXPROCS goroutines at once, as the program's load runs;
//   - network: round trips over loopback through a standard-library
//     HTTP handler that fetches "ok" from a second one, as the gateway
//     fetches from a backend.
//
// The host factor is the product of the two parts' times over their
// nominal times, each raised to the workload's sensitivity to it (see
// sensitivity): above 1 the host is slower than nominal. Each part reads
// the median of its repetitions, so one preemption does not move it. The
// probes use only the standard library, the compute part allocates
// nothing, and they run only while the program is idle: between
// closed-loop slices, between kernel rounds and between set-ups.

// Nominal times: each probe part's median repetition on the tuning host
// when it was quiet (a host factor of 1).
const (
	computeNominalMS = 0.6
	netNominalMS     = 0.046
)

const (
	// computeReps is how many compute repetitions each goroutine times.
	computeReps = 9
	// netReps is how many loopback round trips a probe times.
	netReps = 25
)

// refWork is one goroutine's private buffers for the compute part.
type refWork struct {
	table []uint64
	src   []float64
	xs    []float64
	data  []byte
	sink  uint64
}

func newRefWork(seed int64) *refWork {
	rng := rand.New(rand.NewSource(seed))
	w := &refWork{table: make([]uint64, 1<<16), src: make([]float64, 4096), xs: make([]float64, 4096), data: make([]byte, 8<<10)}
	for i := range w.src {
		w.src[i] = rng.Float64()
	}
	_, _ = rng.Read(w.data) // math/rand's Read never fails
	return w
}

// rep is one compute repetition: a random walk over a 512 KiB table, a
// sort and a hash. A larger table made the reading depend on where each
// process's pages landed.
func (w *refWork) rep() {
	x := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(w.table) - 1)
	for i := 0; i < 200000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		w.table[(x>>40)&mask] += x
	}
	copy(w.xs, w.src)
	sort.Float64s(w.xs)
	sum := sha256.Sum256(w.data)
	w.sink += w.table[x&mask] + uint64(w.xs[7]*1e9) + uint64(sum[0])
}

// sensitivity is how strongly a workload's times follow each probe part:
// the exponent of that part's slowdown in the host factor.
type sensitivity struct{ compute, net float64 }

// hostClock probes the host's speed and keeps every reading.
type hostClock struct {
	sens      sensitivity // the workload's
	work      []*refWork
	hopURL    string
	client    *http.Client // the probe's client, to the hop
	hopClient *http.Client // the hop's client, to the leaf
	servers   []*http.Server
	served    sync.WaitGroup // the servers' goroutines
	probes    []probe
}

// probe is one reading: its two parts' median repetition times.
type probe struct {
	computeMS, netMS float64
}

// newHostClock starts the probe's two loopback servers: a leaf that
// writes "ok", and a hop that fetches it.
func newHostClock(sens sensitivity) (*hostClock, error) {
	c := &hostClock{sens: sens, client: newClient(1), hopClient: newClient(1)}
	var leafURL string
	handlers := []http.HandlerFunc{
		func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "ok") },
		func(w http.ResponseWriter, _ *http.Request) {
			resp, err := c.hopClient.Get(leafURL)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(w, resp.Body) // a failed copy shows as a failed round trip
		},
	}
	for i, h := range handlers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("host probe: %w", err)
		}
		url := "http://" + ln.Addr().String() + "/"
		if i == 0 {
			leafURL = url
		} else {
			c.hopURL = url
		}
		srv := &http.Server{Handler: h}
		c.servers = append(c.servers, srv)
		c.served.Add(1)
		go func() {
			defer c.served.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed once close runs
		}()
	}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		c.work = append(c.work, newRefWork(int64(g+1)))
	}
	c.probe() // pages the buffers in and opens the connections
	c.probes = c.probes[:0]
	return c, nil
}

// close stops the probe's servers and waits for them to end.
func (c *hostClock) close() {
	c.client.CloseIdleConnections()
	c.hopClient.CloseIdleConnections()
	for _, srv := range c.servers {
		_ = srv.Close() // a listener that fails to close leaves nothing to undo
	}
	c.served.Wait()
}

// probe measures the host and returns its factor.
func (c *hostClock) probe() float64 {
	meds := make([]float64, len(c.work))
	var wg sync.WaitGroup
	for g, w := range c.work {
		wg.Add(1)
		go func(g int, w *refWork) {
			defer wg.Done()
			t := make([]float64, computeReps)
			for r := range t {
				start := time.Now()
				w.rep()
				t[r] = ms(time.Since(start))
			}
			meds[g] = median(t)
		}(g, w)
	}
	wg.Wait()
	t := make([]float64, 0, netReps)
	for r := 0; r < netReps; r++ {
		start := time.Now()
		resp, err := c.client.Get(c.hopURL)
		if err != nil {
			continue
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			t = append(t, ms(time.Since(start)))
		}
	}
	p := probe{computeMS: mean(meds), netMS: median(t)}
	if len(t) == 0 {
		// The loopback handlers cannot fail; should they anyway, the
		// compute part alone still tracks the host.
		p.netMS = netNominalMS * p.computeMS / computeNominalMS
	}
	c.probes = append(c.probes, p)
	return p.factor(c.sens)
}

// factor is a probe's host factor for the sensitivity s.
func (p probe) factor(s sensitivity) float64 {
	return math.Pow(p.computeMS/computeNominalMS, s.compute) * math.Pow(p.netMS/netNominalMS, s.net)
}

// medianSince is the median host factor, for the sensitivity s, of the
// probes from the mark-th on; a phase notes len(c.probes) as its mark
// when it starts. Over a
// phase the median is steadier than pairing each slice with the probes
// around it: a single probe can catch the tail of the program's own
// work, and the host drifts over minutes, not slices.
func (c *hostClock) medianSince(mark int, s sensitivity) float64 {
	f := make([]float64, 0, len(c.probes)-mark)
	for _, p := range c.probes[mark:] {
		f = append(f, p.factor(s))
	}
	if len(f) == 0 {
		return 1
	}
	return median(f)
}

func (c *hostClock) String() string {
	var f, cm, nm []float64
	for _, p := range c.probes {
		f, cm, nm = append(f, p.factor(c.sens)), append(cm, p.computeMS), append(nm, p.netMS)
	}
	return fmt.Sprintf("host factor (sensitivity %.2f to compute, %.2f to network) over %d probes: median %.3f, min %.3f, max %.3f; median compute rep %.4fms (nominal %.3f), loopback hop round trip %.4fms (nominal %.3f)",
		c.sens.compute, c.sens.net, len(f), median(f), quantile(f, 0), quantile(f, 1), median(cm), computeNominalMS, median(nm), netNominalMS)
}
