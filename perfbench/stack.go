package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"partree/internal/cluster"
	"partree/internal/serve"
)

// stack is the system under test, in this process: one partreed, or
// partreegw in front of two partreeds, each on a real loopback listener
// and configured exactly as the commands configure them with default
// flags and no tuning-profile file.
type stack struct {
	backends []*server
	servers  []*serve.Server
	gw       *cluster.Gateway
	gwSrv    *server
	// target is the base URL load is sent to: the gateway when there is
	// one, the lone partreed otherwise.
	target string
}

// server is one HTTP listener and the goroutine serving it.
type server struct {
	http *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		http: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

func (s *server) shutdown(ctx context.Context) {
	if err := s.http.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: shutdown %s: %v\n", s.url, err)
	}
	<-s.done
}

// partreedConfig is cmd/partreed's configuration at its default flags.
func partreedConfig(shardID string) serve.Config {
	return serve.Config{
		MaxBatch:       64,
		Linger:         200 * time.Microsecond,
		CacheSize:      4096,
		MaxInflight:    256,
		RequestTimeout: 10 * time.Second,
		TraceCapacity:  512,
		ShardID:        shardID,
		Logf:           log.New(os.Stderr, "partreed: ", log.LstdFlags).Printf,
	}
}

// partreegwConfig is cmd/partreegw's configuration at its default flags.
func partreegwConfig(backends []string) cluster.Config {
	return cluster.Config{
		Backends:       backends,
		Vnodes:         384,
		ProbeInterval:  250 * time.Millisecond,
		ProbeTimeout:   time.Second,
		FailThreshold:  3,
		Cooldown:       time.Second,
		HedgeMin:       time.Millisecond,
		HedgeMax:       100 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
		BleedKeys:      256,
		Logf:           log.New(os.Stderr, "partreegw: ", log.LstdFlags).Printf,
	}
}

// startStack builds nBackends partreeds and, when withGateway, a
// gateway over them. tr wraps every handler; a disarmed tracer costs
// one atomic load per request.
func startStack(nBackends int, withGateway bool, tr *tracer) (*stack, error) {
	st := &stack{}
	var urls []string
	for i := 0; i < nBackends; i++ {
		id := ""
		if withGateway {
			id = string(rune('a' + i))
		}
		s := serve.New(partreedConfig(id))
		st.servers = append(st.servers, s)
		srv, err := listen(tr.wrap(i, s.Handler()))
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, srv)
		urls = append(urls, srv.url)
	}
	st.target = urls[0]
	if withGateway {
		st.gw = cluster.New(partreegwConfig(urls))
		srv, err := listen(tr.wrap(gatewaySpan, st.gw.Handler()))
		if err != nil {
			st.close()
			return nil, err
		}
		st.gwSrv = srv
		st.target = srv.url
	}
	return st, nil
}

// waitHealthy polls /healthz on every backend and then on the gateway
// until each answers 200.
func (st *stack) waitHealthy(c *http.Client) error {
	urls := make([]string, 0, len(st.backends)+1)
	for _, b := range st.backends {
		urls = append(urls, b.url)
	}
	if st.gwSrv != nil {
		urls = append(urls, st.gwSrv.url)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range urls {
		for {
			resp, err := c.Get(u + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s/healthz never became healthy (last error: %v)", u, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// close drains the stack outermost first, the order the commands'
// signal handlers use, and waits for every serving goroutine.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if st.gwSrv != nil {
		st.gwSrv.shutdown(ctx)
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, s := range st.servers {
		s.BeginDrain()
	}
	for _, b := range st.backends {
		b.shutdown(ctx)
	}
	for _, s := range st.servers {
		s.Close()
	}
}

// newClient returns an HTTP client that holds at most conns connections
// to any host: the load generator never has more connections open than
// it has senders.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// setupSens is how set-up time follows the host probe, whatever the
// workload: starting listeners and answering /healthz through every
// layer is loopback work. While the tuning host's network probe ran 2.5
// times slower than nominal and its compute probe 1.8 times, set-up took
// twice as long.
var setupSens = sensitivity{net: 1}

// setupStack builds a stack reps times, timing each from construction to
// the first healthy /healthz through every layer, and keeps the last one.
// Earlier stacks are torn down untimed. The host is probed around every
// set-up; it returns the median set-up time over the probes' median
// factor.
func setupStack(reps, nBackends int, withGateway bool, tr *tracer, hc *hostClock) (*stack, float64, error) {
	times := make([]float64, 0, reps)
	var st *stack
	mark := len(hc.probes)
	hc.probe()
	for r := 0; r < reps; r++ {
		if st != nil {
			st.close()
			hc.probe()
		}
		c := newClient(1)
		start := time.Now()
		var err error
		st, err = startStack(nBackends, withGateway, tr)
		if err == nil {
			err = st.waitHealthy(c)
		}
		elapsed := time.Since(start)
		c.CloseIdleConnections()
		if err != nil {
			if st != nil {
				st.close()
			}
			return nil, 0, err
		}
		times = append(times, elapsed.Seconds())
	}
	return st, median(times) / hc.medianSince(mark, setupSens), nil
}
