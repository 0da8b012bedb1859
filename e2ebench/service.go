package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qymera"
	"qymera/internal/circuitio"
	"qymera/internal/service"
	"qymera/internal/sim"
	"qymera/internal/sqlengine"
)

// server is a qymerad-equivalent service on a loopback port.
type server struct {
	svc    *qymera.Service
	http   *http.Server
	url    string
	client *http.Client
	done   chan error
	// pool is the engine budget every job shares; poolView is an engine
	// handle on it, used to reset its high-water mark between windows.
	pool     *sqlengine.MemBudget
	poolView *sqlengine.DB
}

// startServer starts a service with a zero Config, as qymerad runs
// without flags.
func startServer(clients int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		svc:    qymera.NewService(qymera.ServiceConfig{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		done:   make(chan error, 1),
	}
	s.pool = s.svc.Manager().Budget()
	if s.poolView, err = sqlengine.Open(sqlengine.Config{Budget: s.pool}); err != nil {
		ln.Close()
		s.svc.Close()
		return nil, err
	}
	s.http = &http.Server{Handler: s.svc}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the service down and waits for both.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	s.poolView.Close()
	return err
}

// post sends one simulate request and reads the whole response.
func (s *server) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// call is one client op: the round trip and the decode of its result,
// each a span when r is non-nil. rejected reports an HTTP 429 or 503.
func (s *server) call(ctx context.Context, o *op, r *opRec) (amps []service.Amplitude, rejected bool, err error) {
	var status int
	var body []byte
	timed := func(name string, fn func() error) error {
		if r == nil {
			return fn()
		}
		_, err := r.time(name, false, fn)
		return err
	}
	if err := timed("service.http", func() (err error) {
		status, body, err = s.post(ctx, o.body)
		return err
	}); err != nil {
		return nil, false, err
	}
	if status/100 != 2 {
		return nil, status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable,
			fmt.Errorf("%s: HTTP %d: %s", o.kind, status, bytes.TrimSpace(body))
	}
	var res service.ResultJSON
	if err := timed("service.response_decode", func() error { return json.Unmarshal(body, &res) }); err != nil {
		return nil, false, err
	}
	if r != nil {
		r.add("service.response_kb", float64(len(body))/1e3)
	}
	return res.Amplitudes, false, nil
}

// check runs one op and applies the service oracle to its result.
func (s *server) check(ctx context.Context, o *op, r *opRec) (rejected bool, err error) {
	amps, rejected, err := s.call(ctx, o, r)
	if err != nil {
		return rejected, err
	}
	return false, o.checkAmps(amps)
}

// setupService starts a server and sends the warm-up requests.
func setupService(ctx context.Context, w workload, warm []op) (*server, time.Duration, error) {
	start := time.Now()
	s, err := startServer(w.clients)
	if err != nil {
		return nil, 0, err
	}
	for i := range warm {
		if _, err := s.check(ctx, &warm[i], nil); err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, time.Since(start), nil
}

// serviceLoop is what a run of concurrent clients produced.
type serviceLoop struct {
	plain, traced loopStats
	rejected      int
}

// runServiceLoop runs w.clients closed-loop clients for d. Each client
// sends its next request only once the previous one has completed and
// been checked; only the round trip and the response decode are inside
// an op's time window. With a tracer, ops alternate in blocks of w.block
// schedule entries between plain and traced, so both see the same mix
// on the same machine state. Heap, GC and CPU counters cover the whole
// loop, server and clients with their result checks, and are filed with
// the plain ops; the CPU time of the reference runs, which pause every
// client and which only an untraced loop makes, is left out.
func runServiceLoop(ctx context.Context, s *server, w workload, sched []op, next *atomic.Int64, d time.Duration, t *tracer) serviceLoop {
	var mu sync.Mutex
	var out serviceLoop
	if t == nil {
		out.plain.ref = newRefClock()
	}
	ref := out.plain.ref
	peaks := newPeakWindows()
	runtime.GC()
	gc := readGC()
	a0 := heapAllocs()
	c0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plain, traced := loopStats{start: start}, loopStats{start: start}
			rejected := 0
			for time.Now().Before(deadline) {
				ref.maybeRun()
				ref.opStart()
				i := int(next.Add(1) - 1)
				o := &sched[i%len(sched)]
				l := &plain
				var r *opRec
				if t != nil && (i/w.block)%2 == 1 {
					l, r = &traced, t.begin("traced", i)
				}
				t0 := time.Now()
				amps, rej, err := s.call(ctx, o, r)
				el := time.Since(t0)
				if r != nil {
					r.finish()
				}
				ref.opEnd()
				l.attempted++
				if rej {
					rejected++
				}
				if err == nil {
					err = o.checkAmps(amps)
				}
				if err != nil {
					l.fail(err)
					continue
				}
				l.done(t0, el)
				peaks.add(s.pool.Peak(), s.poolView.ResetPeak)
			}
			mu.Lock()
			out.plain.merge(plain)
			out.traced.merge(traced)
			out.rejected += rejected
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.plain.cpu = processCPU() - c0 - ref.spent()
	out.plain.allocBytes = heapAllocs() - a0
	out.plain.gcSince(gc)
	out.plain.peakMB = peaks.medianMB()
	return out
}

// runServiceProbes measures, one op at a time with no other load, the
// layers a round trip is made of: the circuit decode, Manager.RunSync
// with the server's default tracing and with tracing off, and a direct
// run of the same request through the engine replay. The direct replay
// keeps its own plan cache, as the server does.
func runServiceProbes(ctx context.Context, s *server, sched []op, next *atomic.Int64, d time.Duration, t *tracer) (l loopStats, outside []float64, traceCost [2]float64) {
	p := &replayer{cache: sim.NewPlanCache(0)}
	sv := qymera.NewStateVectorBackend()
	m := s.svc.Manager()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		i := int(next.Add(1) - 1)
		o := &sched[i%len(sched)]
		l.attempted++
		r := t.begin("solo", i)
		amps, _, err := s.call(ctx, o, r)
		r.finish()
		if err == nil {
			err = o.checkAmps(amps)
		}
		if err != nil {
			l.fail(err)
			continue
		}
		if _, err := r.time("circuitio.decode", true, func() error {
			_, err := circuitio.UnmarshalJSON(o.doc)
			return err
		}); err != nil {
			l.fail(err)
			continue
		}
		// Alternate which tracing setting goes first, so neither always
		// runs on the warmer cache.
		runSync := func(trace string) (time.Duration, error) {
			name := "service.run_sync"
			if trace == "off" {
				name = "service.run_sync_untraced"
			}
			var res *sim.Result
			d, err := r.time(name, true, func() (err error) {
				res, err = m.RunSync(ctx, service.Request{Circuit: o.doc, Backend: o.backend, Options: service.RequestOptions{Trace: trace}})
				return err
			})
			if err == nil {
				err = o.checkAmps(amplitudes(res.State))
			}
			return d, err
		}
		order := []string{"", "off"}
		if i%2 == 1 {
			order = []string{"off", ""}
		}
		var pair [2]float64
		for _, tr := range order {
			var dur time.Duration
			if dur, err = runSync(tr); err != nil {
				break
			}
			if tr == "" {
				pair[0] = ms(dur)
			} else {
				pair[1] = ms(dur)
			}
		}
		if err != nil {
			l.fail(err)
			continue
		}
		traceCost[0] += pair[0]
		traceCost[1] += pair[1]

		dr := t.begin("direct", i)
		p.mode = o.mode()
		st, tr, err := p.replay(ctx, dr, o.circuit)
		dr.finish()
		if err == nil {
			err = o.checkState(ctx, st)
		}
		if err == nil {
			err = probeFrontEnd(dr, o.circuit, tr, p.mode)
		}
		if err == nil {
			_, err = dr.time("sim.statevector", true, func() error {
				_, err := sv.RunContext(ctx, o.circuit)
				return err
			})
		}
		if err != nil {
			l.fail(err)
			continue
		}
		outside = append(outside, r.vals["service.http_ms"]-ms(dr.wall()))
	}
	return l, outside, traceCost
}

// queueP50 reads the queue phase's median wait from GET /metrics.
func (s *server) queueP50(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m service.MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m.Phases["queue"].P50Seconds * 1e3, nil
}

// runService is one run of the service workload.
func runService(ctx context.Context, w workload, warm, sched []op, cfg runConfig) (rep *report, err error) {
	rep = newReport()
	var s *server
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // each set-up starts from a collected heap
		var d time.Duration
		if s, d, err = setupService(ctx, w, warm); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if serr := s.stop(); err == nil && serr != nil {
			err = serr
		}
	}()
	var next atomic.Int64
	if !cfg.trace {
		l := runServiceLoop(ctx, s, w, sched, &next, cfg.duration, nil)
		if l.plain.ref.err != nil {
			return nil, l.plain.ref.err
		}
		rep.endToEnd(l.plain, w.clients, cfg.duration, setups)
		return rep, nil
	}

	t := newTracer()
	loop := runServiceLoop(ctx, s, w, sched, &next, cfg.duration*2/3, t)
	solo, outside, traceCost := runServiceProbes(ctx, s, sched, &next, cfg.duration/3, t)
	for _, l := range []loopStats{loop.plain, loop.traced, solo} {
		rep.count(l)
	}
	ts := t.summarize("traced")
	so := t.summarize("solo")
	rep.engineLayers(t.summarize("direct"))
	rep.set("service.http_ms", ts.median("service.http_ms"))
	rep.set("service.response_decode_ms", ts.median("service.response_decode_ms"))
	rep.set("service.http_share", ts.share("service.http"))
	rep.set("service.response_kb", ts.median("service.response_kb"))
	rep.set("service.rejected_frac", float64(loop.rejected)/float64(max(loop.plain.attempted+loop.traced.attempted, 1)))
	rep.set("service.http_alloc_kb", so.median("service.http_alloc_kb"))
	rep.set("service.run_sync_ms", so.median("service.run_sync_ms"))
	rep.set("service.run_sync_alloc_kb", so.median("service.run_sync_alloc_kb"))
	rep.set("circuitio.decode_ms", so.median("circuitio.decode_ms"))
	rep.set("circuitio.decode_alloc_kb", so.median("circuitio.decode_alloc_kb"))
	rep.set("service.outside_backend_ms", quantile(outside, 0.5))
	if traceCost[1] > 0 {
		rep.set("service.trace_default_cost_frac", traceCost[0]/traceCost[1]-1)
	}
	q, err := s.queueP50(ctx)
	if err != nil {
		return nil, err
	}
	rep.set("service.queue_ms", q)
	rep.set("trace_overhead_frac", meanMs(loop.traced)/meanMs(loop.plain)-1)
	rep.set("layer_coverage_frac", ts.coverage())
	rep.runtimeLayers(loop.plain, loop.plain.ok()+loop.traced.ok())
	rep.tracer = t
	return rep, nil
}
