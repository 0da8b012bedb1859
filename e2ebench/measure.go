package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// windows is how many equal parts a run's measured time is cut into.
// Throughput and median latency are medians over the parts, so a burst
// of contention from outside the process that slows a minority of them
// does not move the result.
const windows = 5

// sample is one completed, verified op: when it started, counted from
// the start of its loop, and how long it took.
type sample struct{ at, lat time.Duration }

// loopStats is what a measured closed loop produced.
type loopStats struct {
	attempted, failed int
	firstErr          error
	start             time.Time
	samples           []sample
	busy              time.Duration
	cpu               time.Duration // process CPU time spent on the completed ops
	ref               *refClock     // the reference runs between the ops
	allocBytes        uint64
	peakMB            float64 // median of per-window engine high-water marks
	gcCycles          uint32
	gcPause           time.Duration
}

func (l *loopStats) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

func (l *loopStats) ok() int { return l.attempted - l.failed }

// done files one completed, verified op that started at t.
func (l *loopStats) done(t time.Time, el time.Duration) {
	l.samples = append(l.samples, sample{at: t.Sub(l.start), lat: el})
	l.busy += el
}

// merge adds another client's ops to l.
func (l *loopStats) merge(o loopStats) {
	l.attempted += o.attempted
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
	l.samples = append(l.samples, o.samples...)
	l.busy += o.busy
}

// peakWindow is the window engine_peak_mb takes its high-water marks
// over. The median window is reported, not the run-wide maximum: under
// concurrency that maximum hinges on whether two jobs ever peaked at the
// same instant, which one run in a few happens to catch.
const peakWindow = time.Second

type peakWindows struct {
	mu    sync.Mutex
	start time.Time
	cur   int64
	peaks []float64
}

func newPeakWindows() *peakWindows { return &peakWindows{start: time.Now()} }

// add records a high-water-mark reading. At a window boundary it files
// the window's maximum and calls reset, if given, to start the next one.
func (p *peakWindows) add(v int64, reset func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cur = max(p.cur, v)
	if time.Since(p.start) >= peakWindow {
		p.peaks = append(p.peaks, float64(p.cur))
		p.cur, p.start = 0, time.Now()
		if reset != nil {
			reset()
		}
	}
}

func (p *peakWindows) medianMB() float64 {
	if len(p.peaks) == 0 {
		return float64(p.cur) / 1e6
	}
	return quantile(p.peaks, 0.5) / 1e6
}

// gcSnapshot brackets a measured phase for the runtime's GC counters.
type gcSnapshot struct {
	cycles uint32
	pause  uint64
}

func readGC() gcSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSnapshot{cycles: m.NumGC, pause: m.PauseTotalNs}
}

func (l *loopStats) gcSince(g gcSnapshot) {
	now := readGC()
	l.gcCycles = now.cycles - g.cycles
	l.gcPause = time.Duration(now.pause - g.pause)
}

var (
	allocMu     sync.Mutex
	allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
)

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// processCPU is the CPU time, user and system, that every thread of the
// process has used so far. Unlike wall time it does not grow while the
// process waits for a core that another process holds.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meanMs is the mean op time of the loop's completed ops.
func meanMs(l loopStats) float64 {
	if l.ok() == 0 {
		return 0
	}
	return ms(l.busy) / float64(l.ok())
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
