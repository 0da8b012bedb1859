package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark gates a circuit's CPU time as a multiple of the CPU time
// of a fixed reference computation measured in the same run. On a host
// shared with other tenants the speed of a core drifts by a fifth or more
// within minutes, and CPU time drifts with it; the reference drifts the
// same way, so the ratio stays put. The reference uses only the Go
// standard library, so no change to the program moves it.

// refEvery is how often, in wall time, the loop pauses for a reference
// run, which takes about 4 ms of CPU on a 2-vCPU cloud VM.
const refEvery = 100 * time.Millisecond

const (
	refKeys   = 8192    // group-by inserts of one reference run
	refTable  = 1 << 19 // entries of the gather/scatter table (4 MiB)
	refProbes = 1 << 17 // gather/scatter steps of one reference run
)

// refWork is the reference computation. Its first part is compute-bound:
// a hashed group-by with complex sums over integer keys that are
// formatted and parsed back, then a sort and an ordered scan, as the
// engine does with a gate stage. Its second part is bound by memory: a
// random gather and scatter over a table larger than a core's caches, as
// hash probes and freshly allocated memory are. The two parts slow down
// differently when another tenant contends for the core or for memory,
// and the engine is a mix of both. The buffers are kept, so after the
// first run it does not allocate and the garbage collector has no part
// in its time.
type refWork struct {
	m    map[int64]complex128
	keys []int64
	buf  []byte
	tab  []uint64
}

func newRefWork() *refWork {
	return &refWork{
		m:    make(map[int64]complex128, refKeys),
		keys: make([]int64, 0, refKeys),
		buf:  make([]byte, 0, 24),
		tab:  make([]uint64, refTable),
	}
}

// run computes the reference and returns its checksum, the same on every
// run.
func (w *refWork) run() uint64 {
	clear(w.m)
	w.keys = w.keys[:0]
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := range refKeys {
		w.buf = strconv.AppendUint(w.buf[:0], next()>>51, 10)
		k := int64(0)
		for _, c := range w.buf {
			k = k*10 + int64(c-'0')
		}
		w.m[k] += cmplx.Rect(1, float64(i)*1e-3)
	}
	for k := range w.m {
		w.keys = append(w.keys, k)
	}
	slices.Sort(w.keys)
	s := 0.0
	for _, k := range w.keys {
		s += cmplx.Abs(w.m[k])
	}

	for i := range w.tab {
		w.tab[i] = uint64(i)
	}
	sum := math.Float64bits(s)
	for range refProbes {
		j := (next() >> 40) & (refTable - 1)
		sum += w.tab[j]
		w.tab[j^1] = sum
	}
	return sum
}

// threadCPU is the CPU time of the calling OS thread (Linux).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}

// refClock runs the reference between the ops of a measured loop. Ops
// hold mu shared; a reference run holds it exclusively, so no op is in
// flight while it runs. It runs on one locked OS thread and is timed by
// that thread's CPU clock, so the work of other goroutines, such as the
// garbage collector's, is not counted in it. One thread, not one per
// core: the two vCPUs of a cloud VM can be hyperthreads of one core, and
// two copies at once then take twice the CPU time each, or not, as the
// scheduler happens to overlap them.
type refClock struct {
	mu      sync.RWMutex
	next    atomic.Int64 // unix nanoseconds at which the next run is due
	work    *refWork
	sum     uint64 // checksum of the first run; every run must repeat it
	ms      []float64
	procCPU time.Duration // process CPU time spent in reference runs
	err     error
}

func newRefClock() *refClock {
	c := &refClock{work: newRefWork()}
	c.sum = c.work.run()
	return c
}

// A nil *refClock, as a traced loop has, never runs the reference.

// opStart and opEnd bracket an op.
func (c *refClock) opStart() {
	if c != nil {
		c.mu.RLock()
	}
}

func (c *refClock) opEnd() {
	if c != nil {
		c.mu.RUnlock()
	}
}

// spent is the process CPU time spent in reference runs.
func (c *refClock) spent() time.Duration {
	if c == nil {
		return 0
	}
	return c.procCPU
}

// maybeRun does one reference run if one is due.
func (c *refClock) maybeRun() {
	if c == nil {
		return
	}
	now := time.Now().UnixNano()
	due := c.next.Load()
	if now < due || !c.next.CompareAndSwap(due, now+int64(refEvery)) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p0 := processCPU()
	runtime.LockOSThread()
	t0 := threadCPU()
	sum := c.work.run()
	d := threadCPU() - t0
	runtime.UnlockOSThread()
	c.procCPU += processCPU() - p0
	if sum != c.sum && c.err == nil {
		c.err = fmt.Errorf("reference computation gave %d, want %d", sum, c.sum)
	}
	c.ms = append(c.ms, ms(d))
}
