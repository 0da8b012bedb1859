package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The harness traces from the outside: it records a span around each
// call it makes into a layer's public entry point. A probe span times a
// call made only to measure a layer (a second parse, an EXPLAIN, a
// statevector run of the same circuit); probe time inside an op's
// window is subtracted from the op's wall time.

// span is one recorded call. Start and End are nanoseconds since the
// tracer started; AllocBytes is the process-wide heap allocation during
// the call.
type span struct {
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Probe      bool   `json:"probe,omitempty"`
}

// opRec collects the spans and per-op values of one traced op.
type opRec struct {
	tr       *tracer
	phase    string
	id       int
	start    time.Time
	end      time.Time
	probeDur time.Duration
	spans    []span
	// vals holds every per-op sample: <layer>_ms and <layer>_alloc_kb
	// for each span name (summed when a layer is called more than once),
	// plus counts and derived values.
	vals map[string]float64
	// inOp is the non-probe span time per layer, in ms, for shares.
	inOp map[string]float64
}

// tracer keeps every op's spans in memory until the run ends.
type tracer struct {
	t0  time.Time
	mu  sync.Mutex
	ops []*opRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens an op. Spans recorded after finish no longer count toward
// the op's wall time.
func (t *tracer) begin(phase string, id int) *opRec {
	return &opRec{tr: t, phase: phase, id: id, start: time.Now(), vals: map[string]float64{}, inOp: map[string]float64{}}
}

// time runs fn as one span of the op and returns its duration.
func (r *opRec) time(name string, probe bool, fn func() error) (time.Duration, error) {
	a0 := heapAllocs()
	s := time.Now()
	err := fn()
	e := time.Now()
	a1 := heapAllocs()
	d := e.Sub(s)
	r.spans = append(r.spans, span{Name: name, Start: s.Sub(r.tr.t0).Nanoseconds(), End: e.Sub(r.tr.t0).Nanoseconds(), AllocBytes: a1 - a0, Probe: probe})
	r.vals[name+"_ms"] += ms(d)
	r.vals[name+"_alloc_kb"] += float64(a1-a0) / 1e3
	if probe {
		if r.end.IsZero() {
			r.probeDur += d
		}
	} else {
		r.inOp[name] += ms(d)
	}
	return d, err
}

func (r *opRec) add(name string, v float64) { r.vals[name] += v }

// finish closes the op's window and files it with the tracer.
func (r *opRec) finish() {
	r.end = time.Now()
	r.tr.mu.Lock()
	r.tr.ops = append(r.tr.ops, r)
	r.tr.mu.Unlock()
}

// wall is the op's time net of probes.
func (r *opRec) wall() time.Duration { return r.end.Sub(r.start) - r.probeDur }

// phaseSummary aggregates the ops of one phase.
type phaseSummary struct {
	ops     int
	wallMs  float64              // summed op wall time
	inOpMs  float64              // summed named-span time inside op windows
	samples map[string][]float64 // per-op values, for ops that have them
	sums    map[string]float64
	inOp    map[string]float64 // summed in-op time per layer
}

func (t *tracer) summarize(phase string) phaseSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := phaseSummary{samples: map[string][]float64{}, sums: map[string]float64{}, inOp: map[string]float64{}}
	for _, r := range t.ops {
		if r.phase != phase {
			continue
		}
		s.ops++
		s.wallMs += ms(r.wall())
		for k, v := range r.vals {
			s.samples[k] = append(s.samples[k], v)
			s.sums[k] += v
		}
		for k, v := range r.inOp {
			s.inOp[k] += v
			s.inOpMs += v
		}
	}
	return s
}

// median of the per-op samples of name; 0 when no op has it.
func (s phaseSummary) median(name string) float64 { return quantile(s.samples[name], 0.5) }

// perOp is the mean of name over every op of the phase.
func (s phaseSummary) perOp(name string) float64 {
	if s.ops == 0 {
		return 0
	}
	return s.sums[name] / float64(s.ops)
}

// share is the layer's in-op time as a share of op wall time.
func (s phaseSummary) share(layer string) float64 {
	if s.wallMs == 0 {
		return 0
	}
	return s.inOp[layer] / s.wallMs
}

// coverage is the named layer spans' share of op wall time.
func (s phaseSummary) coverage() float64 {
	if s.wallMs == 0 {
		return 0
	}
	return s.inOpMs / s.wallMs
}

// spanLine is one exported span: the op's root span has parent 0 and
// name "op"; layer spans point at their op's root.
type spanLine struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Phase  string `json:"phase"`
	span
}

// write exports every span as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	ops := append([]*opRec(nil), t.ops...)
	t.mu.Unlock()
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].start.Before(ops[j].start) })
	id := 0
	for _, r := range ops {
		id++
		root := id
		line := spanLine{ID: root, Op: r.id, Phase: r.phase, span: span{Name: "op", Start: r.start.Sub(t.t0).Nanoseconds(), End: r.end.Sub(t.t0).Nanoseconds()}}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
		for _, sp := range r.spans {
			id++
			if err := enc.Encode(spanLine{ID: id, Parent: root, Op: r.id, Phase: r.phase, span: sp}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
