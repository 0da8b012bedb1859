package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"qymera"
	"qymera/internal/sim"
)

// setupDirect is the set-up a user of the library pays: a backend with
// default settings, a plan cache when the workload shares one, and the
// warm-up ops run through them.
func setupDirect(ctx context.Context, w workload, warm []op) (qymera.Backend, *sim.PlanCache, time.Duration, error) {
	start := time.Now()
	opts := qymera.SQLBackendOptions{MemoryBudget: w.budget}
	if w.cache {
		opts.PlanCache = qymera.NewPlanCache(0)
	}
	b := qymera.NewSQLBackend(opts)
	for i := range warm {
		if _, err := b.RunContext(ctx, warm[i].circuit); err != nil {
			return nil, nil, 0, fmt.Errorf("warm-up %s: %w", warm[i].kind, err)
		}
	}
	return b, opts.PlanCache, time.Since(start), nil
}

// plainOp runs one op through the public backend, as a user does. Only
// the RunContext call is inside the op's time and CPU windows; the
// oracle check runs after it.
func plainOp(ctx context.Context, b qymera.Backend, o *op, l *loopStats, peaks *peakWindows) {
	a0 := heapAllocs()
	c0 := processCPU()
	t := time.Now()
	res, err := b.RunContext(ctx, o.circuit)
	el := time.Since(t)
	cpu := processCPU() - c0
	l.allocBytes += heapAllocs() - a0
	l.attempted++
	if err == nil {
		err = o.checkState(ctx, res.State)
	}
	if err != nil {
		l.fail(err)
		return
	}
	l.done(t, el)
	l.cpu += cpu
	peaks.add(res.Stats.PeakBytes, nil)
}

// runDirectLoop drives one closed-loop client for d, pausing between ops
// for the reference runs.
func runDirectLoop(ctx context.Context, b qymera.Backend, sched []op, d time.Duration) loopStats {
	l := loopStats{ref: newRefClock()}
	peaks := newPeakWindows()
	runtime.GC()
	gc := readGC()
	l.start = time.Now()
	for i, deadline := 0, l.start.Add(d); time.Now().Before(deadline); i++ {
		l.ref.maybeRun()
		plainOp(ctx, b, &sched[i%len(sched)], &l, peaks)
	}
	l.gcSince(gc)
	l.peakMB = peaks.medianMB()
	return l
}

// tracedOp replays one op through the engine's public calls with a span
// around each (see replayer), then probes, outside the op's window, the
// statevector yardstick and, with a plan cache, the translation it saved.
func tracedOp(ctx context.Context, p *replayer, sv qymera.Backend, o *op, r *opRec, l *loopStats) {
	st, tr, err := p.replay(ctx, r, o.circuit)
	r.finish()
	l.attempted++
	if err == nil {
		err = o.checkState(ctx, st)
	}
	if err == nil {
		l.busy += r.wall()
		if p.cache != nil {
			err = probeFrontEnd(r, o.circuit, tr, p.mode)
		}
	}
	if err == nil {
		_, err = r.time("sim.statevector", true, func() error {
			_, err := sv.RunContext(ctx, o.circuit)
			return err
		})
	}
	if err != nil {
		l.fail(err)
	}
}

// runDirectTraced alternates blocks of plain and traced ops, one block
// per w.block schedule entries, so that both see the same mix of circuits
// on the same machine state. The runtime's GC counters are taken over the
// plain blocks only, since probes allocate.
func runDirectTraced(ctx context.Context, w workload, b qymera.Backend, pc *sim.PlanCache, sched []op, d time.Duration, t *tracer) (plain, traced loopStats) {
	p := &replayer{cache: pc, budget: w.budget}
	sv := qymera.NewStateVectorBackend()
	peaks := newPeakWindows()
	var gc gcSnapshot
	inPlain := false
	endPlain := func() {
		now := readGC()
		plain.gcCycles += now.cycles - gc.cycles
		plain.gcPause += time.Duration(now.pause - gc.pause)
		inPlain = false
	}
	runtime.GC()
	plain.start = time.Now()
	// A run too short for a whole block still traces one op.
	for i, deadline := 0, time.Now().Add(d); time.Now().Before(deadline) || traced.attempted == 0; i++ {
		o := &sched[i%len(sched)]
		if (i/w.block)%2 == 1 {
			if inPlain {
				endPlain()
			}
			tracedOp(ctx, p, sv, o, t.begin("traced", i), &traced)
			continue
		}
		if !inPlain {
			gc, inPlain = readGC(), true
		}
		plainOp(ctx, b, o, &plain, peaks)
	}
	if inPlain {
		endPlain()
	}
	return plain, traced
}

// runDirect is one run of a direct workload.
func runDirect(ctx context.Context, w workload, warm, sched []op, cfg runConfig) (*report, error) {
	rep := newReport()
	var b qymera.Backend
	var pc *sim.PlanCache
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		runtime.GC() // each set-up starts from a collected heap
		var d time.Duration
		var err error
		if b, pc, d, err = setupDirect(ctx, w, warm); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	if !cfg.trace {
		l := runDirectLoop(ctx, b, sched, cfg.duration)
		if l.ref.err != nil {
			return nil, l.ref.err
		}
		rep.endToEnd(l, 1, cfg.duration, setups)
		return rep, nil
	}

	t := newTracer()
	plain, traced := runDirectTraced(ctx, w, b, pc, sched, cfg.duration, t)
	rep.count(plain)
	rep.count(traced)
	s := t.summarize("traced")
	rep.engineLayers(s)
	rep.set("trace_overhead_frac", meanMs(traced)/meanMs(plain)-1)
	rep.set("layer_coverage_frac", s.coverage())
	rep.runtimeLayers(plain, plain.ok())
	rep.tracer = t
	return rep, nil
}
