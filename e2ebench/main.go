// Command e2ebench is Qymera's end-to-end benchmark. One run measures
// one workload for a fixed time through the public entry points — the
// SQL backend's RunContext for direct workloads, POST /v1/simulate on a
// loopback service for service_mix — checks every result, and prints
// its metrics. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it replays ops with a span around each layer call and
// reports the per-layer ledger. The last line of standard output is the
// result as one JSON object.
//
//	go run . --workload vqe_sweep --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"qymera/internal/sim"
)

// setupsPerRun is how many times a run sets up; setup_s is the median.
const setupsPerRun = 7

type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	setups   int
	commit   string
	spanDir  string
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
	tracer            *tracer
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) count(l loopStats) {
	r.attempted += l.attempted
	r.failed += l.failed
	if r.firstErr == nil {
		r.firstErr = l.firstErr
	}
}

// endToEnd fills the untraced run's metrics from a loop of clients
// closed-loop clients that measured for d. The gated cost of a circuit
// is its CPU time over the median CPU time of a reference run (see
// refClock); the raw CPU time and the wall-clock throughput and
// latencies are printed with it. Throughput and median latency are
// medians over the run's windows; a window's throughput is its clients
// divided by its mean op latency, which for a closed loop is its rate of
// completed ops. The tail needs every sample, so p95 is taken over the
// whole run.
func (r *report) endToEnd(l loopStats, clients int, d time.Duration, setups []float64) {
	r.count(l)
	var lat [windows][]float64
	var all []float64
	part := d / windows
	for _, s := range l.samples {
		k := min(int(s.at/part), windows-1)
		lat[k] = append(lat[k], ms(s.lat))
		all = append(all, ms(s.lat))
	}
	var cps, p50 []float64
	for _, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		cps = append(cps, float64(clients*len(xs))*1e3/sum)
		p50 = append(p50, quantile(xs, 0.5))
	}
	ok := float64(max(l.ok(), 1))
	cpu, ref := ms(l.cpu)/ok, quantile(l.ref.ms, 0.5)
	r.set("cpu_per_circuit_ref", cpu/ref)
	r.set("cpu_ms_per_circuit", cpu)
	r.set("ref_cpu_ms", ref)
	r.set("circuits_per_s", quantile(cps, 0.5))
	r.set("latency_p50_ms", quantile(p50, 0.5))
	r.set("latency_p95_ms", quantile(all, 0.95))
	r.set("setup_s", quantile(setups, 0.5))
	r.set("alloc_mb_per_circuit", float64(l.allocBytes)/ok/1e6)
	r.set("engine_peak_mb", l.peakMB)
	r.set("failed_frac", float64(l.failed)/float64(max(l.attempted, 1)))
}

// engineLayers fills the engine, translation and yardstick metrics from
// the replayed ops of one phase.
func (r *report) engineLayers(s phaseSummary) {
	for _, name := range []string{
		"sqlengine.parse_ms", "sqlengine.plan_ms", "sim.plan_lookup_ms", "core.translate_ms", "core.rebind_ms",
		"sqlengine.open_ms", "sqlengine.setup_exec_ms", "sqlengine.query_ms", "sqlengine.execute_ms",
		"sim.emit_ms", "sqlengine.close_ms", "sim.statevector_ms",
		"sqlengine.parse_alloc_kb", "sqlengine.plan_alloc_kb", "sim.plan_lookup_alloc_kb",
		"core.translate_alloc_kb", "core.rebind_alloc_kb", "sqlengine.setup_exec_alloc_kb",
		"sqlengine.query_alloc_kb", "sim.emit_alloc_kb", "sim.statevector_alloc_kb",
	} {
		r.set(name, s.median(name))
	}
	for _, name := range []string{
		"sqlengine.kernel_executions", "sqlengine.kernel_fallbacks", "sqlengine.rows_out", "sqlengine.spilled_mb", "sqlengine.spill_files", "sqlengine.morsels_skipped",
	} {
		r.set(name, s.perOp(name))
	}
	r.set("sqlengine.chain_elided", s.perOp("sqlengine.kernel_chain_elided"))
	r.set("sqlengine.peak_mb", quantile(s.samples["sqlengine.peak_mb"], 1))
	for _, layer := range []string{"sim.plan_lookup", "core.translate", "sqlengine.setup_exec", "sqlengine.query", "sim.emit"} {
		r.set(layer+"_share", s.share(layer))
	}

	tier := func(t string) float64 { return s.sums["sim.tier_"+t] }
	exact, rebind, miss := tier(sim.PlanTierExactHit), tier(sim.PlanTierStructuralRebind), tier(sim.PlanTierMiss)
	r.set("sim.plan_exact_hits", exact)
	r.set("sim.plan_rebinds", rebind)
	r.set("sim.plan_misses", miss)
	if lookups := exact + rebind + miss; lookups > 0 {
		r.set("sim.plan_hit_ratio", (exact+rebind)/lookups)
	}
	if hits, compiles := s.sums["sqlengine.kernel_cache_hits"], s.sums["sqlengine.kernel_compiles"]; hits+compiles > 0 {
		r.set("sqlengine.kernel_cache_hit_ratio", hits/(hits+compiles))
	}
	if sv := s.sums["sim.statevector_ms"]; sv > 0 {
		r.set("sim.rdbms_overhead_x", s.wallMs/sv)
	}
}

// runtimeLayers fills the GC metrics from the counters in l, taken over
// ops completed ops.
func (r *report) runtimeLayers(l loopStats, ops int) {
	n := float64(max(ops, 1))
	r.set("go.gc_cycles_per_circuit", float64(l.gcCycles)/n)
	r.set("go.gc_pause_ms_per_circuit", ms(l.gcPause)/n)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// facts are the machine and run facts printed with every result.
type facts struct {
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Setups     int     `json:"setups"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
}

func run(ctx context.Context, cfg runConfig) (*report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	warm, sched := w.build(rand.New(rand.NewSource(cfg.seed)))
	if err := prepare(ctx, w, warm); err != nil {
		return nil, err
	}
	if err := prepare(ctx, w, sched); err != nil {
		return nil, err
	}
	if w.service {
		return runService(ctx, w, warm, sched, cfg)
	}
	return runDirect(ctx, w, warm, sched, cfg)
}

// result renders the report's metrics for the run's mode.
func (r *report) result(trace bool) resultJSON {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultJSON{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	out.Correct = r.attempted > 0 && r.failed == 0
	for _, d := range defs {
		out.Metrics[d.name] = metricJSON{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

func main() {
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: vqe_sweep, dense_state, service_mix or out_of_core")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit of the code under test, reported with the result")
	flag.StringVar(&cfg.spanDir, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.duration = time.Duration(seconds) * time.Second
	cfg.setups = setupsPerRun
	cfg.trace = trace == 1
	if err := mainErr(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func mainErr(cfg runConfig) error {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		return err
	}
	if rep.firstErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: first failed op:", rep.firstErr)
	}
	if rep.tracer != nil {
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := rep.tracer.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	f := facts{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.duration.Seconds(),
		Clients: w.clients, Setups: cfg.setups, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: cfg.commit,
	}
	fb, err := json.Marshal(f)
	if err != nil {
		return err
	}
	fmt.Printf("facts %s\n", fb)
	defs := perLayer
	if !cfg.trace {
		defs = append(endToEnd[:len(endToEnd):len(endToEnd)], ungated...)
	}
	for _, d := range defs {
		fmt.Printf("%-36s %14.6g %s\n", d.name, rep.values[d.name], d.unit)
	}
	out, err := json.Marshal(rep.result(cfg.trace))
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
