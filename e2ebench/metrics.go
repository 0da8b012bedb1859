package main

// metricDef names one reported metric. target and workload record which
// end-to-end metric a per-layer metric is expected to move, and on which
// workloads that shows. BENCHMARK.json lists the same names, units and
// directions, and holds the end-to-end bounds; the self-check test keeps
// the two in step.
type metricDef struct {
	name, unit, better string
	target, workload   string // per-layer only
}

// endToEnd are the user-visible metrics of an untraced run that
// BENCHMARK.json gates. The cost of a circuit is gated as its CPU time
// in units of a reference computation's CPU time, measured in the same
// run (see refClock). On a shared host wall time also counts the time
// the benchmark's threads wait for a core that another tenant holds, and
// CPU time drifts with the speed of the host's cores, by a fifth or more
// between runs minutes apart.
var endToEnd = []metricDef{
	{name: "cpu_per_circuit_ref", unit: "x", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "alloc_mb_per_circuit", unit: "MB", better: "lower"},
	{name: "engine_peak_mb", unit: "MB", better: "lower"},
}

// ungated are printed with the end-to-end metrics of an untraced run:
// the raw CPU time per circuit and of one reference run, the wall-clock
// throughput and latencies a user of an unshared machine sees, and
// failed_frac, which reads 0 on a healthy run and which the result
// line's attempted/failed fields carry.
var ungated = []metricDef{
	{name: "cpu_ms_per_circuit", unit: "ms", better: "lower"},
	{name: "ref_cpu_ms", unit: "ms"},
	{name: "circuits_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p95_ms", unit: "ms", better: "lower"},
	{name: "failed_frac", unit: "ratio", better: "lower"},
}

const (
	tpCPU = "cpu_per_circuit_ref"
	tpCPS = "circuits_per_s"
	tpP50 = "latency_p50_ms"
	tpP95 = "latency_p95_ms"
	tpMem = "engine_peak_mb"
	tpAlc = "alloc_mb_per_circuit"

	onSweep   = "vqe_sweep,service_mix"
	onDense   = "dense_state"
	onOOC     = "out_of_core"
	onService = "service_mix"
	onAll     = "vqe_sweep,dense_state,service_mix,out_of_core"
)

// perLayer are the metrics of a traced run. A metric whose layer is not
// on a workload's path reads 0 there (no spill outside out_of_core, no
// HTTP outside service_mix, no rebind without a plan cache).
var perLayer = []metricDef{
	// Front end: parse, plan, translation and the caches in front of them.
	{name: "sqlengine.parse_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS + "," + tpP50, workload: onSweep},
	{name: "sqlengine.plan_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS + "," + tpP50, workload: onSweep},
	{name: "sim.plan_lookup_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS + "," + tpP50, workload: onSweep},
	{name: "core.translate_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS + "," + tpP50, workload: onSweep},
	{name: "core.rebind_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS + "," + tpP50, workload: onSweep},
	{name: "sim.plan_hit_ratio", unit: "ratio", better: "higher", target: tpCPU + "," + tpCPS, workload: onSweep},
	{name: "sim.plan_exact_hits", unit: "count", better: "higher", target: tpCPU + "," + tpCPS, workload: onSweep},
	{name: "sim.plan_rebinds", unit: "count", better: "higher", target: tpCPU + "," + tpCPS, workload: onSweep},
	{name: "sim.plan_misses", unit: "count", better: "lower", target: tpCPU + "," + tpCPS, workload: onSweep},
	{name: "sqlengine.kernel_cache_hit_ratio", unit: "ratio", better: "higher", target: tpCPU + "," + tpCPS, workload: onSweep},
	// Execution.
	{name: "sqlengine.open_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS, workload: onSweep},
	{name: "sqlengine.setup_exec_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sqlengine.query_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sqlengine.execute_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sqlengine.kernel_executions", unit: "count/op", better: "higher", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sqlengine.kernel_fallbacks", unit: "count/op", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sqlengine.chain_elided", unit: "count/op", better: "higher", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sim.emit_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sqlengine.rows_out", unit: "count/op", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sqlengine.close_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	// Storage.
	{name: "sqlengine.peak_mb", unit: "MB", better: "lower", target: tpCPU + "," + tpMem, workload: onOOC},
	{name: "sqlengine.spilled_mb", unit: "MB/op", better: "lower", target: tpCPU + "," + tpMem, workload: onOOC},
	{name: "sqlengine.spill_files", unit: "count/op", better: "lower", target: tpCPU + "," + tpMem, workload: onOOC},
	{name: "sqlengine.morsels_skipped", unit: "count/op", better: "higher", target: tpCPU + "," + tpCPS, workload: onOOC},
	// Service.
	{name: "service.http_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpP95, workload: onService},
	{name: "service.response_decode_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpP95, workload: onService},
	{name: "service.run_sync_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpP95, workload: onService},
	{name: "service.outside_backend_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpP95, workload: onService},
	{name: "service.queue_ms", unit: "ms", better: "lower", target: tpP95, workload: onService},
	{name: "circuitio.decode_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpP95, workload: onService},
	{name: "service.response_kb", unit: "KB", better: "lower", target: tpCPU + "," + tpP95, workload: onService},
	{name: "service.rejected_frac", unit: "ratio", better: "lower", target: tpCPU + "," + tpCPS, workload: onService},
	{name: "service.trace_default_cost_frac", unit: "ratio", better: "lower", target: tpCPU + "," + tpP95, workload: onService},
	// Runtime: heap bytes allocated inside each timed layer call.
	{name: "sqlengine.parse_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onSweep},
	{name: "sqlengine.plan_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onSweep},
	{name: "sim.plan_lookup_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onSweep},
	{name: "core.translate_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onSweep},
	{name: "core.rebind_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onSweep},
	{name: "sqlengine.setup_exec_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onAll},
	{name: "sqlengine.query_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onAll},
	{name: "sim.emit_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onDense},
	{name: "service.http_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onService},
	{name: "service.run_sync_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onService},
	{name: "circuitio.decode_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onService},
	{name: "sim.statevector_alloc_kb", unit: "KB", better: "lower", target: tpAlc, workload: onAll},
	{name: "go.gc_cycles_per_circuit", unit: "count/op", better: "lower", target: tpAlc + "," + tpCPU + "," + tpP95, workload: onAll},
	{name: "go.gc_pause_ms_per_circuit", unit: "ms", better: "lower", target: tpP95, workload: onService},
	// Share of traced op wall time spent in each layer's own span.
	{name: "sim.plan_lookup_share", unit: "ratio", better: "lower", target: tpCPU + "," + tpCPS, workload: onSweep},
	{name: "core.translate_share", unit: "ratio", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sqlengine.setup_exec_share", unit: "ratio", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sqlengine.query_share", unit: "ratio", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "sim.emit_share", unit: "ratio", better: "lower", target: tpCPU + "," + tpCPS, workload: onDense},
	{name: "service.http_share", unit: "ratio", better: "lower", target: tpP95, workload: onService},
	// Harness facts and the statevector yardstick.
	{name: "trace_overhead_frac", unit: "ratio", better: "lower", target: tpCPU + "," + tpCPS, workload: onAll},
	{name: "layer_coverage_frac", unit: "ratio", better: "higher", target: tpCPU + "," + tpCPS, workload: onAll},
	{name: "sim.statevector_ms", unit: "ms", better: "lower", target: tpCPU + "," + tpCPS, workload: onAll},
	{name: "sim.rdbms_overhead_x", unit: "x", better: "lower", target: tpCPU + "," + tpCPS, workload: onAll},
}
