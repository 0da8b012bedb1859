package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"qymera/internal/circuitio"
	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
	"qymera/internal/service"
	"qymera/internal/sim"
)

// op is one scheduled simulation with its expected result, which is
// computed before any timing starts.
type op struct {
	kind    string
	circuit *quantum.Circuit
	// backend is the service backend, "sql" or "sql-chain"; direct
	// workloads always run "sql".
	backend string
	body    []byte // service_mix: the POST /v1/simulate body
	doc     []byte // service_mix: the circuit document inside body
	// want is the statevector result (direct workloads, fidelity check;
	// nil for a one-off circuit, see prepare) or a direct sim.SQL result
	// (service_mix, bit-identity check against wantAmps).
	want     *quantum.State
	wantAmps []service.Amplitude
	refErr   error // the reference itself was wrong; every run of the op fails
}

func (o *op) mode() core.Mode {
	if o.backend == "sql-chain" {
		return core.MaterializedChain
	}
	return core.SingleQuery
}

// workload is one named input mix. Its schedule repeats cyclically;
// warm-up ops are distinct inputs of the same kinds, run during set-up
// to fill the plan and kernel caches.
type workload struct {
	name    string
	why     string
	clients int
	// block is the length of the schedule's cycle of circuit kinds; the
	// traced run alternates blocks of plain and traced ops.
	block   int
	service bool
	cache   bool  // direct: one shared PlanCache (otherwise the library default, none)
	budget  int64 // direct: engine MemoryBudget in bytes (0 = unlimited)
	build   func(rng *rand.Rand) (warm, sched []op)
}

var workloads = []workload{
	{
		name:    "vqe_sweep",
		why:     "variational loop: 8-qubit ansatz with fresh parameters (plan rebind) plus exact GHZ-12 repeats; tiny states, so front-end and caching dominate",
		clients: 1,
		block:   4,
		cache:   true,
		build: func(rng *rand.Rand) (warm, sched []op) {
			ghz := circuits.GHZ(12)
			ansatz := func() op {
				return op{kind: "ansatz-8x3", circuit: circuits.HardwareEfficientAnsatz(8, 3, angles(rng, 48))}
			}
			warm = []op{ansatz(), {kind: "ghz-12", circuit: ghz}}
			for i := 0; i < 256; i++ {
				if i%4 == 3 {
					sched = append(sched, op{kind: "ghz-12", circuit: ghz})
				} else {
					sched = append(sched, ansatz())
				}
			}
			return warm, sched
		},
	},
	{
		name:    "dense_state",
		why:     "dense states (H on 15 qubits, QFT-12, and seeded random 13-qubit circuits as half the ops) without a plan cache; execution, sort and emit dominate",
		clients: 1,
		block:   4,
		build: func(rng *rand.Rand) (warm, sched []op) {
			h := circuits.EqualSuperposition(15)
			qft := circuits.QFT(12)
			dense := func() op { return op{kind: "random-dense-13x3", circuit: circuits.RandomDense(13, 3, rng.Int63())} }
			// Without a plan cache there is no cache to fill; warm-up runs
			// the fixed circuits, so set-up time does not vary by seed.
			warm = []op{{kind: "h-15", circuit: h}, {kind: "qft-12", circuit: qft}}
			// Random circuits differ in cost by up to 3x. Half the ops are
			// random, so the median falls inside their cluster rather than
			// on the edge between two circuit kinds, and a run draws each
			// from 256 distinct ones, more than it gets through.
			for i := 0; i < 128; i++ {
				sched = append(sched, op{kind: "h-15", circuit: h}, dense(), op{kind: "qft-12", circuit: qft}, dense())
			}
			return warm, sched
		},
	},
	{
		name:    "service_mix",
		why:     "2 closed-loop HTTP clients on a default server: GHZ-10 and QFT-8 repeats, 6-qubit ansatz sweeps, 1 op in 4 on sql-chain",
		clients: 2,
		block:   12,
		service: true,
		build: func(rng *rand.Rand) (warm, sched []op) {
			ghz, qft := circuits.GHZ(10), circuits.QFT(8)
			mk := func(i int) op {
				o := op{backend: "sql"}
				if i%4 == 3 {
					o.backend = "sql-chain"
				}
				switch i % 3 {
				case 0:
					o.kind, o.circuit = "ghz-10", ghz
				case 1:
					o.kind, o.circuit = "qft-8", qft
				default:
					o.kind, o.circuit = "ansatz-6x2", circuits.HardwareEfficientAnsatz(6, 2, angles(rng, 24))
				}
				return o
			}
			for i := 0; i < 12; i++ {
				if o := mk(i); o.backend == "sql-chain" || i < 3 {
					warm = append(warm, o)
				}
			}
			for i := 0; i < 240; i++ {
				sched = append(sched, mk(i))
			}
			return warm, sched
		},
	},
	{
		name:    "out_of_core",
		why:     "QFT-10 under a 192 KiB engine memory budget: every op spills about 14k rows, the only workload on the spill writer and reader",
		clients: 1,
		block:   1,
		// Spilling costs at least ~140 ms an op here, whatever the size;
		// QFT-10 keeps the latency tail of a run to well over 100 ops.
		budget: 192 << 10,
		build: func(*rand.Rand) (warm, sched []op) {
			qft := circuits.QFT(10)
			return []op{{kind: "qft-10", circuit: qft}}, []op{{kind: "qft-10", circuit: qft}}
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func angles(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 2 * math.Pi
	}
	return out
}

// minFidelity is the direct-op oracle: the SQL state must match the
// statevector state of the same circuit to within 1e-8 fidelity.
const minFidelity = 1 - 1e-8

// prepare computes the reference results that are stored before any
// timing starts. Service ops are checked for bit-identity against a
// direct sim.SQL run of the same circuit and mode, which must itself pass
// the statevector check. Direct ops are checked against the statevector
// backend: a circuit the schedule repeats gets its reference here, and a
// one-off circuit right after its op, outside the op's window. Storing
// hundreds of dense reference states would inflate the live heap, and
// with it the garbage collector's pacing, that the measured ops run in.
func prepare(ctx context.Context, w workload, ops []op) error {
	uses := map[*quantum.Circuit]int{}
	for i := range ops {
		uses[ops[i].circuit]++
	}
	sv := &sim.StateVector{}
	svRef := map[*quantum.Circuit]*quantum.State{}
	sqlRef := map[[2]any]*quantum.State{}
	for i := range ops {
		o := &ops[i]
		if !w.service {
			o.backend = "sql"
			if uses[o.circuit] == 1 {
				continue
			}
		}
		ref, ok := svRef[o.circuit]
		if !ok {
			res, err := sv.RunContext(ctx, o.circuit)
			if err != nil {
				return fmt.Errorf("statevector reference for %s: %w", o.kind, err)
			}
			ref = res.State
			svRef[o.circuit] = ref
		}
		if !w.service {
			o.want = ref
			continue
		}
		doc, err := circuitio.MarshalJSON(o.circuit)
		if err != nil {
			return err
		}
		o.doc = doc
		if o.body, err = json.Marshal(service.Request{Circuit: doc, Backend: o.backend}); err != nil {
			return err
		}
		key := [2]any{o.circuit, o.backend}
		got, ok := sqlRef[key]
		if !ok {
			res, err := (&sim.SQL{Mode: o.mode()}).RunContext(ctx, o.circuit)
			if err != nil {
				o.refErr = fmt.Errorf("direct sim.SQL reference: %w", err)
				continue
			}
			got = res.State
			sqlRef[key] = got
		}
		if f := got.Fidelity(ref); !(f >= minFidelity) {
			o.refErr = fmt.Errorf("direct sim.SQL reference has fidelity %v against statevector", f)
		}
		o.want, o.wantAmps = got, amplitudes(got)
	}
	return nil
}

// amplitudes lists a state's amplitudes by ascending index, as the
// service writes them.
func amplitudes(st *quantum.State) []service.Amplitude {
	idx := st.Indices()
	out := make([]service.Amplitude, len(idx))
	for i, s := range idx {
		a := st.Amplitude(s)
		out[i] = service.Amplitude{S: s, R: real(a), I: imag(a)}
	}
	return out
}

// checkState is the direct-op oracle.
func (o *op) checkState(ctx context.Context, got *quantum.State) error {
	if o.refErr != nil {
		return o.refErr
	}
	want := o.want
	if want == nil {
		res, err := (&sim.StateVector{}).RunContext(ctx, o.circuit)
		if err != nil {
			return fmt.Errorf("statevector reference for %s: %w", o.kind, err)
		}
		want = res.State
	}
	if f := got.Fidelity(want); !(f >= minFidelity) {
		return fmt.Errorf("%s: fidelity %v against statevector", o.kind, f)
	}
	return nil
}

// checkAmps is the service-op oracle: bit-identical amplitudes.
func (o *op) checkAmps(got []service.Amplitude) error {
	if o.refErr != nil {
		return o.refErr
	}
	if len(got) != len(o.wantAmps) {
		return fmt.Errorf("%s: %d amplitudes, want %d", o.kind, len(got), len(o.wantAmps))
	}
	for i, a := range got {
		w := o.wantAmps[i]
		if a.S != w.S || math.Float64bits(a.R) != math.Float64bits(w.R) || math.Float64bits(a.I) != math.Float64bits(w.I) {
			return fmt.Errorf("%s: amplitude %d is %+v, want %+v", o.kind, i, a, w)
		}
	}
	return nil
}
