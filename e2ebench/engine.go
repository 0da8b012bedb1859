package main

import (
	"context"
	"fmt"

	"qymera/internal/core"
	"qymera/internal/quantum"
	"qymera/internal/sim"
	"qymera/internal/sqlengine"
)

// simPruneEps is sim.SQL's default amplitude-pruning threshold, which
// the replay must pass to the translator to produce the same program.
// The self-check test holds the replay bit-identical to sim.SQL.
const simPruneEps = 1e-12

// replayer runs a circuit through the same public calls, in the same
// order and with the same default settings, as sim.SQL.RunContext, and
// records a span around each: plan-cache lookup (or translation without
// a cache), engine open, the setup and CTAS statements, the final
// query, the emit loop into a quantum.State, and engine close. Parse and
// plan cannot be timed inside ExecContext/QueryContext from outside the
// engine, so probes time ParseStatement and DB.Explain on the same text.
type replayer struct {
	mode   core.Mode
	cache  *sim.PlanCache
	budget int64
}

// replay fills r with the op's spans and counters and returns the final
// state and the translation it ran.
func (p *replayer) replay(ctx context.Context, r *opRec, c *quantum.Circuit) (*quantum.State, *core.Translation, error) {
	opts := core.Options{Mode: p.mode, PruneEps: simPruneEps}
	var tr *core.Translation
	var err error
	if p.cache != nil {
		var tier string
		_, err = r.time("sim.plan_lookup", false, func() (err error) {
			tr, tier, err = p.cache.TranslationTier(c, nil, opts)
			return err
		})
		r.add("sim.tier_"+tier, 1)
	} else {
		_, err = r.time("core.translate", false, func() (err error) {
			tr, err = core.Translate(c, nil, opts)
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}

	cfg := sqlengine.Config{MemoryBudget: p.budget}
	if p.cache != nil {
		cfg.KernelCache = p.cache.Kernels()
	}
	var db *sqlengine.DB
	if _, err := r.time("sqlengine.open", false, func() (err error) {
		db, err = sqlengine.Open(cfg)
		return err
	}); err != nil {
		return nil, nil, err
	}
	defer db.Close() // a no-op after the timed close below

	stmts := tr.FusedStatements()
	if _, err := r.time("sqlengine.setup_exec", false, func() error {
		for _, s := range stmts {
			if _, err := db.ExecContext(ctx, s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var rs *sqlengine.ResultSet
	queryDur, err := r.time("sqlengine.query", false, func() (err error) {
		rs, err = db.QueryContext(ctx, tr.Query)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	defer rs.Close()
	state := quantum.NewState(c.NumQubits())
	if _, err := r.time("sim.emit", false, func() error { return emit(rs, state) }); err != nil {
		return nil, nil, err
	}

	st := db.Stats()
	kc := db.KernelCounters()
	r.add("sqlengine.rows_out", float64(rs.Len()))
	r.add("sqlengine.peak_mb", float64(st.PeakBytes)/1e6)
	r.add("sqlengine.spilled_mb", float64(st.SpilledBytes)/1e6)
	r.add("sqlengine.spill_files", float64(st.SpillFiles))
	r.add("sqlengine.morsels_skipped", float64(db.StorageCounters()["morsels_skipped"]))
	for _, k := range []string{"executions", "fallbacks", "chain_elided", "cache_hits", "compiles"} {
		r.add("sqlengine.kernel_"+k, float64(kc[k]))
	}

	// Probes, on the still-open database after the query has run, so
	// they cannot warm a cache the op would otherwise have filled.
	if _, err := r.time("sqlengine.parse", true, func() error {
		for _, s := range stmts {
			if _, _, err := sqlengine.ParseStatement(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	queryParse, err := r.time("sqlengine.parse", true, func() error {
		_, _, err := sqlengine.ParseStatement(tr.Query)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	explainDur, err := r.time("sqlengine.plan", true, func() error {
		_, err := db.Explain(tr.Query)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	// Explain parses its text too: plan is Explain minus that parse, and
	// execute is what the query took beyond parse and plan.
	r.vals["sqlengine.plan_ms"] = ms(explainDur - queryParse)
	r.add("sqlengine.execute_ms", ms(queryDur-explainDur))

	if _, err := r.time("sqlengine.close", false, func() error {
		rs.Close()
		return db.Close()
	}); err != nil {
		return nil, nil, err
	}
	return state, tr, nil
}

// emit is sim.SQL's result loop: each (s, r, i) row becomes one
// amplitude of the state.
func emit(rs *sqlengine.ResultSet, state *quantum.State) error {
	for {
		row, ok, err := rs.Next()
		if err != nil || !ok {
			return err
		}
		s, err := row[0].AsInt()
		if err != nil {
			return fmt.Errorf("bad state index %v: %w", row[0], err)
		}
		re, err := row[1].AsFloat()
		if err != nil {
			return fmt.Errorf("bad real part %v: %w", row[1], err)
		}
		im, err := row[2].AsFloat()
		if err != nil {
			return fmt.Errorf("bad imaginary part %v: %w", row[2], err)
		}
		state.Set(uint64(s), complex(re, im))
	}
}

// probeFrontEnd times, after the op, what the plan cache saved it: a
// full translation of the circuit, and a rebind when the op took the
// structural tier.
func probeFrontEnd(r *opRec, c *quantum.Circuit, tr *core.Translation, mode core.Mode) error {
	opts := core.Options{Mode: mode, PruneEps: simPruneEps}
	if _, err := r.time("core.translate", true, func() error {
		_, err := core.Translate(c, nil, opts)
		return err
	}); err != nil {
		return err
	}
	if r.vals["sim.tier_"+sim.PlanTierStructuralRebind] == 0 {
		return nil
	}
	_, err := r.time("core.rebind", true, func() error {
		_, err := tr.Rebind(c, nil, opts)
		return err
	})
	return err
}
