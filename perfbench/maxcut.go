package main

import (
	"fmt"
	"time"

	"dsgl"
)

const (
	// The opt-maxcut instance and solve: a Gset-style random graph under
	// BRIM dynamics and the geometric schedule.
	optNodes    = 800
	optDegree   = 6
	optRestarts = 8
	// lowerReps is how many times the traced run times the Ising lowering.
	lowerReps = 5
)

// optOptions is the measured solve at the given worker count.
func optOptions(seed uint64, workers int) dsgl.OptOptions {
	return dsgl.OptOptions{
		Dynamics: dsgl.DynamicsBRIM,
		Schedule: "geometric",
		Restarts: optRestarts,
		Workers:  workers,
		Seed:     seed,
	}
}

// runOptMaxCut is the opt-maxcut workload: repeated dsgl.SolveMaxCut calls
// on one seeded instance at nproc workers, metrics off, as `dsgl opt` runs.
func runOptMaxCut(cfg *config, o *outcome) error {
	dsgl.DisableMetrics()
	// Set-up is generating the instance and one warm-up solve with a single
	// restart per worker, so the timed solves start warm.
	var g *dsgl.OptInstance
	var total, gen []float64
	n, err := repeatSetup(func() error {
		return o.tr.timed("setup", func(parent int64) error {
			start := time.Now()
			d, err := o.tr.child(parent, "datasets.gen", func() (err error) {
				g, err = dsgl.GsetInstance(optNodes, optDegree, false, cfg.seed)
				return err
			})
			gen = append(gen, ms(d))
			if err != nil {
				return err
			}
			warm := optOptions(cfg.seed, cfg.nproc)
			warm.Restarts = cfg.nproc
			_, err = dsgl.SolveMaxCut(g, warm)
			total = append(total, time.Since(start).Seconds())
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	o.setSampled("setup_s", median(total), n)
	o.set("datasets.gen_ms", median(gen))

	opts := optOptions(cfg.seed, cfg.nproc)
	var first *dsgl.OptReport
	pass := func(tr *tracer) ([]float64, time.Duration, error) {
		var solves []float64
		start := time.Now()
		for time.Since(start) < cfg.seconds {
			err := tr.timed("opt.solve", func(int64) error {
				t0 := time.Now()
				rep, err := dsgl.SolveMaxCut(g, opts)
				solves = append(solves, ms(time.Since(t0)))
				o.ops(1, 0)
				if err != nil {
					return err
				}
				if first == nil {
					first = rep
				}
				o.check(sameRun(rep, first), "opt-maxcut: a repeated solve found a different result")
				return nil
			})
			if err != nil {
				return nil, 0, err
			}
		}
		return solves, time.Since(start), nil
	}

	solves, elapsed, err := pass(nil)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	o.setSampled("p50_ms", median(solves), len(solves))
	o.setSampled("ops_per_s", float64(len(solves))/elapsed.Seconds(), len(solves))
	o.set("e2e.cut", first.Cut)
	o.set("opt.restarts_to_best", float64(first.Run.BestRestart+1))

	if cfg.trace {
		var lower []float64
		for i := 0; i < lowerReps; i++ {
			err := o.tr.timed("opt.lower", func(int64) error {
				t0 := time.Now()
				_, err := g.ToIsing()
				lower = append(lower, ms(time.Since(t0)))
				return err
			})
			if err != nil {
				return fmt.Errorf("lower: %w", err)
			}
		}
		o.setSampled("opt.lower_ms", median(lower), len(lower))
		traced, _, err := pass(o.tr)
		if err != nil {
			return fmt.Errorf("traced solve: %w", err)
		}
		o.set("trace.overhead_ms", median(traced)-median(solves))
		// Anneal wall × workers spread over every restart step of every edge.
		annealNs := (median(solves) - median(lower)) * 1e6
		o.set("ising.ns_per_edge_step", annealNs*float64(cfg.nproc)/float64(first.Run.Steps)/float64(first.Edges))
		spans := o.tr.snapshot()
		setTraceSelf(o, spans, selfTimes(spans))
	}

	checkMaxCut(o, g, first, cfg.seed)
	return nil
}

// checkMaxCut requires the solve to be worker-count independent and its cut
// to agree with its energy and its spins.
func checkMaxCut(o *outcome, g *dsgl.OptInstance, rep *dsgl.OptReport, seed uint64) {
	solo, err := dsgl.SolveMaxCut(g, optOptions(seed, 1))
	if !o.check(err == nil, "opt-maxcut: single-worker solve: %v", err) {
		return
	}
	o.check(sameRun(solo, rep), "opt-maxcut: 1-worker and multi-worker solves differ")
	want := (g.TotalWeight() - rep.Run.Best.Energy) / 2
	o.check(rep.Cut == want, "opt-maxcut: cut %v != (TotalWeight - best energy)/2 = %v", rep.Cut, want)
	o.check(g.CutValue(rep.Run.Best.Spins) == rep.Cut, "opt-maxcut: best spins cut %v, reported %v", g.CutValue(rep.Run.Best.Spins), rep.Cut)
}

// sameRun reports whether two solves found the identical result.
func sameRun(a, b *dsgl.OptReport) bool {
	if a.Cut != b.Cut || a.Run.BestRestart != b.Run.BestRestart || !sameBits(a.Run.Energies, b.Run.Energies) {
		return false
	}
	x, y := a.Run.Best.Spins, b.Run.Best.Spins
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
