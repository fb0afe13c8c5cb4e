package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"dsgl"
)

const (
	// evalWindows is the scalable model's window set per pass: deep
	// temporal multiplexing makes each window tens of milliseconds.
	evalWindows = 24
	// denseWindows is the dense model's window set per pass.
	denseWindows = 256
	// densePasses is how many dense passes follow each scalable pass.
	densePasses = 4
	// seqWindows is the subset the parallel/sequential identity check runs.
	seqWindows = 4
)

// evalModels is the eval-batch set-up: one dataset, two trained models.
type evalModels struct {
	ds              *dsgl.Dataset
	scalable, dense *dsgl.Model
}

// buildEval generates the dataset and trains both models.
func buildEval(tr *tracer) (*evalModels, stages, error) {
	var st stages
	em := &evalModels{}
	err := tr.timed("setup", func(parent int64) error {
		var err error
		if st.gen, err = tr.child(parent, "datasets.gen", func() (err error) {
			em.ds, err = dsgl.NewDataset("traffic", dsgl.DatasetConfig{N: 24, Seed: 3})
			return err
		}); err != nil {
			return err
		}
		st.train, err = tr.child(parent, "train.train", func() (err error) {
			if em.scalable, err = dsgl.Train(em.ds, dsgl.Options{Seed: 7, Lanes: 6}); err != nil {
				return err
			}
			em.dense, err = dsgl.Train(em.ds, dsgl.Options{Seed: 7, Backend: dsgl.BackendDense})
			return err
		})
		return err
	})
	return em, st, err
}

// evalPass is what one measuring pass observed.
type evalPass struct {
	scalableMs, denseMs []float64 // wall per EvaluateParallel call
	util                []float64 // pool utilization after each scalable call
	rep, denseRep       *dsgl.Report
	elapsed             time.Duration
}

// runEvalBatch is the eval-batch workload: the `dsgl eval` path,
// Model.EvaluateParallel at nproc workers, in repeated passes over fixed
// window sets of a scalable (Lanes 6) and a dense model, metrics off.
func runEvalBatch(cfg *config, o *outcome) error {
	dsgl.DisableMetrics()
	var em *evalModels
	var total, gen, train []float64
	n, err := repeatSetup(func() error {
		var st stages
		var err error
		if em, st, err = buildEval(o.tr); err != nil {
			return err
		}
		total = append(total, (st.gen + st.train).Seconds())
		gen = append(gen, ms(st.gen))
		train = append(train, ms(st.train))
		return nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	o.setSampled("setup_s", median(total), n)
	o.set("datasets.gen_ms", median(gen))
	o.set("train.train_ms", median(train))

	// Both window sets are fixed strided samples of the test split, so every
	// seed measures the same windows; the seed shuffles their order, which
	// changes the anneal seed each window runs with.
	_, test := em.ds.Split()
	r := rand.New(rand.NewPCG(cfg.seed, 1))
	idxS, idxD := strided(len(test), evalWindows), strided(len(test), denseWindows)
	r.Shuffle(len(idxS), func(i, j int) { idxS[i], idxS[j] = idxS[j], idxS[i] })
	r.Shuffle(len(idxD), func(i, j int) { idxD[i], idxD[j] = idxD[j], idxD[i] })
	ws, wd := subset(test, idxS), subset(test, idxD)
	// Warm-up pass: plans compiled, state pools filled.
	if _, err := em.scalable.EvaluateParallel(ws, cfg.nproc); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if _, err := em.dense.EvaluateParallel(wd, cfg.nproc); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	pass := func(tr *tracer) (*evalPass, error) {
		p := &evalPass{}
		start := time.Now()
		for time.Since(start) < cfg.seconds {
			err := tr.timed("eval.pass", func(int64) error {
				t0 := time.Now()
				rep, err := em.scalable.EvaluateParallel(ws, cfg.nproc)
				p.scalableMs = append(p.scalableMs, ms(time.Since(t0)))
				o.ops(len(ws), 0)
				if err != nil {
					return err
				}
				if p.rep == nil {
					p.rep = rep
				}
				o.check(math.Float64bits(rep.RMSE) == math.Float64bits(p.rep.RMSE), "eval-batch: scalable RMSE changed between passes")
				return nil
			})
			if err != nil {
				return nil, err
			}
			if tr != nil {
				if g, ok := readCounters()["dsgl_pool_utilization"]; ok {
					p.util = append(p.util, g)
				}
			}
			for k := 0; k < densePasses; k++ {
				err := tr.timed("eval.dense_pass", func(int64) error {
					t0 := time.Now()
					rep, err := em.dense.EvaluateParallel(wd, cfg.nproc)
					p.denseMs = append(p.denseMs, ms(time.Since(t0)))
					o.ops(len(wd), 0)
					if err != nil {
						return err
					}
					if p.denseRep == nil {
						p.denseRep = rep
					}
					o.check(math.Float64bits(rep.RMSE) == math.Float64bits(p.denseRep.RMSE), "eval-batch: dense RMSE changed between passes")
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
		}
		p.elapsed = time.Since(start)
		return p, nil
	}

	u, err := pass(nil)
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	windowsPerS := float64(len(ws)*len(u.scalableMs)) / (sum(u.scalableMs) / 1e3)
	o.setSampled("p50_ms", median(u.scalableMs), len(u.scalableMs))
	o.setSampled("ops_per_s", windowsPerS, len(ws)*len(u.scalableMs))
	o.setSampled("e2e.dense_windows_per_s", float64(len(wd)*len(u.denseMs))/(sum(u.denseMs)/1e3), len(wd)*len(u.denseMs))
	o.set("e2e.rmse", u.rep.RMSE)
	o.set("e2e.sim_latency_us", u.rep.MeanLatencyUs)

	if cfg.trace {
		dsgl.EnableMetrics()
		before := readCounters()
		t, err := pass(o.tr)
		if err != nil {
			return fmt.Errorf("traced evaluate: %w", err)
		}
		d := readCounters().since(before)
		// Scalable last, so the engine.* figures are the scalable model's.
		engineLayer(o, d, em.dense)
		engineLayer(o, d, em.scalable)
		util := mean(t.util)
		o.setSampled("pool.utilization", util, len(t.util))
		// The pool's busy time is the engine's wall time per inference, so
		// engine wall ÷ (workers × utilization) should give back the wall
		// time of the scalable passes.
		engineS := d["dsgl_infer_wall_seconds{scalable}_sum"]
		predicted := engineS * 1e3 / (float64(cfg.nproc) * util) / float64(len(t.scalableMs))
		o.set("pool.unaccounted_ms", math.Abs(mean(t.scalableMs)-predicted))
		o.set("trace.overhead_ms", median(t.scalableMs)-median(u.scalableMs))
		spans := o.tr.snapshot()
		setTraceSelf(o, spans, selfTimes(spans))
		if err := probeModel(o, em.scalable, test, idxS); err != nil {
			return err
		}
		if err := probeModel(o, em.dense, test, idxD); err != nil {
			return err
		}
		dsgl.DisableMetrics()
	}

	checkSequential(o, em.scalable, ws[:seqWindows], cfg.nproc)
	checkSequential(o, em.dense, wd[:seqWindows*4], cfg.nproc)
	return nil
}

// checkSequential requires EvaluateParallel's RMSE to be bit-equal to the
// sequential Evaluate's on the same windows.
func checkSequential(o *outcome, m *dsgl.Model, ws []dsgl.Window, workers int) {
	par, err := m.EvaluateParallel(ws, workers)
	if !o.check(err == nil, "eval-batch: %v", err) {
		return
	}
	seq, err := m.Evaluate(ws)
	if !o.check(err == nil, "eval-batch: %v", err) {
		return
	}
	o.check(sameBits([]float64{par.RMSE, par.MeanLatencyUs}, []float64{seq.RMSE, seq.MeanLatencyUs}),
		"eval-batch: %s parallel (RMSE %v, mean latency %v us) differs from sequential (%v, %v)",
		m.Opts.Backend, par.RMSE, par.MeanLatencyUs, seq.RMSE, seq.MeanLatencyUs)
}

// strided returns n indices spread evenly over [0, total).
func strided(total, n int) []int {
	n = min(n, total)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i * total / n
	}
	return idx
}

// subset returns the windows at the given indices.
func subset(ws []dsgl.Window, idx []int) []dsgl.Window {
	out := make([]dsgl.Window, len(idx))
	for i, k := range idx {
		out[i] = ws[k]
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
