package main

import (
	"fmt"

	"dsgl"
	"dsgl/internal/engine"
)

// probeWindows is the window sample of the waste probe.
const probeWindows = 8

// probeModel runs the waste probe on the first probeWindows windows of
// order and records it under the model's backend layer.
func probeModel(o *outcome, m *dsgl.Model, windows []dsgl.Window, order []int) error {
	sample := make([][]engine.Observation, 0, probeWindows)
	seeds := make([]uint64, 0, probeWindows)
	for _, k := range order[:min(probeWindows, len(order))] {
		obs, err := m.WindowObservations(windows[k])
		if err != nil {
			return fmt.Errorf("waste probe: %w", err)
		}
		sample = append(sample, obs)
		seeds = append(seeds, uint64(k))
	}
	useful, switches, err := usefulSteps(m.Engine(), sample, seeds)
	if err != nil {
		return err
	}
	backend := m.Engine().Backend().Name()
	o.setSampled(backend+".useful_step_ratio", useful, len(sample))
	if backend == "scalable" {
		o.set("scalable.switches_per_infer", switches)
	}
	return nil
}

// usefulSteps is the waste probe. It anneals each observation set cold
// with a StepObserver that evaluates the backend's full residual after
// every step, and returns the mean over the sample of (first step at which
// the residual is under SettleResidualTol) ÷ (steps the anneal took), plus
// the mean mapping switches per inference. A ratio below 1 is work the
// loop did after the system had already settled.
func usefulSteps(eng *engine.Engine, sample [][]engine.Observation, seeds []uint64) (useful, switches float64, err error) {
	b := eng.Backend()
	tol := b.SettleResidualTol()
	st := eng.NewInferState()
	var first int
	var obsErr error
	st.SetObserver(func(si engine.StepInfo) {
		if first > 0 || obsErr != nil {
			return
		}
		r, err := b.ResidualAt(si.X, st.Clamped)
		if err != nil {
			obsErr = err
			return
		}
		if r < tol {
			first = si.Step + 1
		}
	})
	var ratios, sw []float64
	for i, obs := range sample {
		first = 0
		res, err := eng.InferWith(st, obs, seeds[i])
		if err != nil {
			return 0, 0, fmt.Errorf("waste probe: %w", err)
		}
		if obsErr != nil {
			return 0, 0, fmt.Errorf("waste probe: residual: %w", obsErr)
		}
		if first == 0 {
			first = res.Steps
		}
		ratios = append(ratios, ratio(float64(first), float64(res.Steps)))
		sw = append(sw, float64(res.Switches))
	}
	return mean(ratios), mean(sw), nil
}
