package main

import "dsgl"

// counterSet is a flat reading of the program's metrics registry
// (dsgl.MetricsSnapshot). Keys are the instrument name with the backend
// label in braces when there is one, e.g. dsgl_infer_total{scalable};
// histograms and summaries contribute name_count and name_sum.
type counterSet map[string]float64

func readCounters() counterSet {
	out := counterSet{}
	for _, m := range dsgl.MetricsSnapshot() {
		key := m.Name
		if b := m.Labels["backend"]; b != "" {
			key += "{" + b + "}"
		}
		switch m.Kind {
		case "counter":
			out[key] += float64(m.Count)
		case "gauge":
			if m.Value != nil {
				out[key] = *m.Value
			}
		case "histogram", "summary":
			out[key+"_count"] += float64(m.SampleCount)
			if m.SampleSum != nil {
				out[key+"_sum"] += *m.SampleSum
			}
		}
	}
	return out
}

// since returns c minus base for every key: the counts a phase added.
// Gauges are differenced too, so read gauges from an undifferenced set.
func (c counterSet) since(base counterSet) counterSet {
	d := counterSet{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// engineLayer derives the engine metrics and those of the model's backend
// layer ("scalable" or "dspu", the backend's name) from a phase's counter
// deltas. The scalable per-nonzero step cost divides by the nonzeros of
// the model's Tuned.J.
func engineLayer(o *outcome, d counterSet, m *dsgl.Model) {
	backend := m.Engine().Backend().Name()
	b := "{" + backend + "}"
	infers := d["dsgl_infer_total"+b]
	steps := d["dsgl_anneal_steps_total"+b]
	wallS := d["dsgl_infer_wall_seconds"+b+"_sum"]
	o.set(backend+".steps_per_infer", ratio(steps, infers))
	nsPerStep := ratio(wallS*1e9, steps)
	o.set(backend+".ns_per_step", nsPerStep)
	if backend == "scalable" {
		o.set("scalable.ns_per_nnz_step", ratio(nsPerStep, float64(m.Tuned.J.NNZ(0))))
		o.set("scalable.settled_ratio", ratio(d["dsgl_infer_settled_total"+b], infers))
	}
	o.set("engine.infer_wall_mean_ms", ratio(wallS*1e3, infers))
	hits, misses := d["dsgl_plan_cache_hits_total"+b], d["dsgl_plan_cache_misses_total"+b]
	o.set("engine.plan_hit_rate", ratio(hits, hits+misses))
	ph, pm := d["dsgl_state_pool_hits_total"+b], d["dsgl_state_pool_misses_total"+b]
	o.set("engine.state_pool_hit_rate", ratio(ph, ph+pm))
}
