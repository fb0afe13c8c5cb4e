package main

// metricDef is one reported metric. The lists below are the single source
// of the names, units and directions BENCHMARK.json declares; a test keeps
// the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run prints. Every workload reports
// every one of them, each for its own unit of work (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

// perLayer are the metrics a traced run prints. A layer the workload does
// not exercise reads 0.
var perLayer = []metricDef{
	// Workload figures from the untraced half of a traced run.
	{"e2e.p99_ms", "ms", "lower"},
	{"e2e.cold_tick_ms", "ms", "lower"},
	{"e2e.dense_windows_per_s", "1/s", "higher"},
	{"e2e.sim_latency_us", "us", "lower"},
	{"e2e.rmse", "ratio", "lower"},
	{"e2e.cut", "count", "higher"},

	// Tracing itself.
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.self_client_ms", "ms", "lower"},
	{"trace.self_handler_ms", "ms", "lower"},
	{"trace.self_setup_ms", "ms", "lower"},

	// internal/serve, timed from middleware around Server.Handler and
	// read from the dsgl_serve_* counters.
	{"serve.handler_p50_ms", "ms", "lower"},
	{"serve.handler_p99_ms", "ms", "lower"},
	{"serve.client_overhead_p50_ms", "ms", "lower"},
	{"serve.unaccounted_ms", "ms", "lower"},
	{"serve.gen_late_p99_ms", "ms", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.solo_ratio", "ratio", "lower"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"serve.self_mean_ms", "ms", "lower"},
	{"serve.stream_handler_p50_ms", "ms", "lower"},
	{"serve.register_ms", "ms", "lower"},
	{"serve.start_ms", "ms", "lower"},

	// internal/engine counters.
	{"engine.infer_wall_mean_ms", "ms", "lower"},
	{"engine.plan_hit_rate", "ratio", "higher"},
	{"engine.plan_delta_hit_rate", "ratio", "higher"},
	{"engine.state_pool_hit_rate", "ratio", "higher"},

	// internal/scalable and internal/dspu: step counts and step cost.
	{"scalable.steps_per_infer", "count", "lower"},
	{"scalable.ns_per_step", "ns", "lower"},
	{"scalable.ns_per_nnz_step", "ns", "lower"},
	{"scalable.switches_per_infer", "count", "lower"},
	{"scalable.settled_ratio", "ratio", "higher"},
	{"scalable.useful_step_ratio", "ratio", "higher"},
	{"dspu.steps_per_infer", "count", "lower"},
	{"dspu.ns_per_step", "ns", "lower"},
	{"dspu.useful_step_ratio", "ratio", "higher"},

	// internal/pool.
	{"pool.utilization", "ratio", "higher"},
	{"pool.unaccounted_ms", "ms", "lower"},

	// internal/ising and internal/opt.
	{"ising.ns_per_edge_step", "ns", "lower"},
	{"opt.restarts_to_best", "count", "lower"},
	{"opt.lower_ms", "ms", "lower"},

	// internal/datasets and internal/train: the set-up stages.
	{"datasets.gen_ms", "ms", "lower"},
	{"train.train_ms", "ms", "lower"},
}
