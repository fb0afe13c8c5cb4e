package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"dsgl"
	"dsgl/internal/serve"
)

const (
	// serveRate is the open-loop offered load of phase A in requests per
	// second. It sits well under the 230-280 req/s at which nproc = 2
	// connections saturate, where the share of requests that wait for a
	// busy core, and with it p50, swings from run to run; here the 2 ms
	// batch window is about a quarter of p50, so serve-layer changes show.
	serveRate = 70.0
	// phaseAShare is the share of the run spent in phase A: at 24 s it
	// yields about 1200 samples, more than the 1010 a p99 needs. Phase B,
	// the closed loop, takes the rest.
	phaseAShare = 0.72
	// refEvery picks the phase-A requests whose values are checked against
	// a solo engine reference.
	refEvery = 20
)

// inferPhase is what one pass of the serve-infer load observed.
type inferPhase struct {
	times []timing // phase A
	errs  []error
	resps []serve.InferResponse
	// Phase B.
	closedOK, closedFailed int
	closedElapsed          time.Duration
}

// runServeInfer is the serve-infer workload: an in-process dsgld serving a
// traffic model, driven open loop at serveRate (phase A) and then closed
// loop by nproc callers (phase B).
func runServeInfer(cfg *config, o *outcome) error {
	sv, err := setupServed(o, dsgl.DatasetConfig{N: 16, Seed: 7}, dsgl.Options{Seed: 7})
	if err != nil {
		return err
	}
	drained := false
	defer func() {
		if !drained {
			_ = sv.srv.Drain() // error path: the workload error is reported instead
		}
	}()

	_, test := sv.ds.Split()
	bodies := make([][]byte, len(test))
	for k, w := range test {
		seed := uint64(k)
		if bodies[k], err = json.Marshal(serve.InferRequest{Model: modelName, Window: w.Full, Seed: &seed}); err != nil {
			return fmt.Errorf("encode request: %w", err)
		}
	}
	order := rand.New(rand.NewPCG(cfg.seed, 1)).Perm(len(test))
	nA := int(serveRate * phaseAShare * cfg.seconds.Seconds())
	due := poissonSchedule(cfg.seed, serveRate, nA)
	durB := cfg.seconds - time.Duration(phaseAShare*float64(cfg.seconds))

	pass := func(addr string, tr *tracer) *inferPhase {
		c := newClient(addr, cfg.nproc, tr)
		defer c.close()
		p := &inferPhase{resps: make([]serve.InferResponse, nA)}
		p.times, p.errs = openLoop(due, cfg.nproc, func(i int) error {
			return c.post("/v1/infer", bodies[order[i%len(order)]], "client.request", int64(i+1), &p.resps[i])
		})
		p.closedOK, p.closedFailed, p.closedElapsed = closedLoop(cfg.nproc, durB, func(_, i int) error {
			var resp serve.InferResponse
			return c.post("/v1/infer", bodies[order[(nA+i)%len(order)]], "client.closed", int64(nA+i+1), &resp)
		})
		return p
	}

	before := readCounters()
	u := pass(sv.addr, nil)
	after := readCounters()
	dU := after.since(before)
	o.ops(nA+u.closedOK+u.closedFailed, countErrs(u.errs)+u.closedFailed)
	if err := firstErr(u.errs); err != nil {
		o.check(false, "serve-infer: %d of %d open-loop requests failed, first: %v", countErrs(u.errs), nA, err)
	}
	o.check(u.closedFailed == 0, "serve-infer: %d closed-loop requests failed", u.closedFailed)

	lat := latenciesMs(u.times, u.errs)
	o.setSampled("p50_ms", median(lat), len(lat))
	setTail(o, "e2e.p99_ms", lat)
	capacity := float64(u.closedOK) / u.closedElapsed.Seconds()
	o.setSampled("ops_per_s", capacity, u.closedOK)
	var sim, batch []float64
	for i, r := range u.resps {
		if u.errs[i] == nil {
			sim = append(sim, r.LatencyUs)
			batch = append(batch, float64(r.BatchSize))
		}
	}
	o.set("e2e.sim_latency_us", mean(sim))
	o.set("serve.batch_size_mean", mean(batch))
	late := make([]float64, len(u.times))
	for i, t := range u.times {
		late[i] = ms(t.late())
	}
	setTail(o, "serve.gen_late_p99_ms", late)
	solo, batches := dU["dsgl_serve_solo_total"], dU["dsgl_serve_batches_total"]
	o.set("serve.solo_ratio", ratio(solo, solo+batches))
	shed := dU["dsgl_serve_requests_rate_limited_total"] + dU["dsgl_serve_requests_queue_full_total"] + dU["dsgl_serve_requests_draining_total"]
	o.set("serve.shed_ratio", ratio(shed, float64(nA+u.closedOK+u.closedFailed)))
	o.check(shed == 0, "serve-infer: %v requests were shed", shed)
	engineLayer(o, dU, sv.model)
	o.set("pool.utilization", after["dsgl_pool_utilization"])

	if cfg.trace {
		if err := traceServeInfer(o, sv, pass, lat); err != nil {
			return err
		}
		if err := probeModel(o, sv.model, test, order); err != nil {
			return err
		}
	}

	drained = true
	o.check(sv.srv.Drain() == nil, "serve-infer: server did not drain cleanly")
	checkServed(o, sv, test, order, u)
	return nil
}

// traceServeInfer repeats the load through the span middleware and derives
// the serve-layer breakdown from the spans.
func traceServeInfer(o *outcome, sv *served, pass func(string, *tracer) *inferPhase, untracedLat []float64) error {
	addr, stop, err := tracedListener(o.tr, sv.srv.Handler())
	if err != nil {
		return err
	}
	before := readCounters()
	t := pass(addr, o.tr)
	dT := readCounters().since(before)
	stop()
	o.check(firstErr(t.errs) == nil && t.closedFailed == 0, "serve-infer: traced pass had failed requests")

	nA := int64(len(t.times))
	spans := o.tr.snapshot()
	self := selfTimes(spans)
	phaseA := func(s span) bool { return s.Req >= 1 && s.Req <= nA }
	handler := durMs(spans, "serve.handler", phaseA)
	overhead := selfMs(spans, self, "client.request", nil)
	tracedLat := latenciesMs(t.times, t.errs)
	late := make([]float64, len(t.times))
	for i, tm := range t.times {
		late[i] = ms(tm.late())
	}
	o.setSampled("serve.handler_p50_ms", median(handler), len(handler))
	setTail(o, "serve.handler_p99_ms", handler)
	o.setSampled("serve.client_overhead_p50_ms", median(overhead), len(overhead))
	// A request's latency from its due time is the generator's wait, then
	// the client's own time, then the handler's; the stages of the traced
	// pass should add up to the untraced end-to-end p50_ms.
	o.set("serve.unaccounted_ms", math.Abs(median(untracedLat)-median(late)-median(overhead)-median(handler)))
	engineMs := ratio(dT["dsgl_infer_wall_seconds{scalable}_sum"]*1e3, dT["dsgl_infer_wall_seconds{scalable}_count"])
	o.set("serve.self_mean_ms", mean(handler)-engineMs)
	o.set("trace.overhead_ms", median(tracedLat)-median(untracedLat))
	setTraceSelf(o, spans, self)
	return nil
}

// checkServed compares a sample of served phase-A values bit for bit with a
// solo InferSeeded reference for the same window and seed.
func checkServed(o *outcome, sv *served, test []dsgl.Window, order []int, u *inferPhase) {
	unknown := sv.ds.UnknownIndices()
	eng := sv.model.Engine()
	for i := 0; i < len(u.resps); i += refEvery {
		if u.errs[i] != nil {
			continue
		}
		k := order[i%len(order)]
		resp := u.resps[i]
		obs, err := sv.model.WindowObservations(test[k])
		if !o.check(err == nil, "serve-infer: reference observations: %v", err) {
			return
		}
		ref, err := eng.InferSeeded(obs, uint64(k))
		if !o.check(err == nil, "serve-infer: reference inference: %v", err) {
			return
		}
		if !o.check(resp.Seed == uint64(k) && equalInts(resp.Indices, unknown), "serve-infer: request %d answered for seed %d / indices %v", i, resp.Seed, resp.Indices) {
			return
		}
		if !o.check(sameBits(resp.Values, pick(ref.Voltage, unknown)), "serve-infer: request %d (window %d) differs from the solo reference", i, k) {
			return
		}
	}
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}

// sameBits reports whether a and b hold bit-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
