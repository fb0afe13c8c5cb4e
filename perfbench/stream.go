package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"dsgl"
	"dsgl/internal/engine"
	"dsgl/internal/serve"
)

const (
	// subTicks is how many interpolated ticks each dataset window spans;
	// the clamp mask shifts by one index per window, as in
	// BenchmarkInferStream.
	subTicks = 8
	// sessionTicks bounds a session's warm ticks before the caller closes
	// it and opens the next, which keeps the replay check short and makes
	// cold first ticks recur.
	sessionTicks = 150
)

// tickObs builds tick t of a session that starts at test window base: half
// the window clamped, the clamped block sliding one index every subTicks
// ticks, values interpolated between consecutive windows.
func tickObs(test []dsgl.Window, base, t int) []engine.Observation {
	n := len(test[0].Full)
	w0 := test[(base+t/subTicks)%len(test)].Full
	w1 := test[(base+t/subTicks+1)%len(test)].Full
	a := float64(t%subTicks) / subTicks
	obs := make([]engine.Observation, n/2)
	for j := range obs {
		idx := (t/subTicks + j) % n
		obs[j] = engine.Observation{Index: idx, Value: (1-a)*w0[idx] + a*w1[idx]}
	}
	return obs
}

// tickBody encodes a /v1/stream request for the observations.
func tickBody(session string, obs []engine.Observation) ([]byte, error) {
	req := serve.StreamRequest{Session: session, Observations: make([]serve.Observation, len(obs))}
	if session == "" {
		req.Model = modelName
	}
	for i, ob := range obs {
		req.Observations[i] = serve.Observation{Index: ob.Index, Value: ob.Value}
	}
	return json.Marshal(req)
}

// streamLog is what one caller observed.
type streamLog struct {
	warm    []float64 // warm tick latency, ms
	cold    []float64 // first-tick latency, ms
	sim     []float64 // warm tick simulated latency, µs
	ok, bad int
	err     error
	// The first session's ticks, kept for the replay check.
	firstBase int
	first     []serve.StreamResponse
}

// streamPhase is one pass of the stream-sliding load.
type streamPhase struct {
	logs    []*streamLog
	elapsed time.Duration
}

// runStreamSliding is the stream-sliding workload: nproc closed-loop
// /v1/stream sessions on a lanes-limited model whose ticks slide the clamp
// mask, so plans are delta-compiled and anneals warm-started.
func runStreamSliding(cfg *config, o *outcome) error {
	sv, err := setupServed(o, dsgl.DatasetConfig{N: 16, Seed: 7},
		dsgl.Options{Seed: 7, Lanes: 6, Density: 0.15, PECapacity: 24})
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

	pass := func(addr string, tr *tracer, seed uint64) *streamPhase {
		c := newClient(addr, cfg.nproc, tr)
		defer c.close()
		p := &streamPhase{logs: make([]*streamLog, cfg.nproc)}
		start := time.Now()
		var wg sync.WaitGroup
		for k := range p.logs {
			p.logs[k] = &streamLog{}
			wg.Add(1)
			go func(l *streamLog, r *rand.Rand) {
				defer wg.Done()
				streamCaller(c, l, r, test, start.Add(cfg.seconds))
			}(p.logs[k], rand.New(rand.NewPCG(seed, uint64(k))))
		}
		wg.Wait()
		p.elapsed = time.Since(start)
		return p
	}

	eng := sv.model.Engine()
	dh0, df0 := eng.PlanDeltaStats()
	before := readCounters()
	u := pass(sv.addr, nil, cfg.seed)
	after := readCounters()
	dh1, df1 := eng.PlanDeltaStats()

	var warm, cold, sim []float64
	for _, l := range u.logs {
		warm = append(warm, l.warm...)
		cold = append(cold, l.cold...)
		sim = append(sim, l.sim...)
		o.ops(l.ok+l.bad, l.bad)
		o.check(l.err == nil, "stream-sliding: %v", l.err)
	}
	o.setSampled("p50_ms", median(warm), len(warm))
	setTail(o, "e2e.p99_ms", warm)
	ticks := float64(len(warm)) / u.elapsed.Seconds()
	o.setSampled("ops_per_s", ticks, len(warm))
	o.setSampled("e2e.cold_tick_ms", mean(cold), len(cold))
	o.set("e2e.sim_latency_us", mean(sim))
	dU := after.since(before)
	engineLayer(o, dU, sv.model)
	o.set("engine.plan_delta_hit_rate", ratio(float64(dh1-dh0), float64(dh1-dh0+df1-df0)))

	if cfg.trace {
		addr, stop, err := tracedListener(o.tr, sv.srv.Handler())
		if err != nil {
			return err
		}
		t := pass(addr, o.tr, cfg.seed)
		stop()
		var tracedWarm []float64
		for _, l := range t.logs {
			tracedWarm = append(tracedWarm, l.warm...)
			o.check(l.err == nil, "stream-sliding: traced pass: %v", l.err)
		}
		spans := o.tr.snapshot()
		self := selfTimes(spans)
		h := durMs(spans, "serve.stream_handler", nil)
		o.setSampled("serve.stream_handler_p50_ms", median(h), len(h))
		o.set("trace.overhead_ms", median(tracedWarm)-median(warm))
		setTraceSelf(o, spans, self)
		order := rand.New(rand.NewPCG(cfg.seed, 1)).Perm(len(test))
		if err := probeModel(o, sv.model, test, order); err != nil {
			return err
		}
	}

	drained = true
	o.check(sv.srv.Drain() == nil, "stream-sliding: server did not drain cleanly")
	checkReplay(o, sv.model, test, u.logs[0])
	return nil
}

// streamCaller runs sessions back to back until deadline: open with a cold
// tick, up to sessionTicks warm ticks, close.
func streamCaller(c *client, l *streamLog, r *rand.Rand, test []dsgl.Window, deadline time.Time) {
	req := int64(0)
	for first := true; time.Now().Before(deadline); first = false {
		base := r.IntN(len(test))
		var session string
		for t := 0; t <= sessionTicks && time.Now().Before(deadline); t++ {
			body, err := tickBody(session, tickObs(test, base, t))
			if err != nil {
				l.err = err
				return
			}
			req++
			var resp serve.StreamResponse
			start := time.Now()
			err = c.post("/v1/stream", body, "client.tick", req, &resp)
			took := ms(time.Since(start))
			if err == nil && (resp.Tick != uint64(t) || resp.Warm != (t > 0)) {
				err = fmt.Errorf("tick %d answered as tick %d (warm %v)", t, resp.Tick, resp.Warm)
			}
			if err != nil {
				l.bad++
				l.err = err
				return
			}
			l.ok++
			if t == 0 {
				session = resp.Session
				l.cold = append(l.cold, took)
			} else {
				l.warm = append(l.warm, took)
				l.sim = append(l.sim, resp.LatencyUs)
			}
			if first {
				l.firstBase = base
				l.first = append(l.first, resp)
			}
		}
		body, err := json.Marshal(serve.StreamRequest{Session: session, Close: true})
		if err == nil {
			var resp serve.StreamResponse
			err = c.post("/v1/stream", body, "client.close", 0, &resp)
		}
		if err != nil {
			l.bad++
			l.err = fmt.Errorf("close %s: %w", session, err)
			return
		}
		l.ok++
	}
}

// checkReplay replays a caller's first session through
// dsgl.StreamSession.NextObservations and requires every tick's values to
// match the served ones bit for bit.
func checkReplay(o *outcome, m *dsgl.Model, test []dsgl.Window, l *streamLog) {
	if !o.check(len(l.first) > 1, "stream-sliding: first session served %d ticks, nothing to replay", len(l.first)) {
		return
	}
	sess := m.OpenStream()
	defer sess.Close()
	for t, resp := range l.first {
		res, seed, err := sess.NextObservations(tickObs(test, l.firstBase, t))
		if !o.check(err == nil, "stream-sliding: replay tick %d: %v", t, err) {
			return
		}
		if !o.check(seed == resp.Seed && sameBits(resp.Values, pick(res.Voltage, resp.Indices)),
			"stream-sliding: replay tick %d differs from the served tick", t) {
			return
		}
	}
	o.setSampled("replayed_ticks", float64(len(l.first)), len(l.first))
}
