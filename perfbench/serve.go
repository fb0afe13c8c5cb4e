package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dsgl"
	"dsgl/internal/serve"
)

// Request headers that carry the client span and request id to the
// benchmark's middleware; only a traced phase sets them.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// modelName is the registry name both serving workloads use.
const modelName = "traffic"

// served is one in-process dsgld: a trained model registered with a
// serve.Server that listens on loopback.
type served struct {
	ds    *dsgl.Dataset
	model *dsgl.Model
	srv   *serve.Server
	addr  string
}

// stages are the set-up stage times of one build.
type stages struct {
	gen, train, register, start time.Duration
}

// buildServed generates the dataset, trains, registers and starts a
// server, recording one span per stage under a "setup" span.
func buildServed(tr *tracer, dcfg dsgl.DatasetConfig, opts dsgl.Options) (*served, stages, error) {
	var st stages
	sv := &served{}
	err := tr.timed("setup", func(parent int64) error {
		var err error
		if st.gen, err = tr.child(parent, "datasets.gen", func() (err error) {
			sv.ds, err = dsgl.NewDataset(modelName, dcfg)
			return err
		}); err != nil {
			return err
		}
		if st.train, err = tr.child(parent, "train.train", func() (err error) {
			sv.model, err = dsgl.Train(sv.ds, opts)
			return err
		}); err != nil {
			return err
		}
		reg := serve.NewRegistry()
		if st.register, err = tr.child(parent, "serve.register", func() error {
			_, err := reg.Register(modelName, sv.model)
			return err
		}); err != nil {
			return err
		}
		st.start, err = tr.child(parent, "serve.start", func() (err error) {
			sv.srv = serve.New(reg, serve.Config{})
			sv.addr, err = sv.srv.Start("127.0.0.1:0")
			return err
		})
		return err
	})
	return sv, st, err
}

// setupServed builds the served model repeatedly (repeatSetup), reports the
// median set-up time and stage times, and returns the last build. Metrics are
// enabled first, as dsgld does.
func setupServed(o *outcome, dcfg dsgl.DatasetConfig, opts dsgl.Options) (*served, error) {
	dsgl.EnableMetrics()
	var sv *served
	var total, gen, train, register, start []float64
	n, err := repeatSetup(func() error {
		if sv != nil {
			if err := sv.srv.Drain(); err != nil {
				return fmt.Errorf("drain set-up server: %w", err)
			}
		}
		var st stages
		var err error
		sv, st, err = buildServed(o.tr, dcfg, opts)
		if err != nil {
			if sv != nil && sv.srv != nil {
				_ = sv.srv.Drain() // the build error is what the caller reports
			}
			return err
		}
		total = append(total, (st.gen + st.train + st.register + st.start).Seconds())
		gen = append(gen, ms(st.gen))
		train = append(train, ms(st.train))
		register = append(register, ms(st.register))
		start = append(start, ms(st.start))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.setSampled("setup_s", median(total), n)
	o.set("datasets.gen_ms", median(gen))
	o.set("train.train_ms", median(train))
	o.set("serve.register_ms", median(register))
	o.set("serve.start_ms", median(start))
	return sv, nil
}

// tracedListener serves handler, wrapped in the span middleware, on a
// second loopback listener. stop closes it and waits for its serve loop.
func tracedListener(tr *tracer, h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("traced listener: %w", err)
	}
	hs := &http.Server{Handler: middleware(tr, h)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	return ln.Addr().String(), func() {
		_ = hs.Close()
		<-done
	}, nil
}

// middleware records one span per request around Server.Handler, parented
// to the client's span for the same request.
func middleware(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64) // absent: a root span
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		name := "serve.handler"
		if r.URL.Path == "/v1/stream" {
			name = "serve.stream_handler"
		}
		tr.record(tr.id(), parent, req, name, start, end)
	})
}

// client posts JSON over at most conns keep-alive connections.
type client struct {
	hc   *http.Client
	tp   *http.Transport
	base string
	tr   *tracer
}

func newClient(addr string, conns int, tr *tracer) *client {
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tp, Timeout: 30 * time.Second}, tp: tp, base: "http://" + addr, tr: tr}
}

func (c *client) close() { c.tp.CloseIdleConnections() }

// post sends body and decodes a 200 reply into out. Any other status is an
// error. spanName names the client span of a traced request.
func (c *client) post(path string, body []byte, spanName string, req int64, out any) error {
	id := c.tr.id()
	start := time.Now()
	hr, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	if c.tr != nil {
		hr.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	c.tr.record(id, 0, req, spanName, start, time.Now())
	return err
}

// openLoop sends request i at due[i] over conns workers and returns each
// request's timing and error. A request due while every worker is busy
// waits in the client, and its latency, counted from due[i], includes the
// wait.
func openLoop(due []time.Duration, conns int, do func(i int) error) ([]timing, []error) {
	jobs := make(chan int, len(due)) // sized to the number of sends: the generator never blocks
	times := make([]timing, len(due))
	errs := make([]error, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := time.Since(start)
				errs[i] = do(i)
				times[i] = timing{due: due[i], sent: sent, done: time.Since(start)}
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return times, errs
}

// closedLoop runs callers that each issue do(caller, i) back to back until
// d has passed, i numbering operations across callers. It returns the
// operations completed and failed and the wall time until the last caller
// stopped.
func closedLoop(callers int, d time.Duration, do func(caller, i int) error) (ok, failed int, elapsed time.Duration) {
	var next, nOK, nFail atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				if err := do(c, int(next.Add(1)-1)); err != nil {
					nFail.Add(1)
				} else {
					nOK.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return int(nOK.Load()), int(nFail.Load()), time.Since(start)
}

// latenciesMs returns the latencies in milliseconds, a failed request
// counting as +Inf so it misses every limit.
func latenciesMs(ts []timing, errs []error) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = ms(t.latency())
		if errs[i] != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// setTail records under name the highest percentile that has at least
// ten samples beyond it, and which percentile that was; with too few
// samples for any it records 0.
func setTail(o *outcome, name string, xs []float64) {
	q, ok := tailPercentile(len(xs))
	if !ok {
		o.setSampled(name, 0, len(xs))
		return
	}
	o.setSampled(name, percentile(xs, q), len(xs))
	o.tails[name] = q
}

// firstErr returns the first non-nil error.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// countErrs counts the non-nil errors.
func countErrs(errs []error) int {
	n := 0
	for _, err := range errs {
		if err != nil {
			n++
		}
	}
	return n
}
