package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Parent is 0 for a root span; spans of one request
// share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a caller can hand it to children before the
// span itself ends. A nil tracer returns 0.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a new root span, handing fn the span's id so it
// can parent children, and returns fn's error.
func (t *tracer) timed(name string, fn func(id int64) error) error {
	id := t.id()
	start := time.Now()
	err := fn(id)
	t.record(id, 0, 0, name, start, time.Now())
	return err
}

// child runs fn inside a span under parent and returns how long it took.
func (t *tracer) child(parent int64, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.record(t.id(), parent, 0, name, start, start.Add(d))
	return d, err
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// id: its duration minus the part of its interval that its children
// cover, overlapping children counted once.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// selfMs returns the self times in milliseconds of the spans named name
// that keep(span) accepts; a nil keep accepts all.
func selfMs(spans []span, self map[int64]int64, name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(self[s.ID])/1e6)
		}
	}
	return out
}

// durMs returns the durations in milliseconds of the spans named name
// that keep accepts; a nil keep accepts all.
func durMs(spans []span, name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// setTraceSelf records the span count and the mean self time of the
// client, handler and set-up spans.
func setTraceSelf(o *outcome, spans []span, self map[int64]int64) {
	o.set("trace.spans", float64(len(spans)))
	var client, handler []float64
	for _, name := range []string{"client.request", "client.closed", "client.tick"} {
		client = append(client, selfMs(spans, self, name, nil)...)
	}
	for _, name := range []string{"serve.handler", "serve.stream_handler"} {
		handler = append(handler, selfMs(spans, self, name, nil)...)
	}
	o.set("trace.self_client_ms", zeroIfEmpty(client))
	o.set("trace.self_handler_ms", zeroIfEmpty(handler))
	o.set("trace.self_setup_ms", zeroIfEmpty(selfMs(spans, self, "setup", nil)))
}

// zeroIfEmpty is the mean of xs, or 0 for a layer with no spans.
func zeroIfEmpty(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}
