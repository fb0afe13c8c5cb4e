package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 90, true},
		{100, 90, true},
		{99, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		q, ok := tailPercentile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
			continue
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, q, beyond(c.n, q))
		}
	}
	// The reported value is the sample with exactly the right count above.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // unsorted on purpose
	}
	p99 := percentile(xs, 99)
	above := 0
	for _, x := range xs {
		if x > p99 {
			above++
		}
	}
	if above != minBeyond {
		t.Errorf("p99 of 1000 samples has %d samples above it, want %d", above, minBeyond)
	}
}

func TestPoissonScheduleRepeats(t *testing.T) {
	a := poissonSchedule(42, 100, 5000)
	b := poissonSchedule(42, 100, 5000)
	c := poissonSchedule(43, 100, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0] == c[0] && a[1] == c[1] {
		t.Error("different seeds gave the same schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Error("due times are not increasing")
	}
	// 5000 arrivals at 100/s span about 50 s; the mean gap is 1/rate.
	if span := a[len(a)-1].Seconds(); span < 47 || span > 53 {
		t.Errorf("5000 arrivals at 100/s span %.1f s, want about 50", span)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	tm := timing{due: 10 * time.Millisecond, sent: 15 * time.Millisecond, done: 20 * time.Millisecond}
	if tm.latency() != 10*time.Millisecond || tm.late() != 5*time.Millisecond {
		t.Fatalf("latency %v late %v", tm.latency(), tm.late())
	}
	// One connection, two requests due 1 ms apart, each taking 30 ms: the
	// second waits for the first, and that wait is part of its latency.
	times, errs := openLoop([]time.Duration{0, time.Millisecond}, 1, func(int) error {
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	if firstErr(errs) != nil {
		t.Fatal(firstErr(errs))
	}
	second := times[1]
	if second.latency() < 55*time.Millisecond {
		t.Errorf("second request latency %v does not include its wait", second.latency())
	}
	if second.late() < 25*time.Millisecond {
		t.Errorf("latency %v is not measured from the due time (sent %v late)", second.latency(), second.late())
	}
}

func TestSelfTimeOverNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "handler", Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: "handler", Start: 90, End: 120}, // clipped at 100
		{ID: 5, Parent: 2, Name: "engine", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	if got := selfMs(spans, self, "handler", func(s span) bool { return s.Start < 50 }); len(got) != 2 {
		t.Errorf("selfMs kept %d handler spans, want 2", len(got))
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %q has unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q has better=%q", d.Name, d.Better)
		}
	}
	if !seen["setup_s"] || endToEnd[0] != (metricDef{"setup_s", "s", "lower"}) {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, at the root of the
// repository, in step with the metric tables and workload list.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !sameStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	if !sameDefs(bench.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd")
	}
	if !sameDefs(bench.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer")
	}
}

func sameStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
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

func sameDefs(a, b []metricDef) bool {
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
