package main

import (
	"math"
	"math/rand/v2"
	"regexp"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail is chosen from, highest
// first. The benchmark reports the highest one that still has at least
// minBeyond samples above it, so a tail is never a single outlier.
var tailLadder = []float64{99.9, 99, 90}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// beyond counts the samples of an n-sample set that lie above the q-th
// percentile under the nearest-rank rule used by percentile.
func beyond(n int, q float64) int {
	return n - rank(n, q) - 1
}

// rank is the 0-based nearest-rank index of the q-th percentile of n
// sorted samples.
func rank(n int, q float64) int {
	// The tolerance keeps decimal percentiles such as 99.9 from rounding
	// up a rank through binary floating point.
	r := int(math.Ceil(q*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, and false when none has.
func tailPercentile(n int) (float64, bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank q-th percentile of xs (not modified).
// It returns NaN for an empty set, which the finite-value check rejects.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// poissonSchedule returns the due times of n arrivals of a Poisson process
// at rate per second, offsets from the start of the phase. The same seed
// always yields the same schedule.
func poissonSchedule(seed uint64, rate float64, n int) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += r.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// timing is one open-loop request: when it was due, when the client sent
// it, and when its response had been read, all as offsets from the start
// of the phase.
type timing struct {
	due, sent, done time.Duration
}

// latency is the time from when the request was due, so a stalled
// generator's backlog counts against the system, not in its favour.
func (t timing) latency() time.Duration { return t.done - t.due }

// late is how far behind its schedule the generator sent the request.
func (t timing) late() time.Duration { return t.sent - t.due }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricName is the form every reported metric name must take.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
