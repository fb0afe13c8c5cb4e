// Command perfbench is the repository benchmark. It runs one named
// workload against the DS-GL packages in-process, checks the outputs, and
// prints every metric by name and unit:
//
//	bash perfbench/run.sh --workload serve-infer --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs the workload untraced and then traced and prints the
// per-layer metrics. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. A failed
// correctness check exits 1 after printing it. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
	nproc    int
}

// A workload builds its set-up at least setupReps times and for at least
// setupSpan, each build after a forced collection, and measures with the
// last build. setup_s and the set-up stage times are medians over the
// builds. One build takes 60-300 ms, and the host's speed changes from
// second to second, so the builds are spread over setupSpan rather than
// counted.
const (
	setupReps = 5
	setupSpan = 2 * time.Second
)

// repeatSetup calls build, after a forced collection each time, until it
// has run setupReps times and setupSpan has passed, and returns how many
// times it ran. It stops at the first error.
func repeatSetup(build func() error) (int, error) {
	start := time.Now()
	n := 0
	for n < setupReps || time.Since(start) < setupSpan {
		runtime.GC()
		if err := build(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// outcome collects what a workload measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	samples           map[string]int
	tails             map[string]float64 // percentile behind each tail metric
	tr                *tracer
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), samples: make(map[string]int), tails: make(map[string]float64)}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setSampled records a value together with the sample count behind it.
func (o *outcome) setSampled(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

// check records a failed correctness check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// ops counts operations attempted and failed.
func (o *outcome) ops(attempted, failed int) {
	o.attempted += attempted
	o.failed += failed
}

var workloads = map[string]func(*config, *outcome) error{
	"serve-infer":    runServeInfer,
	"stream-sliding": runStreamSliding,
	"eval-batch":     runEvalBatch,
	"opt-maxcut":     runOptMaxCut,
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 24, "how long the workload measures")
	trace := fs.Int("trace", 0, "1 runs untraced then traced and prints the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		out:      *out,
		nproc:    runtime.NumCPU(),
	}
	o := newOutcome()
	if cfg.trace {
		o.tr = newTracer()
	}
	// A workload or bookkeeping error is a failed check: the run still
	// prints its result, with "correct": false, and exits 1.
	if err := run(cfg, o); err != nil {
		o.check(false, "%s: %v", cfg.workload, err)
	}
	rss, err := peakRSSMB()
	o.check(err == nil, "%v", err)
	o.set("peak_rss_mb", rss)
	if cfg.trace {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(o.tr, path); o.check(err == nil, "spans: %v", err) {
			fmt.Fprintf(os.Stderr, "spans: %s\n", path)
		}
	}
	return report(cfg, o)
}

// writeSpans writes the traced run's spans as JSON lines to path.
func writeSpans(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return tr.write(path)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the provenance line, a readable table on standard error
// and the result line, and returns the exit code.
func report(cfg *config, o *outcome) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok && !cfg.trace {
			o.check(false, "end-to-end metric %s was not measured", d.Name)
		}
		o.check(!math.IsNaN(v) && !math.IsInf(v, 0), "metric %s is not finite (%v)", d.Name, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(os.Stderr, "%-32s %14.6g %-6s", d.Name, v, d.Unit)
		if n, ok := o.samples[d.Name]; ok {
			fmt.Fprintf(os.Stderr, " (n=%d)", n)
		}
		fmt.Fprintln(os.Stderr)
	}
	if o.attempted < 1 {
		o.check(false, "no operation was attempted")
		o.attempted = 1
		o.failed = 1
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
	correct := len(o.problems) == 0
	if !correct && o.failed == 0 {
		// A failed check counts the operations it covered as failed; the
		// check sits over the whole run, so all of them.
		o.failed = o.attempted
	}

	w := bufio.NewWriter(os.Stdout)
	prov, err := json.Marshal(map[string]any{"provenance": provenance(cfg, o)})
	if err == nil {
		fmt.Fprintln(w, string(prov))
	}
	res, err := json.Marshal(result{Correct: correct, Attempted: o.attempted, Failed: o.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(res))
	if err := w.Flush(); err != nil {
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// provenance records where a result came from.
func provenance(cfg *config, o *outcome) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"cpu":        cpuModel(),
		"nproc":      cfg.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
		"samples":    o.samples,
		"tails":      o.tails,
		"problems":   o.problems,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}
