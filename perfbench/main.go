// Command perfbench is the repository's benchmark. It builds the system
// from its packages in one process, drives one named workload against
// it for a fixed time, checks every answer it can against a reference,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	go run . -workload dashboard -seed 1 -seconds 10 -trace 0
//
// The workloads, metrics and bounds are declared in BENCHMARK.json at
// the repository root; perfbench/NOTES.md records how they were chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to figures.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// spec sizes one run. The command line fixes the workload, seed,
// length and mode; the rest are the workload sizes, which the self-test
// shrinks.
type spec struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Tmp is a temporary directory (WAL trees); Out receives span dumps
	// when non-empty.
	Tmp, Out string

	Rows     int // base rows
	Training int // agent training queries
	Setups   int // set-ups timed at least; setup_s is their median
	// SetupBudget: a fast set-up is timed again until this much time
	// has gone on set-ups (at most maxSetups times).
	SetupBudget time.Duration
	Catalog     int // dashboard: repeated-query catalog size
	Probes      int // per-layer probe calls
	Verify      int // dashboard: fresh answers checked against the reference
	Warmup      time.Duration
}

// defaultSpec returns the sizes the benchmark is defined with.
func defaultSpec() spec {
	return spec{
		Rows:        20000,
		Training:    300,
		Setups:      15,
		SetupBudget: 3 * time.Second,
		Catalog:     512,
		Probes:      300,
		Verify:      4096,
		Warmup:      6 * time.Second,
	}
}

// report is what a workload run produces: the result plus lines for
// people (echoed before the result) and any correctness failures.
type report struct {
	result
	notes      []string
	mismatches []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(spec) (*report, error){
	"dashboard":     runDashboard,
	"exact_scatter": runExactScatter,
	"ingest_mixed":  runIngestMixed,
}

func main() {
	sp := defaultSpec()
	flag.StringVar(&sp.Workload, "workload", "", "workload to run: dashboard, exact_scatter or ingest_mixed")
	flag.Int64Var(&sp.Seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&sp.Seconds, "seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.StringVar(&sp.Tmp, "tmp", "", "directory the run keeps its temporary files in (default: the system's)")
	flag.StringVar(&sp.Out, "out", "", "directory the traced run writes its spans to (default: none)")
	flag.Parse()
	sp.Trace = *trace == 1
	if err := run(sp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(sp spec) error {
	drive, ok := workloads[sp.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", sp.Workload, strings.Join(workloadNames(), ", "))
	}
	if sp.Seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	dir, err := os.MkdirTemp(sp.Tmp, sp.Workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sp.Tmp = dir
	rep, err := drive(sp)
	if err != nil {
		return err
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v\n", sp.Workload, sp.Seed, sp.Seconds, sp.Trace)
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-34s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", m)
	}
	rep.Correct = len(rep.mismatches) == 0
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%d incorrect answers", len(rep.mismatches))
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// e2eMetrics is the end-to-end set every untraced run reports, plus
// the window's timings as notes: they are not bounded metrics, because
// they follow the machine's speed (NOTES.md). heapBase is the live heap
// liveHeap read before the system was built.
func e2eMetrics(rep *report, setup []float64, heapBase uint64, w e2e) {
	m := rep.Metrics
	m.set("setup_s", median(setup), "s")
	m.set("allocs_per_op", w.allocsPerOp, "count")
	m.set("bytes_per_op", w.bytesPerOp, "B")
	m.set("heap_peak_mb", w.heapPeakMB-float64(heapBase)/(1<<20), "MB")
	rep.note("queries=%d ops=%d failed=%d; setup_s is the median of %d set-ups (%.4f-%.4f s)", w.queries, w.ops, w.failed, len(setup), slices.Min(setup), slices.Max(setup))
	rep.note("over the whole window: allocs_per_op=%.4f bytes_per_op=%.1f (rare expensive operations at their full weight)", w.allocsPerOpAll, w.bytesPerOpAll)
	rep.note("timings, not bounded (see NOTES.md): query_qps=%.1f query_p50_us=%.3f cpu_us_per_op=%.3f (medians over slices) query_p95_us=%.3f (median over slices) query_p99_us=%.3f query_p999_us=%.3f over %d samples",
		w.qps, w.p50us, w.cpuPerOp, w.p95us, w.p99us, w.p999us, w.queries)
}

// timingMetrics sets the traced run's timings of its untraced half.
func timingMetrics(m metricSet, w e2e) {
	m.set("query_qps", w.qps, "1/s")
	m.set("query_p50_us", w.p50us, "us")
	m.set("cpu_us_per_op", w.cpuPerOp, "us")
}

// maxSetups caps the set-ups timed in a run.
const maxSetups = 100

// timeSetups builds the system repeatedly, at least sp.Setups times and
// until sp.SetupBudget has gone on set-ups, keeping the last build, and
// returns the build times in seconds. Every earlier build is closed,
// and each build starts from a collected heap.
func timeSetups[T any](sp spec, build func() (T, error), closeFn func(T)) (T, []float64, error) {
	var sys T
	var times []float64
	var total time.Duration
	for i := 0; i < max(1, sp.Setups) || (total < sp.SetupBudget && i < maxSetups); i++ {
		if i > 0 {
			closeFn(sys)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		sys = s
	}
	return sys, times, nil
}

// dumpSpans writes a traced run's spans when an output directory is
// set, replacing the workload's previous dump (a few MB each).
func dumpSpans(sp spec, recs []*recorder) error {
	if sp.Out == "" {
		return nil
	}
	return writeSpans(filepath.Join(sp.Out, "spans-"+sp.Workload+".jsonl"), recs)
}
