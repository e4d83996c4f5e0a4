// Command benchcheck compares two seabench -json outputs and fails
// (exit 1) when the new run's tracked metric has regressed beyond the
// allowed fraction. CI's bench-regression job runs it against the
// BENCH_<sha>.json artifact of the previous push, so a kernel (or
// allocation) regression fails the build instead of silently
// accumulating.
//
// Rows are matched by experiment + identity key (rows, selectivity,
// agg); the verdict is the geometric mean of the per-row goodness
// ratios, which damps single-row CI noise while still catching a real
// across-the-board slowdown.
//
// By default the metric is higher-is-better throughput. With
// -lower-better the metric is a cost (e.g. allocs/op, where the
// steady-state target is exactly 0): zero values are admitted, each
// row's goodness ratio becomes (base+1)/(new+1), and the run fails
// when the geomean says the cost rose beyond -max-drop — so a fast
// path that regresses from 0 to 1 allocs/op halves its ratio and
// fails loudly.
//
// With -base-metric the baseline values are read from a DIFFERENT row
// field of the baseline file. Pointing -base and -new at the SAME file
// turns benchcheck into a within-run gate between two metrics of one
// row — e.g. the E18 tracing-overhead contract, where the traced QPS
// must stay within -max-drop of the untraced QPS measured in the same
// process by the paired overhead harness:
//
//	benchcheck -base bench.json -new bench.json -experiment E18 \
//	    -base-metric baseline_qps -metric treated_qps -max-drop 0.05
//
// A within-run gate (-base == -new, or -base-metric set) fails when the
// file holds no rows to compare: an experiment that errored upstream
// must not pass its gate. Only a cross-push comparison whose baseline
// predates the experiment skips.
//
// Usage:
//
//	benchcheck -base BENCH_old.json -new BENCH_new.json \
//	    [-experiment E16] [-metric vec_mrows_s] [-base-metric qps] \
//	    [-max-drop 0.20] [-lower-better]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

type line struct {
	Experiment string                 `json:"experiment"`
	Row        map[string]interface{} `json:"row"`
}

// load reads the metric per identity key from one seabench JSON stream.
// allowZero admits zero-valued rows (lower-is-better metrics like
// allocs/op sit exactly at zero when healthy).
func load(path, experiment, metric string, allowZero bool) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			continue // tolerate non-JSON noise in the stream
		}
		if l.Experiment != experiment {
			continue
		}
		v, ok := l.Row[metric].(float64)
		if !ok || v < 0 || (v == 0 && !allowZero) {
			continue
		}
		key := fmt.Sprintf("rows=%v/sel=%v/agg=%v", l.Row["rows"], l.Row["selectivity"], l.Row["agg"])
		out[key] = v
	}
	return out, sc.Err()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one comparison and returns the process exit code: 0 ok
// (or a skipped first cross-push run), 1 regression or missing rows,
// 2 usage or read error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("base", "", "baseline seabench -json file")
	newPath := fs.String("new", "", "candidate seabench -json file")
	experiment := fs.String("experiment", "E16", "experiment id to compare")
	metric := fs.String("metric", "vec_mrows_s", "row field holding the throughput (higher = better)")
	baseMetric := fs.String("base-metric", "",
		"row field to read from the baseline file (default: same as -metric; use with -base == -new for within-run gates)")
	maxDrop := fs.Float64("max-drop", 0.20, "maximum tolerated fractional regression")
	lowerBetter := fs.Bool("lower-better", false,
		"treat the metric as a cost (e.g. allocs/op): admit zero values and fail when it rises")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "benchcheck: -base and -new are required")
		return 2
	}
	withinRun := *basePath == *newPath || *baseMetric != ""

	bm := *baseMetric
	if bm == "" {
		bm = *metric
	}
	base, err := load(*basePath, *experiment, bm, *lowerBetter)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: read baseline: %v\n", err)
		return 2
	}
	cand, err := load(*newPath, *experiment, *metric, *lowerBetter)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: read candidate: %v\n", err)
		return 2
	}
	if len(base) == 0 {
		if withinRun {
			fmt.Fprintf(stderr, "benchcheck: FAIL: %s has no %s/%s rows for a within-run gate\n",
				*basePath, *experiment, bm)
			return 1
		}
		// First run after the experiment landed (or baseline predates
		// it): nothing to compare against — pass, the artifact becomes
		// the next baseline.
		fmt.Fprintf(stdout, "benchcheck: no %s/%s rows in baseline %s; skipping comparison\n",
			*experiment, bm, *basePath)
		return 0
	}
	if len(cand) == 0 {
		fmt.Fprintf(stderr, "benchcheck: candidate %s has no %s/%s rows\n",
			*newPath, *experiment, *metric)
		return 1
	}

	var logSum float64
	var n int
	for key, b := range base {
		c, ok := cand[key]
		if !ok {
			fmt.Fprintf(stdout, "benchcheck: %s: only in baseline, skipped\n", key)
			continue
		}
		var ratio float64
		if *lowerBetter {
			// Goodness ratio for a cost metric, +1-smoothed so the
			// healthy value 0 divides cleanly.
			ratio = (b + 1) / (c + 1)
		} else {
			ratio = c / b
		}
		fmt.Fprintf(stdout, "benchcheck: %s: base=%.2f new=%.2f ratio=%.3f\n", key, b, c, ratio)
		logSum += math.Log(ratio)
		n++
	}
	if n == 0 {
		if withinRun {
			fmt.Fprintln(stderr, "benchcheck: FAIL: no comparable rows for a within-run gate")
			return 1
		}
		fmt.Fprintln(stdout, "benchcheck: no comparable rows; skipping")
		return 0
	}
	geo := math.Exp(logSum / float64(n))
	floor := 1 - *maxDrop
	fmt.Fprintf(stdout, "benchcheck: geomean ratio %.3f over %d rows (floor %.3f)\n", geo, n, floor)
	if geo < floor {
		what := "throughput"
		if *lowerBetter {
			what = *metric
		}
		fmt.Fprintf(stderr, "benchcheck: FAIL: %s %s regressed %.1f%% (> %.0f%% allowed)\n",
			*experiment, what, (1-geo)*100, *maxDrop*100)
		return 1
	}
	fmt.Fprintln(stdout, "benchcheck: OK")
	return 0
}
