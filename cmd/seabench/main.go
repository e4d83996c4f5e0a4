// Command seabench runs the full experiment suite (E1-E22 and ablations
// A1-A5 from DESIGN.md) at configurable scale and prints one table per
// experiment — the rows EXPERIMENTS.md records. Metrics are virtual
// simulator units (see internal/metrics), except E13 (concurrent
// serving), E14 (distributed cluster), E15 (live data plane), E16
// (vectorized execution), E17 (serving hot path), E18 (tracing
// overhead + accuracy audit), E19 (cluster introspection), E20
// (flight recorder), E21 (chaos resilience) and E22 (elastic
// membership) which measure real wall-clock behaviour.
//
// With -json every experiment emits machine-readable rows instead of
// tables, one JSON object per line:
//
//	{"experiment":"E4","row":{...}}
//
// so BENCH tracking can diff runs without parsing tables. CI runs
// `seabench -scale smoke -json` on every push and uploads the lines as
// a build artifact, so the perf trajectory accumulates per commit.
//
// Usage:
//
//	seabench [-scale smoke|small|paper] [-only E4] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/query"
)

func main() {
	scale := flag.String("scale", "small", "experiment scale: smoke | small | paper")
	only := flag.String("only", "", "run only the named experiment (e.g. E4)")
	jsonOut := flag.Bool("json", false, "emit one JSON row per line instead of tables")
	flag.Parse()
	switch *scale {
	case "smoke", "small", "paper":
	default:
		fmt.Fprintf(os.Stderr, "seabench: unknown -scale %q (want smoke, small or paper)\n", *scale)
		os.Exit(2)
	}
	if err := run(*scale, *only, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "seabench:", err)
		os.Exit(1)
	}
}

// emitter routes experiment rows either to human tables (the caller
// prints) or to machine-readable JSON lines. Encode failures are kept
// (first one wins) so a truncated -json stream fails the run instead of
// exiting 0.
type emitter struct {
	json bool
	enc  *json.Encoder
	err  error
}

// emit writes rows as JSON lines and reports true when it did (JSON
// mode); table mode returns false so the caller prints instead.
func (e *emitter) emit(name string, rows ...any) bool {
	if !e.json {
		return false
	}
	for _, r := range rows {
		if err := e.enc.Encode(struct {
			Experiment string `json:"experiment"`
			Row        any    `json:"row"`
		}{name, r}); err != nil && e.err == nil {
			e.err = fmt.Errorf("emit %s: %w", name, err)
		}
	}
	return true
}

func run(scale, only string, jsonOut bool) error {
	big := scale == "paper"
	smoke := scale == "smoke"
	pick := func(small, paper int) int {
		if big {
			return paper
		}
		if smoke {
			// Smoke mode quarters the size knobs (floored so every
			// experiment still has enough data to run): CI exercises the
			// full suite on every push without paying small-scale cost.
			if small >= 4_000 {
				return small / 4
			}
			if small >= 40 {
				return small / 2
			}
		}
		return small
	}
	want := func(name string) bool {
		return only == "" || strings.EqualFold(only, name)
	}
	em := &emitter{json: jsonOut, enc: json.NewEncoder(os.Stdout)}

	if want("E1") {
		var rows []experiments.E1Row
		for _, n := range []int{pick(10_000, 20_000), pick(50_000, 100_000), pick(0, 1_000_000)} {
			if n == 0 {
				continue
			}
			r, err := experiments.E1DatalessVsBDAS(n, 16, 300, 200)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		if !em.emit("E1", anySlice(rows)...) {
			fmt.Println("== E1: data-less (Fig.2) vs traditional BDAS (Fig.1), COUNT queries ==")
			fmt.Println("rows        bdas_lat      sea_lat   speedup  pred_rate  bdas_rows    sea_rows   $ratio")
			for _, r := range rows {
				fmt.Printf("%-9d %11v %12v %8.0fx %9.2f %11d %11d %7.0fx\n",
					r.Rows, r.BDASMeanLatency, r.SEAMeanLatency, r.SpeedupX,
					r.PredictionRate, r.BDASRowsRead, r.SEARowsRead,
					r.BDASDollars/maxf(r.SEADollars, 1e-12))
			}
			fmt.Println()
		}
	}

	if want("E2") {
		var rows []experiments.E2Row
		for _, tr := range []int{150, 300, 600} {
			r, err := experiments.E2CountAccuracy(pick(10_000, 20_000), tr, 200, 0.05)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		if !em.emit("E2", anySlice(rows)...) {
			fmt.Println("== E2: COUNT accuracy & cost — SEA agent vs BlinkDB-style AQP ==")
			fmt.Println("training  sea_mape  aqp_mape  sea_rows/q  aqp_rows/q  exact_rows/q  pred_rate  sample_KB")
			for _, r := range rows {
				fmt.Printf("%-9d %8.3f %9.3f %11.0f %11.0f %13.0f %10.2f %10d\n",
					r.Training, r.SEAMAPE, r.AQPMAPE, r.SEARowsPerQ, r.AQPRowsPerQ,
					r.ExactRowsPerQ, r.PredictionRate, r.AQPSampleBytes/1024)
			}
			fmt.Println()
		}
	}

	if want("E3") {
		r, err := experiments.E3AvgRegression(pick(10_000, 20_000), 300, 150)
		if err != nil {
			return err
		}
		if !em.emit("E3", r) {
			fmt.Println("== E3: data-less AVG / regression-coefficient queries ==")
			fmt.Printf("avg_mape=%.3f  slope_mae=%.3f (true slope 2)  corr_mae=%.3f  pred_rate=%.2f\n\n",
				r.AvgMAPE, r.SlopeMAE, r.CorrMAE, r.PredictionRate)
		}
	}

	if want("E4") {
		var rows []experiments.E4Row
		for _, n := range []int{pick(10_000, 100_000), pick(50_000, 1_000_000)} {
			for _, k := range []int{1, 10, 100} {
				r, err := experiments.E4RankJoin(n, k)
				if err != nil {
					return err
				}
				rows = append(rows, r)
			}
		}
		if !em.emit("E4", anySlice(rows)...) {
			fmt.Println("== E4: top-K rank join — MapReduce vs statistical-index threshold (C2) ==")
			fmt.Println("rows      k    mr_time        th_time     speedup   row_ratio  byte_ratio   $mr/$th")
			for _, r := range rows {
				fmt.Printf("%-8d %3d %10v %14v %8.0fx %10.1fx %10.0fx %8.0fx\n",
					r.Rows, r.K, r.MRTime, r.ThresholdTime, r.SpeedupX,
					r.RowRatioX, r.ByteRatioX, r.MRDollars/maxf(r.THDollars, 1e-12))
			}
			fmt.Println()
		}
	}

	if want("E5") {
		var rows []experiments.E5Row
		for _, n := range []int{pick(10_000, 100_000), pick(50_000, 1_000_000)} {
			for _, k := range []int{1, 10, 100} {
				r, err := experiments.E5KNN(n, k, 10)
				if err != nil {
					return err
				}
				rows = append(rows, r)
			}
		}
		if !em.emit("E5", anySlice(rows)...) {
			fmt.Println("== E5: kNN — full scan vs grid-indexed coordinator-cohort (C3) ==")
			fmt.Println("rows      k    scan_time     idx_time    speedup   row_ratio")
			for _, r := range rows {
				fmt.Printf("%-8d %3d %11v %12v %8.0fx %10.0fx\n",
					r.Rows, r.K, r.ScanTime, r.IndexedTime, r.SpeedupX, r.RowRatioX)
			}
			fmt.Println()
		}
	}

	if want("E6") {
		reps := []float64{0.6, 0.9}
		var rows []experiments.E6Row
		// E6Row does not carry the repeat fraction, so the JSON rows wrap
		// it in explicitly — machine-readable rows must be attributable
		// to their parameters.
		type e6JSON struct {
			RepeatRate float64 `json:"repeat_rate"`
			experiments.E6Row
		}
		var jrows []any
		for _, rep := range reps {
			r, err := experiments.E6SubgraphCache(pick(200, 1000), pick(100, 300), rep)
			if err != nil {
				return err
			}
			rows = append(rows, r)
			jrows = append(jrows, e6JSON{RepeatRate: rep, E6Row: r})
		}
		if !em.emit("E6", jrows...) {
			fmt.Println("== E6: subgraph queries — no cache vs semantic cache (C4) ==")
			fmt.Println("repeat   nocache_time   cache_time   speedup  exact  sub  super")
			for i, r := range rows {
				fmt.Printf("%-7.0f%% %11v %12v %8.1fx %6d %4d %6d\n",
					reps[i]*100, r.NoCacheTime, r.CacheTime, r.SpeedupX,
					r.ExactHits, r.SubHits, r.SuperHits)
			}
			fmt.Println()
		}
	}

	if want("E7") {
		var rows []experiments.E7Row
		for _, n := range []int{pick(5_000, 20_000), pick(10_000, 50_000)} {
			r, err := experiments.E7Imputation(n)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		if !em.emit("E7", anySlice(rows)...) {
			fmt.Println("== E7: missing-value imputation — all-pairs vs centroid-routed (C5) ==")
			fmt.Println("rows      full_time    centroid_time   speedup   full_rmse  cent_rmse")
			for _, r := range rows {
				fmt.Printf("%-8d %11v %14v %8.0fx %10.2f %10.2f\n",
					r.Rows, r.FullTime, r.CentroidTime, r.SpeedupX, r.FullRMSE, r.CentroidRMSE)
			}
			fmt.Println()
		}
	}

	if want("E8") {
		r, err := experiments.E8Optimizer(pick(5_000, 20_000))
		if err != nil {
			return err
		}
		if !em.emit("E8", r) {
			fmt.Println("== E8: learned paradigm selection (C6) ==")
			fmt.Printf("accuracy=%.2f  regret: learned=%.4fs always-mr=%.4fs always-cc=%.4fs  best-inference-model=%s\n\n",
				r.Accuracy, r.LearnedRegret, r.AlwaysMRRegret, r.AlwaysCCRegret, r.BestModelFamily)
		}
	}

	if want("E9") {
		r, err := experiments.E9Explanations(pick(12_000, 20_000))
		if err != nil {
			return err
		}
		if !em.emit("E9", r) {
			fmt.Println("== E9: query-answer explanations (C7) ==")
			fmt.Printf("explained=%.0f%%  fidelity_r2=%.2f  fidelity_mape=%.3f  queries_saved=%d/%d\n\n",
				r.ExplainedFrac*100, r.MeanR2, r.MeanMAPE, r.QueriesSaved, r.QueriesAsked)
		}
	}

	if want("E10") {
		r, err := experiments.E10Geo(pick(10_000, 20_000), 400, 300)
		if err != nil {
			return err
		}
		if !em.emit("E10", r) {
			fmt.Println("== E10: geo-distributed SEA (Fig.3, C8) ==")
			fmt.Printf("wan_savings=%.0fx  local_rate=%.2f  p50=%v  p95=%v  (all-to-core p50=%v)  model_ship=%dB\n\n",
				r.WANSavingsX, r.LocalRate, r.P50, r.P95, r.AllToCore50, r.ModelShipBytes)
		}
	}

	if want("E11") {
		r, err := experiments.E11Maintenance(pick(10_000, 20_000))
		if err != nil {
			return err
		}
		if !em.emit("E11", r) {
			fmt.Println("== E11: model maintenance under drift and updates (C9) ==")
			fmt.Printf("pre_drift_mape=%.3f  post_drift_mape=%.3f  recovered_mape=%.3f  post_update_exact=%d/20  recovered_pred_rate=%.2f\n\n",
				r.PreDriftMAPE, r.PostDriftMAPE, r.RecoveredMAPE, r.PostUpdateExact, r.RecoveredPredRate)
		}
	}

	if want("E12") {
		r, err := experiments.E12Polystore(pick(2_000, 8_000))
		if err != nil {
			return err
		}
		if !em.emit("E12", r) {
			fmt.Println("== E12: polystore strategies (C10) ==")
			fmt.Printf("bytes: ship-data=%d ship-pairs=%d ship-model=%d   abs_err: pairs=%.4f model=%.4f\n\n",
				r.ShipDataBytes, r.ShipPairsBytes, r.ShipModelBytes, r.ShipPairsErr, r.ShipModelErr)
		}
	}

	if want("E13") {
		var rows []experiments.E13Row
		for _, workers := range []int{pick(4, 16), pick(16, 64)} {
			r, err := experiments.E13ConcurrentServe(pick(10_000, 20_000), workers, pick(250, 1000), 300)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		if !em.emit("E13", anySlice(rows)...) {
			fmt.Println("== E13: concurrent serving throughput (N workers x M queries, wall clock) ==")
			for _, r := range rows {
				js, err := json.Marshal(r)
				if err != nil {
					return err
				}
				fmt.Println(string(js))
			}
			fmt.Println()
		}
	}

	if want("E14") {
		var rows []experiments.E14Row
		for _, nodes := range []int{1, 2, 3} {
			// The 3-node row also runs the kill-one-node failover phase.
			// Client concurrency (24) exceeds the biggest cluster's total
			// worker slots (3 nodes x 4) so every size runs saturated.
			r, err := experiments.E14DistServe(pick(10_000, 20_000), nodes,
				pick(24, 48), pick(100, 300), 300, nodes == 3)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		if !em.emit("E14", anySlice(rows)...) {
			fmt.Println("== E14: distributed serving cluster (scale-out QPS, cross-shard latency, failover) ==")
			for _, r := range rows {
				js, err := json.Marshal(r)
				if err != nil {
					return err
				}
				fmt.Println(string(js))
			}
			fmt.Println()
		}
	}

	if want("E15") {
		dir, err := os.MkdirTemp("", "seabench-e15-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		// 3 nodes, kill-and-recover on: the row carries accuracy under
		// drift, read latency under ingest, and the durability verdict.
		r, err := experiments.E15LiveIngest(pick(10_000, 20_000), 3,
			pick(8, 16), pick(100, 300), 300, pick(10, 30), pick(200, 500), dir, true)
		if err != nil {
			return err
		}
		if !em.emit("E15", r) {
			fmt.Println("== E15: live data plane (ingest + drift maintenance + kill/replay recovery) ==")
			js, err := json.Marshal(r)
			if err != nil {
				return err
			}
			fmt.Println(string(js))
			fmt.Println()
		}
	}

	if want("E16") {
		// The vectorized-vs-row-at-a-time contrast is wall-clock: run a
		// compact grid so the bench-regression job has stable rows to
		// diff. Iterations are higher at smoke scale to damp CI noise.
		var rows []experiments.E16Row
		for _, agg := range []query.Agg{query.Count, query.Sum, query.Var, query.Corr} {
			r, err := experiments.E16Vectorized(pick(200_000, 1_000_000), 16, 0.10, agg, 5)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		if !em.emit("E16", anySlice(rows)...) {
			fmt.Println("== E16: vectorized columnar execution (zone-map pruning + batch kernels, wall clock) ==")
			for _, r := range rows {
				fmt.Printf("agg=%-8s rows=%-8d sel=%.2f kernel=%5.2fx parallel=%5.2fx pruned=%5.2fx pruned_frac=%.2f vec=%6.1f Mrows/s\n",
					r.Agg, r.Rows, r.Selectivity, r.KernelSpeedupX, r.ParSpeedupX, r.PrunedSpeedupX, r.PrunedFrac, r.VecMRowsPerSec)
			}
			fmt.Println()
		}
	}

	if want("E17") {
		// The serving hot path: zero-alloc tier latencies, cache-hit
		// rate under a repeat-heavy stream, and the batched
		// scatter-gather's partial RPCs per exact query.
		r, err := experiments.E17HotPath(pick(10_000, 20_000), 300,
			pick(8, 16), pick(250, 1000), pick(50, 200))
		if err != nil {
			return err
		}
		if !em.emit("E17", r) {
			fmt.Println("== E17: serving hot path (zero-alloc tiers, answer cache, batched scatter RPCs) ==")
			fmt.Printf("try_predict=%.0fns (%.2f allocs)  cache_hit=%.0fns (%.2f allocs)  qps=%.0f  p99=%v  cache_hit_rate=%.2f  rpcs/query=%.2f (min cover %d)\n\n",
				r.TryPredictNsOp, r.TryPredictAllocsOp, r.CacheHitNsOp, r.CacheHitAllocsOp,
				r.QPS, r.P99, r.CacheHitRate, r.RPCsPerQuery, r.MinCover)
		}
	}

	// E18–E22's paired overhead harness takes the same request counts at
	// every scale: they set its resolution, not the experiment's size.
	const inProcessRequests, clusterRequests = 300_000, 96_000

	if want("E18") {
		// Observability: tracing overhead at 1-in-100 sampling, the
		// shadow audit's MAPE vs ground truth, and the stitched
		// multi-node span tree of one forced cross-shard trace.
		r, err := experiments.E18TraceOverhead(pick(10_000, 20_000), 300,
			inProcessRequests, 100)
		if err != nil {
			return err
		}
		if !em.emit("E18", r) {
			fmt.Println("== E18: query-path tracing overhead + continuous accuracy audit ==")
			fmt.Printf("overhead: %s sampled=%d\n", overheadLine(r.Overhead), r.SampledTraces)
			fmt.Printf("trace: spans=%d nodes=%d partial_rpcs=%d  audit: samples=%d mape=%.4f truth=%.4f  slow_logged=%d\n\n",
				r.TraceSpans, r.TraceNodes, r.PartialRPCSpans,
				r.AuditSamples, r.AuditMAPE, r.TruthMAPE, r.SlowLogged)
		}
	}

	if want("E19") {
		// Cluster introspection: a replica killed mid-ingest must show a
		// critical finding, then nonzero replication lag after a cold
		// revive, then a clean report after catch-up; plus what logging
		// and runtime sampling cost at serving speed.
		r, err := experiments.E19Introspection(pick(10_000, 20_000), 300,
			inProcessRequests)
		if err != nil {
			return err
		}
		if !em.emit("E19", r) {
			fmt.Println("== E19: cluster introspection plane (replication lag, findings, obs overhead) ==")
			fmt.Printf("overhead: %s\n", overheadLine(r.Overhead))
			fmt.Printf("victim=%s down_critical=%d lag: parts=%d peak=%d caught_up=%v  storm: log_lines=%d dropped=%d\n\n",
				r.Victim, r.DownCritical, r.LagParts, r.LagPeak, r.CaughtUp,
				r.LogLines, r.LogDropped)
		}
	}

	if want("E20") {
		// Flight recorder: sampling overhead at an aggressive 100ms
		// period, then the induced-overload narrative — anomaly fired,
		// SLO critical, exactly one bundle per cooldown window, latency
		// ramp queryable at both history resolutions.
		r, err := experiments.E20FlightRecorder(pick(10_000, 20_000), 300,
			inProcessRequests)
		if err != nil {
			return err
		}
		if !em.emit("E20", r) {
			fmt.Println("== E20: flight recorder (history rings, anomaly detection, triggered bundles) ==")
			fmt.Printf("overhead: %s series=%d\n", overheadLine(r.Overhead), r.Series)
			fmt.Printf("narrative: anomaly=%s z=%.1f slo_state=%d triggers=%d/%d suppressed=%d bundle_files=%d ramp=%.1fx hi=%d lo=%d exemplar=%s\n\n",
				r.AnomalyMetric, r.AnomalyZ, r.SLOState,
				r.TriggersFirstWindow, r.Triggers, r.Suppressed,
				r.BundleFiles, r.RampRatio, r.HiPoints, r.LoPoints, r.ExemplarTraceID)
		}
	}

	if want("E21") {
		// Chaos resilience: the hardened RPC plane's overhead with chaos
		// disarmed (per-query paired A/B latency ratio, CI-gated at
		// <=2%), then the armed narrative — blackholed + slow/flaky
		// peers, zero client-visible errors, honest degraded coverage,
		// breaker opens and re-closes after the rules clear.
		r, err := experiments.E21ChaosResilience(pick(8_000, 20_000),
			clusterRequests)
		if err != nil {
			return err
		}
		if !em.emit("E21", r) {
			fmt.Println("== E21: chaos resilience (deadlines, retries, breakers, hedges, degradation) ==")
			fmt.Printf("overhead: %s hedges=%d\n", overheadLine(r.Overhead), r.Hedges)
			fmt.Printf("narrative: queries=%d errors=%d degraded=%d coverage=[%.2f,%.2f] honesty_err=%.2f%% p99=%.0f->%.0fms retries=%d delayed=%d errored=%d blackholed=%d breaker_opened=%v reclosed=%v recover=%dms\n\n",
				r.Queries, r.ClientErrors, r.Degraded, r.MinCoverage, r.MaxCoverage,
				r.HonestyErrPct, r.BaseP99MS, r.ChaosP99MS, r.RPCRetries,
				r.Delayed, r.Errored, r.Blackholed,
				r.BreakerOpened, r.BreakerReclosed, r.RecoverMS)
		}
	}

	if want("E22") {
		// Elastic membership: the elastic plane's query-path overhead
		// with anti-entropy disarmed vs armed (paired A/B, CI-gated at
		// <=2%), then the narrative — a 3-node cluster grows to 5 and
		// retires a founding member under sustained queries + ingest
		// with zero errors and zero acked-row loss, and a deliberately
		// corrupted replica is healed back to bit-identical by the
		// background anti-entropy loop.
		r, err := experiments.E22ElasticMembership(pick(8_000, 20_000),
			clusterRequests)
		if err != nil {
			return err
		}
		if !em.emit("E22", r) {
			fmt.Println("== E22: elastic membership (join/leave, rebalance, anti-entropy) ==")
			fmt.Printf("overhead: %s\n", overheadLine(r.Overhead))
			fmt.Printf("narrative: queries=%d errors=%d p99=%.0fms joined=%d left=%d epoch=%d moved_parts=%d acked=%d loss=%d repairs=%d repair=%dms finding=%v\n\n",
				r.Queries, r.ClientErrors, r.QueryP99MS, r.Joined, r.Left,
				r.FinalEpoch, r.MovedParts, r.AckedRows, r.LossRows,
				r.Repairs, r.RepairMS, r.RepairFinding)
		}
	}

	if want("A1") {
		rows, err := experiments.A1Quanta(pick(10_000, 20_000), []float64{64, 225, 900})
		if err != nil {
			return err
		}
		if !em.emit("A1", anySlice(rows)...) {
			fmt.Println("== A1: quantisation granularity ablation ==")
			for _, r := range rows {
				fmt.Printf("spawn_dist=%-6.0f quanta=%-3.0f mape=%.3f pred_rate=%.2f\n",
					r.Param, r.Extra, r.MAPE, r.PredictionRate)
			}
			fmt.Println()
		}
	}

	if want("A2") {
		scores, err := experiments.A2ModelFamily(pick(10_000, 20_000))
		if err != nil {
			return err
		}
		if !em.emit("A2", scores) {
			fmt.Println("== A2: per-quantum model family ablation (CV RMSE on count queries) ==")
			for _, name := range []string{"linear", "quadratic", "knn", "boosted"} {
				fmt.Printf("%-10s rmse=%.1f\n", name, scores[name])
			}
			fmt.Println()
		}
	}

	if want("A3") {
		rows, err := experiments.A3Fallback(pick(10_000, 20_000), []float64{0.05, 0.1, 0.2, 0.5})
		if err != nil {
			return err
		}
		if !em.emit("A3", anySlice(rows)...) {
			fmt.Println("== A3: fallback threshold ablation ==")
			for _, r := range rows {
				fmt.Printf("threshold=%-5.2f mape=%.3f pred_rate=%.2f\n", r.Param, r.MAPE, r.PredictionRate)
			}
			fmt.Println()
		}
	}

	if want("A4") {
		rows, err := experiments.A4RankJoinBatch(pick(10_000, 50_000), []int{16, 64, 256})
		if err != nil {
			return err
		}
		if !em.emit("A4", anySlice(rows)...) {
			fmt.Println("== A4: rank-join batch size ablation ==")
			for _, r := range rows {
				fmt.Printf("batch=%-4.0f rows_read=%-8.0f time=%.4fs\n", r.Param, r.Extra, r.MAPE)
			}
			fmt.Println()
		}
	}

	if want("A5") {
		out, err := experiments.A5GeoRouting(pick(5_000, 10_000))
		if err != nil {
			return err
		}
		if !em.emit("A5", out) {
			fmt.Println("== A5: geo routing policy ablation (models on one edge only) ==")
			fmt.Printf("wan_bytes: core-only=%.0f peer-first=%.0f\n\n", out["core-only"], out["peer-first"])
		}
	}
	return em.err
}

// anySlice widens a typed row slice for emitter.emit's variadic any.
func anySlice[T any](rows []T) []any {
	out := make([]any, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// overheadLine formats the paired A/B/A′ overhead every E18–E22 row
// carries: the treated plane's drop and the null arm's, both against
// the baseline instance.
func overheadLine(o experiments.Overhead) string {
	return fmt.Sprintf("baseline_qps=%.0f treated_qps=%.0f null_qps=%.0f drop=%.2f%% null=%.2f%% pairs=%d",
		o.BaselineQPS, o.TreatedQPS, o.NullQPS, o.OverheadPct, o.NullPct, o.Pairs)
}
