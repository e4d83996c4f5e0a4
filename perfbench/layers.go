package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/storage"
)

// e2eNames are the metrics an untraced run reports, on every workload.
// None but setup_s depends on how fast the machine runs (NOTES.md).
var e2eNames = []string{"setup_s", "allocs_per_op", "bytes_per_op", "heap_peak_mb"}

// layerUnits lists the metrics a traced run reports, on every workload,
// with their units. A layer the workload does not cross reads 0.
var layerUnits = map[string]string{
	"query_qps":                      "1/s",
	"query_p50_us":                   "us",
	"cpu_us_per_op":                  "us",
	"serve.sched_wait_us":            "us",
	"serve.cache_hit_ratio":          "ratio",
	"serve.cache_lookup_us":          "us",
	"core.predict_us":                "us",
	"core.pred_ratio":                "ratio",
	"core.fallback_us":               "us",
	"core.absorb_us":                 "us",
	"query.kernel_us":                "us",
	"query.rows_scanned_per_query":   "count",
	"query.pruned_frac":              "ratio",
	"query.merge_us":                 "us",
	"dist.wire_encode_us":            "us",
	"dist.wire_decode_us":            "us",
	"dist.wire_bytes_per_query":      "B",
	"dist.scatter_us":                "us",
	"dist.node_answer_us":            "us",
	"dist.client_hop_us":             "us",
	"dist.partial_rpcs_per_query":    "count",
	"dist.messages_per_query":        "count",
	"dist.bytes_lan_per_query":       "B",
	"dist.rpc_retries":               "count",
	"dist.hedges":                    "count",
	"dist.degraded":                  "count",
	"ingest.wal_append_us":           "us",
	"ingest.fsync_us":                "us",
	"ingest.wal_bytes_per_user_byte": "ratio",
	"storage.append_us":              "us",
	"gen.late_p99_us":                "us",
	"gen.read_late_p99_us":           "us",
	"ingest_ack_p50_us":              "us",
	"ingest_ack_p99_us":              "us",
	"model_rel_err_p50":              "ratio",
	"error_rate":                     "ratio",
	"trace.overhead_us":              "us",
	"trace.overhead_frac":            "ratio",
}

func init() {
	for _, prefix := range []string{"ledger.", "ledger.write."} {
		layers := readLayers
		if prefix == "ledger.write." {
			layers = writeLayers
		}
		layerUnits[prefix+"e2e_us"] = "us"
		layerUnits[prefix+"residual_us"] = "us"
		layerUnits[prefix+"residual_frac"] = "ratio"
		for _, l := range layers {
			layerUnits[prefix+l+"_self_us"] = "us"
		}
	}
}

// newLayerSet returns every per-layer metric at 0.
func newLayerSet() metricSet {
	m := make(metricSet, len(layerUnits))
	for k, u := range layerUnits {
		m.set(k, 0, u)
	}
	return m
}

// probeKernel times the exact-path kernels on the reference table:
// query.EvalTable per query (with the rows it streamed and the share of
// partitions zone maps pruned) and query.MergeEval over the
// per-partition states query.PartialForPartition computes.
func probeKernel(m metricSet, ref *storage.Table, qs []query.Query) error {
	var rows, pruned, parts int64
	var evalErr error
	m.set("query.kernel_us", timeEach(len(qs), func(i int) {
		_, st, err := query.EvalTable(qs[i], ref)
		if err != nil {
			evalErr = err
		}
		rows += st.RowsScanned
		pruned += int64(st.PartsPruned)
		parts += int64(st.PartsPruned + st.PartsScanned)
	}), "us")
	if evalErr != nil {
		return evalErr
	}
	m.set("query.rows_scanned_per_query", float64(rows)/float64(len(qs)), "count")
	m.set("query.pruned_frac", float64(pruned)/float64(max(parts, 1)), "ratio")
	partials := make([][][]float64, len(qs))
	for i, q := range qs {
		for p := 0; p < ref.Partitions(); p++ {
			st, _, err := query.PartialForPartition(q, ref, p)
			if err != nil {
				return err
			}
			partials[i] = append(partials[i], st)
		}
	}
	m.set("query.merge_us", timeEach(len(qs), func(i int) { query.MergeEval(qs[i], partials[i]) }), "us")
	return nil
}

// probeAgent times core.Agent.TryPredict over the workload's queries
// qs, then Agent.Answer on up to limit queries it refuses (the exact
// fallback): those among qs, then cold ones. It changes the agent
// (fallbacks are learned from), so it runs last.
func probeAgent(m metricSet, ag *core.Agent, qs, cold []query.Query, limit int) error {
	var refused []query.Query
	t0 := time.Now()
	for _, q := range qs {
		if _, ok := ag.TryPredict(q); !ok {
			refused = append(refused, q)
		}
	}
	m.set("core.predict_us", float64(time.Since(t0).Nanoseconds())/float64(len(qs))/1e3, "us")
	m.set("core.pred_ratio", 1-float64(len(refused))/float64(len(qs)), "ratio")
	for _, q := range cold {
		if _, ok := ag.TryPredict(q); !ok {
			refused = append(refused, q)
		}
	}
	if len(refused) > limit {
		refused = refused[:limit]
	}
	var ansErr error
	m.set("core.fallback_us", timeEach(len(refused), func(i int) {
		if _, err := ag.Answer(refused[i]); err != nil {
			ansErr = err
		}
	}), "us")
	return ansErr
}

// relErr is |got - want| relative to |want| (or to 1 when |want| < 1).
func relErr(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	if want < 0 {
		want = -want
	}
	return d / max(want, 1)
}
