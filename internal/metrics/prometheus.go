package metrics

import (
	"fmt"
	"io"
	"sort"
)

// PrometheusContentType is the content type of the text exposition
// format WritePrometheus emits.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Latency histogram exposition bounds: 2^10 ns (~1us) doubling to
// 2^34 ns (~17s); audit-error bounds: 2^16 err-units (~6.6e-5
// relative) doubling to 2^36 (~69).
const (
	latMinOctave = 10
	latMaxOctave = 34
	errMinOctave = 16
	errMaxOctave = 36
)

// WritePrometheus renders a serving snapshot in the Prometheus text
// exposition format: lifetime counters as *_total series, rates and
// latency percentiles as gauges. Every series carries HELP/TYPE.
// Snapshot-only form — WriteRecorder additionally emits the real
// per-path histograms, tenant-class series, audit histograms and
// registered gauges the snapshot does not carry bucket data for.
func WritePrometheus(w io.Writer, s ServeSnapshot) error {
	counters := []struct {
		name, help string
		v          int64
	}{
		{"sea_queries_total", "Answered queries (predicted + fallbacks + deduped).", s.Queries},
		{"sea_predicted_total", "Queries answered data-lessly from learned models.", s.Predicted},
		{"sea_fallbacks_total", "Queries that executed the exact oracle path.", s.Fallbacks},
		{"sea_deduped_total", "Queries served by sharing an identical in-flight fallback.", s.Deduped},
		{"sea_cache_hits_total", "Queries served from the versioned answer cache.", s.CacheHits},
		{"sea_rejected_total", "Submissions turned away by admission control.", s.Rejected},
		{"sea_errors_total", "Failed queries.", s.Errors},
		{"sea_ingest_batches_total", "Row batches applied through the live write path.", s.IngestBatches},
		{"sea_ingest_rows_total", "Rows applied through the live write path.", s.IngestRows},
		{"sea_drift_invalidations_total", "Quanta invalidated by the ingest drift budget.", s.DriftInvalidations},
		{"sea_rebuilds_total", "Completed background model re-quantisations.", s.Rebuilds},
		{"sea_rpc_retries_total", "Retried inter-node RPC attempts.", s.RPCRetries},
		{"sea_hedges_total", "Hedged scatter RPCs fired against a second holder.", s.Hedges},
		{"sea_degraded_answers_total", "Queries answered with partial partition coverage.", s.DegradedAnswers},
	}
	for _, c := range counters {
		if err := writeSeries(w, c.name, c.help, "counter", float64(c.v)); err != nil {
			return err
		}
	}
	gauges := []struct {
		name, help string
		v          float64
	}{
		{"sea_qps", "Lifetime queries per second.", s.QPS},
		{"sea_fallback_rate", "Fraction of queries that ran the exact path.", s.FallbackRate},
		{"sea_uptime_seconds", "Recorder uptime.", s.Uptime.Seconds()},
	}
	for _, g := range gauges {
		if err := writeSeries(w, g.name, g.help, "gauge", g.v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w,
		"# HELP sea_latency_seconds Query latency quantiles from the merged answer-path histograms.\n"+
			"# TYPE sea_latency_seconds gauge\n"+
			"sea_latency_seconds{quantile=\"0.5\"} %g\n"+
			"sea_latency_seconds{quantile=\"0.9\"} %g\n"+
			"sea_latency_seconds{quantile=\"0.99\"} %g\n"+
			"sea_latency_seconds{quantile=\"1\"} %g\n",
		s.P50.Seconds(), s.P90.Seconds(), s.P99.Seconds(), s.Max.Seconds()); err != nil {
		return err
	}
	return nil
}

// WriteRecorder renders the full exposition: everything WritePrometheus
// emits plus real Prometheus histograms (`_bucket`/`_sum`/`_count`)
// for every answer path's latency distribution and every accuracy-audit
// error histogram, per-tenant-class counters, and the registered
// gauges. Every serving node mounts it on GET /v1/metrics, so one
// scrape config covers a lone node and every cluster member alike.
func (r *ServeRecorder) WriteRecorder(w io.Writer) error {
	if err := WritePrometheus(w, r.Snapshot()); err != nil {
		return err
	}

	// Per-path latency histograms.
	if _, err := fmt.Fprintf(w,
		"# HELP sea_path_latency_seconds Query latency by answer path.\n"+
			"# TYPE sea_path_latency_seconds histogram\n"); err != nil {
		return err
	}
	for p := Path(0); p < NumPaths; p++ {
		hs := r.paths[p].Snapshot()
		if hs.Count == 0 {
			continue
		}
		if err := writeHist(w, "sea_path_latency_seconds",
			Label("path", p.String()), hs, latMinOctave, latMaxOctave, 1e-9); err != nil {
			return err
		}
	}

	// Per-tenant-class admission and latency series.
	r.tenantMu.RLock()
	classes := make([]string, 0, len(r.tenants))
	for class := range r.tenants {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	stats := make([]*TenantStats, len(classes))
	for i, class := range classes {
		stats[i] = r.tenants[class]
	}
	r.tenantMu.RUnlock()
	if len(classes) > 0 {
		if _, err := fmt.Fprintf(w,
			"# HELP sea_tenant_queries_total Completed queries by tenant class.\n"+
				"# TYPE sea_tenant_queries_total counter\n"); err != nil {
			return err
		}
		for i, class := range classes {
			if _, err := fmt.Fprintf(w, "sea_tenant_queries_total{%s} %d\n", Label("class", class), stats[i].Queries.Load()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w,
			"# HELP sea_tenant_rejected_total Admission rejections by tenant class.\n"+
				"# TYPE sea_tenant_rejected_total counter\n"); err != nil {
			return err
		}
		for i, class := range classes {
			if _, err := fmt.Fprintf(w, "sea_tenant_rejected_total{%s} %d\n", Label("class", class), stats[i].Rejected.Load()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w,
			"# HELP sea_tenant_inflight Queued plus running queries by tenant class.\n"+
				"# TYPE sea_tenant_inflight gauge\n"); err != nil {
			return err
		}
		for i, class := range classes {
			if _, err := fmt.Fprintf(w, "sea_tenant_inflight{%s} %d\n", Label("class", class), stats[i].Inflight.Load()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w,
			"# HELP sea_tenant_latency_seconds Query latency (queue wait + execution) by tenant class.\n"+
				"# TYPE sea_tenant_latency_seconds histogram\n"); err != nil {
			return err
		}
		for i, class := range classes {
			hs := stats[i].Lat.Snapshot()
			if hs.Count == 0 {
				continue
			}
			if err := writeHist(w, "sea_tenant_latency_seconds",
				Label("class", class), hs, latMinOctave, latMaxOctave, 1e-9); err != nil {
				return err
			}
		}
	}

	// Accuracy-audit error histograms.
	if _, err := fmt.Fprintf(w,
		"# HELP sea_audit_error Predicted-vs-truth relative error of audited model answers.\n"+
			"# TYPE sea_audit_error histogram\n"); err != nil {
		return err
	}
	var histErr error
	r.audit.Hists(func(k AuditKey, h *Histogram) {
		if histErr != nil {
			return
		}
		hs := h.Snapshot()
		if hs.Count == 0 {
			return
		}
		labels := Label("agent", fmt.Sprint(k.Agent)) + "," +
			Label("agg", k.Agg) + "," + Label("source", k.Source)
		histErr = writeHist(w, "sea_audit_error", labels, hs, errMinOctave, errMaxOctave, 1/ErrScale)
	})
	if histErr != nil {
		return histErr
	}
	if err := writeSeries(w, "sea_audit_samples_total",
		"Model answers audited against an exact evaluation.", "counter",
		float64(r.audit.Samples())); err != nil {
		return err
	}

	// SLO burn rates, when an engine is attached (nil-safe no-op
	// otherwise).
	if err := r.slo.Load().WritePrometheus(w); err != nil {
		return err
	}

	// Registered gauges (WAL segments, absorbed version, probation
	// quanta, queue depth — owned by other subsystems).
	for _, g := range r.Gauges() {
		if err := writeSeries(w, g.Name, g.Help, "gauge", g.Fn()); err != nil {
			return err
		}
	}
	return nil
}

// writeHist emits one labeled histogram series set: cumulative
// `_bucket{le=...}` lines, `_sum` and `_count`. The caller emits the
// shared HELP/TYPE header once per metric name.
func writeHist(w io.Writer, name, labels string, hs HistSnapshot, minOct, maxOct int, scale float64) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, b := range hs.PromBuckets(minOct, maxOct, scale) {
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b.LE, b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, hs.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(hs.Sum)*scale); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, hs.Count)
	return err
}

func writeSeries(w io.Writer, name, help, kind string, v float64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, kind, name, v)
	return err
}
