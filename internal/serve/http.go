package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/trace"
)

// QueryRequest is the wire form of one analytical query. Exactly one
// selection form is used: los/his (hyper-rectangle) or center/radius
// (hyper-sphere).
type QueryRequest struct {
	// Tenant identifies the client for admission control; the X-Tenant
	// header takes precedence. Empty means the shared default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Agg is one of count, sum, avg, var, corr, slope.
	Agg string `json:"agg"`
	// Los/His bound a hyper-rectangle selection.
	Los []float64 `json:"los,omitempty"`
	His []float64 `json:"his,omitempty"`
	// Center/Radius define a hyper-sphere selection.
	Center []float64 `json:"center,omitempty"`
	Radius float64   `json:"radius,omitempty"`
	// Col is the aggregate's primary column, Col2 the second column for
	// corr/slope.
	Col  int `json:"col,omitempty"`
	Col2 int `json:"col2,omitempty"`
	// DeadlineMS is the absolute wall-clock deadline (Unix milliseconds)
	// after which the caller stops waiting; 0 means none. Forwarding and
	// scatter layers propagate it so downstream holders can refuse
	// dead-on-arrival work instead of computing answers nobody reads.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CostJSON summarises the virtual cost charged for an answer.
type CostJSON struct {
	TimeNS   int64 `json:"time_ns"`
	CPUNS    int64 `json:"cpu_ns"`
	RowsRead int64 `json:"rows_read"`
	BytesLAN int64 `json:"bytes_lan"`
	Nodes    int   `json:"nodes_touched"`
}

// ToCostJSON converts a virtual cost to its wire form.
func ToCostJSON(c metrics.Cost) CostJSON {
	return CostJSON{
		TimeNS:   c.Time.Nanoseconds(),
		CPUNS:    c.CPUTime.Nanoseconds(),
		RowsRead: c.RowsRead,
		BytesLAN: c.BytesLAN,
		Nodes:    c.NodesTouched,
	}
}

// QueryResponse is the wire form of an answer.
type QueryResponse struct {
	Value     float64 `json:"value"`
	Predicted bool    `json:"predicted"`
	EstError  float64 `json:"est_error"`
	Quantum   int     `json:"quantum"`
	// StaleRows is the freshness signal of a predicted answer: how many
	// ingested rows the answering quantum has absorbed since its models
	// last refreshed (0 = fully fresh, and always 0 for exact answers).
	StaleRows int      `json:"stale_rows,omitempty"`
	Cost      CostJSON `json:"cost"`
	// TraceID/Trace carry the inline span tree when the query was
	// forced-traced with ?trace=1. The same tree is retrievable later
	// via GET /v1/debug/trace/<trace_id> while it stays in the ring.
	TraceID string          `json:"trace_id,omitempty"`
	Trace   *trace.WireSpan `json:"trace,omitempty"`
	// Degraded marks a best-effort answer computed from a strict subset
	// of the partition space (some holders were unreachable); Coverage
	// is the contributing fraction (0 < coverage < 1). Absent on full
	// answers.
	Degraded bool    `json:"degraded,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ParseAgg maps a wire aggregate name to the query model's kind.
func ParseAgg(s string) (query.Agg, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "count":
		return query.Count, nil
	case "sum":
		return query.Sum, nil
	case "avg", "mean", "average":
		return query.Avg, nil
	case "var", "variance":
		return query.Var, nil
	case "corr", "correlation":
		return query.Corr, nil
	case "slope", "regslope":
		return query.RegSlope, nil
	default:
		return 0, fmt.Errorf("%w: unknown agg %q", query.ErrBadQuery, s)
	}
}

// Query converts the request to the internal query model.
func (r QueryRequest) Query() (query.Query, error) {
	agg, err := ParseAgg(r.Agg)
	if err != nil {
		return query.Query{}, err
	}
	q := query.Query{Aggregate: agg, Col: r.Col, Col2: r.Col2}
	if r.Radius > 0 {
		q.Select = query.Selection{Center: r.Center, Radius: r.Radius}
	} else {
		q.Select = query.Selection{Los: r.Los, His: r.His}
	}
	if err := q.Validate(); err != nil {
		return query.Query{}, err
	}
	if r.DeadlineMS > 0 {
		q.Deadline = time.UnixMilli(r.DeadlineMS)
	}
	return q, nil
}

// RegisterDebug mounts the trace-debug routes on mux: the recent-trace
// list, single-trace retrieval and the slow-query log. tracerFn is
// consulted per request (it may return nil while tracing is
// unconfigured — routes then return 404).
func RegisterDebug(mux *http.ServeMux, tracerFn func() *trace.Tracer) {
	mux.HandleFunc("GET /v1/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		t := tracerFn()
		if t == nil {
			WriteJSON(w, http.StatusNotFound, errorResponse{Error: "tracing not configured"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"traces": t.RecentIDs()})
	})
	mux.HandleFunc("GET /v1/debug/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		t := tracerFn()
		if t == nil {
			WriteJSON(w, http.StatusNotFound, errorResponse{Error: "tracing not configured"})
			return
		}
		ws, ok := t.Get(r.PathValue("id"))
		if !ok {
			WriteJSON(w, http.StatusNotFound, errorResponse{Error: "trace not in ring"})
			return
		}
		WriteJSON(w, http.StatusOK, ws)
	})
	mux.HandleFunc("GET /v1/debug/slow", func(w http.ResponseWriter, _ *http.Request) {
		t := tracerFn()
		if t == nil {
			WriteJSON(w, http.StatusNotFound, errorResponse{Error: "tracing not configured"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"slow": t.SlowLog()})
	})
}

// RegisterFlight mounts the flight-recorder routes on mux: metric
// history replay and the diagnostic-bundle spool. fn is consulted per
// request (it may return nil while the recorder is unconfigured —
// routes then return 404).
func RegisterFlight(mux *http.ServeMux, fn func() *flight.Recorder) {
	unavailable := func(w http.ResponseWriter) *flight.Recorder {
		fr := fn()
		if fr == nil {
			WriteJSON(w, http.StatusNotFound, errorResponse{Error: "flight recorder not enabled"})
		}
		return fr
	}
	mux.HandleFunc("GET /v1/history", func(w http.ResponseWriter, r *http.Request) {
		fr := unavailable(w)
		if fr == nil {
			return
		}
		metric := r.URL.Query().Get("metric")
		if metric == "" {
			WriteJSON(w, http.StatusOK, map[string]any{"metrics": fr.Metrics()})
			return
		}
		window := time.Duration(0)
		if ws := r.URL.Query().Get("window"); ws != "" {
			d, err := time.ParseDuration(ws)
			if err != nil {
				WriteJSON(w, http.StatusBadRequest,
					errorResponse{Error: "bad window: " + err.Error()})
				return
			}
			window = d
		}
		h, ok := fr.History(metric, window)
		if !ok {
			WriteJSON(w, http.StatusNotFound, errorResponse{Error: "unknown metric " + metric})
			return
		}
		WriteJSON(w, http.StatusOK, h)
	})
	mux.HandleFunc("GET /v1/debug/bundles", func(w http.ResponseWriter, _ *http.Request) {
		fr := unavailable(w)
		if fr == nil {
			return
		}
		bundles := fr.Bundles()
		if bundles == nil {
			bundles = []flight.BundleInfo{}
		}
		WriteJSON(w, http.StatusOK, map[string]any{"bundles": bundles})
	})
	mux.HandleFunc("GET /v1/debug/bundle/{id}/{file}", func(w http.ResponseWriter, r *http.Request) {
		fr := unavailable(w)
		if fr == nil {
			return
		}
		path, err := fr.BundleFile(r.PathValue("id"), r.PathValue("file"))
		if err != nil {
			WriteJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		http.ServeFile(w, r, path)
	})
}

// RegisterPprof mounts the standard net/http/pprof profiling handlers
// under /debug/pprof/ on mux. Off by default everywhere — profiling
// endpoints on a data port are an explicit operator opt-in (seaserve
// -pprof), since heap and CPU profiles leak operational detail.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// WriteJSON writes v as a JSON response with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrDeadline is returned when a request's propagated deadline has
// already passed: the holder refuses dead-on-arrival work instead of
// computing an answer whose caller stopped waiting. Mapped to HTTP 504
// — terminal, never retried (a retry would arrive even deader).
var ErrDeadline = errors.New("serve: deadline exceeded")

// WriteError maps err onto the serving layer's status-code convention
// (400 malformed, 429 overload, 503 closed, 502 oracle failure, 504
// dead-on-arrival deadline) and writes it as a JSON error body.
func WriteError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, query.ErrBadQuery):
		code = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantThrottled):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, explain.ErrUntrusted):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrNoOracle):
		code = http.StatusBadGateway
	case errors.Is(err, ErrDeadline):
		code = http.StatusGatewayTimeout
	}
	WriteJSON(w, code, errorResponse{Error: err.Error()})
}

// TraceRequested reports whether the request asked for a forced inline
// trace (?trace=1).
func TraceRequested(r *http.Request) bool {
	return r.URL.Query().Get("trace") == "1"
}

// WriteMetrics renders the recorder's full Prometheus exposition —
// counters, gauges, per-path and per-tenant-class latency histograms,
// audit error histograms and registered gauges (GET /v1/metrics).
func WriteMetrics(w http.ResponseWriter, rec *metrics.ServeRecorder) {
	w.Header().Set("Content-Type", metrics.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	_ = rec.WriteRecorder(w)
}

// RunHTTP serves h on addr until ctx is cancelled, then shuts down
// gracefully (see RunListener). onStopped runs once serving has ended
// either way — the node passes its scheduler drain here.
func RunHTTP(ctx context.Context, addr string, h http.Handler, drain time.Duration, onStopped func()) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		if onStopped != nil {
			onStopped()
		}
		return err
	}
	return RunListener(ctx, l, h, drain, onStopped)
}

// RunListener serves h on l until ctx is cancelled, then shuts down
// gracefully: the listener stops accepting, in-flight requests get up to
// drain to finish (http.Server.Shutdown), then onStopped (if any) runs.
// A clean shutdown returns nil.
func RunListener(ctx context.Context, l net.Listener, h http.Handler, drain time.Duration, onStopped func()) error {
	if drain <= 0 {
		drain = 10 * time.Second
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	var err error
	select {
	case err = <-errCh:
		if onStopped != nil {
			onStopped()
		}
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	<-errCh // Serve has returned http.ErrServerClosed
	if onStopped != nil {
		onStopped()
	}
	return err
}
