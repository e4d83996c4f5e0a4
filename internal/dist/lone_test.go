package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/workload"
)

// loneNode builds a one-member node (no peers: it holds every
// partition) over the standard dataset. A positive training count
// trains its agents on a COUNT stream past that prefix, directly and
// not through the pool, so the serving counters start at zero. Equal
// arguments build nodes that answer identically.
func loneNode(t *testing.T, cfg Config, rows, training int) *Node {
	t.Helper()
	cfg.ID = "local"
	agent := core.DefaultConfig(2)
	agent.TrainingQueries = 1 << 30
	if training > 0 {
		agent.TrainingQueries = training
	}
	cfg.Agent = agent
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if err := n.Load(testRows(rows, 21)); err != nil {
		t.Fatal(err)
	}
	for _, ag := range n.Pool().Agents() {
		qs := workload.NewQueryStream(workload.NewRNG(22), workload.DefaultRegions(2), query.Count)
		for i := 0; i < training+training/2; i++ {
			if _, err := ag.Answer(qs.Next()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

// countAt is a small COUNT box around (x, y).
func countAt(x, y float64) query.Query {
	return query.Query{Aggregate: query.Count,
		Select: query.Selection{Los: []float64{x - 1, y - 1}, His: []float64{x + 1, y + 1}}}
}

func queryBody(t *testing.T, q query.Query, tenant string) []byte {
	t.Helper()
	if q.Aggregate != query.Count {
		t.Fatalf("unmapped aggregate %v", q.Aggregate)
	}
	req := serve.QueryRequest{Tenant: tenant, Agg: "count"}
	if q.Select.IsRadius() {
		req.Center, req.Radius = q.Select.Center, q.Select.Radius
	} else {
		req.Los, req.His = q.Select.Los, q.Select.His
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func post(t *testing.T, url, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func postCount(t *testing.T, url string, q query.Query, tenant string) (QueryResponse, int) {
	t.Helper()
	code, body := post(t, url, "/v1/query", queryBody(t, q, tenant))
	var out QueryResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
	}
	return out, code
}

// TestLoneNodeEndToEndMatchesInProcess: a lone node's HTTP answers are
// bit-identical to those an identically built node gives in process.
func TestLoneNodeEndToEndMatchesInProcess(t *testing.T) {
	cfg := Config{Workers: 4, AnswerCache: -1}
	served := loneNode(t, cfg, 4_000, 200)
	direct := loneNode(t, cfg, 4_000, 200)
	ts := httptest.NewServer(served.Handler())
	defer ts.Close()

	qs := workload.NewQueryStream(workload.NewRNG(77), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 150; i++ {
		q := qs.Next()
		got, code := postCount(t, ts.URL, q, "e2e")
		if code != http.StatusOK {
			t.Fatalf("query %d: HTTP %d", i, code)
		}
		want, err := direct.Answer("e2e", q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || got.Predicted != want.Predicted ||
			got.EstError != want.EstError || got.Quantum != want.Quantum {
			t.Fatalf("query %d diverged:\n  http   = %+v\n  direct = %+v", i, got, want)
		}
	}
	if s, d := served.Pool().Stats().Queries, direct.Pool().Stats().Queries; s != d {
		t.Errorf("served node answered %d queries, direct %d", s, d)
	}
}

func TestLoneNodeConcurrentClients(t *testing.T) {
	n := loneNode(t, Config{Workers: 8, QueueDepth: 256, TenantInflight: -1}, 4_000, 200)
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()

	const clients = 32
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			cs := workload.NewQueryStream(workload.NewRNG(700+int64(c)), workload.DefaultRegions(2), query.Count)
			for i := 0; i < 10; i++ {
				if _, code := postCount(t, ts.URL, cs.Next(), "load"); code != http.StatusOK {
					t.Errorf("client %d: HTTP %d", c, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// The stats endpoint reflects the load.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Serving.Queries != clients*10 {
		t.Errorf("stats served %d queries, want %d", stats.Serving.Queries, clients*10)
	}
	if stats.Serving.QPS <= 0 || stats.Serving.P50 <= 0 {
		t.Errorf("missing throughput metrics: %+v", stats.Serving)
	}
}

func TestLoneNodeErrorMapping(t *testing.T) {
	n := loneNode(t, Config{Workers: 2}, 4_000, 200)
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"bad json":     `{"agg":`,
		"unknown agg":  `{"agg":"median","los":[0,0],"his":[1,1]}`,
		"lo above hi":  `{"agg":"count","los":[2,2],"his":[1,1]}`,
		"no selection": `{"agg":"count"}`,
	} {
		if code, _ := post(t, ts.URL, "/v1/query", []byte(body)); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}

	// A query the trained model predicts is explained; one far from
	// every interest region has no trusted model and maps to 422.
	ag := n.Pool().Agents()[0]
	qs := workload.NewQueryStream(workload.NewRNG(88), workload.DefaultRegions(2), query.Count)
	trusted := qs.Next()
	for i := 0; i < 100; i++ {
		if _, _, ok := ag.PredictOnly(trusted); ok {
			break
		}
		trusted = qs.Next()
	}
	code, body := post(t, ts.URL, "/v1/explain", queryBody(t, trusted, ""))
	if code != http.StatusOK {
		t.Fatalf("explain trusted query: HTTP %d: %s", code, body)
	}
	var ex explain.Explanation
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Slopes) == 0 || ex.Value <= 0 {
		t.Errorf("explanation lacks a curve or a value: %s", body)
	}
	if code, body := post(t, ts.URL, "/v1/explain",
		[]byte(`{"agg":"count","los":[90,5],"his":[95,10]}`)); code != http.StatusUnprocessableEntity {
		t.Errorf("explain untrusted query: HTTP %d, want 422: %s", code, body)
	}
}

// TestLoneNodeGracefulShutdown verifies the drain path: cancelling the
// serve context lets an in-flight query (parked inside the exact
// oracle) finish with 200 instead of killing it, then closes the
// scheduler.
func TestLoneNodeGracefulShutdown(t *testing.T) {
	n := loneNode(t, Config{Workers: 2}, 1_000, 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- serve.RunListener(ctx, l, n.Handler(), 5*time.Second, n.Close) }()
	url := "http://" + l.Addr().String()

	// Park one request inside the oracle: an untrained agent answers
	// exactly, and the exact path reads the partition map, whose write
	// lock the test holds.
	n.mu.Lock()
	reqDone := make(chan int, 1)
	go func() {
		_, code := postCount(t, url, countAt(1, 1), "drain")
		reqDone <- code
	}()
	for n.sched.TenantInflight("drain") == 0 {
		time.Sleep(time.Millisecond)
	}

	// Shut down while the request is in flight, then let it finish.
	cancel()
	select {
	case code := <-reqDone:
		t.Errorf("request finished (HTTP %d) while the oracle was blocked", code)
		reqDone <- code
	case <-time.After(50 * time.Millisecond):
	}
	n.mu.Unlock()
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request during shutdown: HTTP %d, want 200", code)
	}
	if err := <-runDone; err != nil {
		t.Errorf("graceful shutdown returned %v, want nil", err)
	}
	// The scheduler must be closed once the server has drained.
	if _, err := n.Answer("drain", countAt(2, 2)); err != serve.ErrClosed {
		t.Errorf("after shutdown: err = %v, want ErrClosed", err)
	}
}

func TestLoneNodeMetricsEndpoint(t *testing.T) {
	n := loneNode(t, Config{Workers: 4}, 4_000, 200)
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()

	// Serve some traffic so the counters move.
	qs := workload.NewQueryStream(workload.NewRNG(88), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 20; i++ {
		if _, code := postCount(t, ts.URL, qs.Next(), "m"); code != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want Prometheus text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"sea_queries_total 20",
		"# TYPE sea_queries_total counter",
		"sea_ingest_rows_total",
		"sea_drift_invalidations_total",
		"sea_latency_seconds{quantile=\"0.99\"}",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}
