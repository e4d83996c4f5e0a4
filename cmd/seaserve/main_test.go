package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/workload"
)

func clusterOpts() options {
	return options{
		addr: ":0", rows: 1000, training: 10, agents: 1,
		workers: 2, queue: 16, seed: 1, drain: time.Second,
		nodeID:   "n0",
		peerList: "n0=http://a:1,n1=http://b:1,n2=http://c:1",
		replicas: 2,
	}
}

// loneOpts is clusterOpts without a peer list or replication factor:
// the flags of a node that boots as a one-member cluster.
func loneOpts() options {
	o := clusterOpts()
	o.nodeID, o.peerList, o.replicas = "", "", 0
	return o
}

func TestValidateAcceptsSaneConfigs(t *testing.T) {
	lone := loneOpts()
	lone.dataDir = "/tmp/wal"
	lone.writeQuorum = 1
	lone.antiEntropy = time.Second
	if err := lone.validate(); err != nil {
		t.Fatalf("lone-node config rejected: %v", err)
	}
	if lone.nodeID != "local" || lone.replicas != 1 || len(lone.peers) != 1 {
		t.Fatalf("lone node resolved to id %q, replicas %d, %d members; want local, 1, 1",
			lone.nodeID, lone.replicas, len(lone.peers))
	}
	cl := clusterOpts()
	cl.dataDir = "/tmp/wal"
	cl.writeQuorum = 2
	cl.warmFrom = "http://b:1"
	if err := cl.validate(); err != nil {
		t.Fatalf("cluster config rejected: %v", err)
	}
	cl = clusterOpts()
	cl.replicas = 0
	if err := cl.validate(); err != nil || cl.replicas != dist.DefaultReplicas {
		t.Fatalf("default replicas on 3 members: %d, %v; want %d", cl.replicas, err, dist.DefaultReplicas)
	}
}

func TestValidateFailsFast(t *testing.T) {
	cases := []struct {
		name string
		base func() options
		mut  func(*options)
		want string
	}{
		{"replicas exceed cluster", clusterOpts, func(o *options) { o.replicas = 5 }, "exceeds the cluster size"},
		{"node not in peers", clusterOpts, func(o *options) { o.nodeID = "n9" }, "not listed in -peers"},
		{"quorum above replicas", clusterOpts, func(o *options) { o.writeQuorum = 3 }, "-write-quorum"},
		{"bad peers entry", clusterOpts, func(o *options) { o.peerList = "n0" }, "bad -peers entry"},
		{"warm-from self", clusterOpts, func(o *options) { o.warmFrom = "http://a:1" }, "own URL"},
		{"zero rows", clusterOpts, func(o *options) { o.rows = 0 }, "-rows"},
		{"negative drift budget", clusterOpts, func(o *options) { o.driftBudget = -1 }, "-drift-budget"},
		{"peers without node-id", clusterOpts, func(o *options) { o.nodeID = "" }, "require -node-id"},
		{"warm-from without peers", clusterOpts, func(o *options) {
			o.peerList = "n0=http://a:1"
			o.warmFrom = "http://b:1"
			o.replicas = 1
		}, "at least one peer"},
		{"warm-from on lone node", loneOpts, func(o *options) { o.warmFrom = "http://b:1" }, "at least one peer"},
		{"advertise without join", loneOpts, func(o *options) { o.advertise = "http://a:1" }, "-advertise requires -join"},
		{"replicas exceed lone node", loneOpts, func(o *options) { o.replicas = 2 }, "-replicas 2 exceeds the cluster size 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.base()
			tc.mut(&o)
			err := o.validate()
			if err == nil {
				t.Fatalf("config accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoneNodeBoots builds a node the way main does from flags without
// -peers, serves it, and checks that every client route the node
// answers is up: queries, explanations from the pretrained models, and
// the stats and status snapshots.
func TestLoneNodeBoots(t *testing.T) {
	o := loneOpts()
	o.rows, o.training = 8_000, 200
	o.runtimeSample = 0
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	node, err := newNode(o, obs.New(io.Discard, obs.ParseLevel("off")))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		node.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve.RunListener(ctx, l, node.Handler(), time.Second, node.Close) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	url := "http://" + l.Addr().String()

	call := func(method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}

	// Pretraining ran on the agents directly: the agent counters show
	// it, the serving counters still start at zero.
	code, body := call(http.MethodGet, "/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: HTTP %d: %s", code, body)
	}
	var stats dist.ClusterStatus
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Agent.Queries < int64(o.training) || stats.Serving.Queries != 0 {
		t.Fatalf("after pretraining: agent answered %d (want >= %d), serving counted %d (want 0)",
			stats.Agent.Queries, o.training, stats.Serving.Queries)
	}
	if len(stats.Members) != 1 || len(stats.PartitionsHeld) != stats.PartitionsTotal {
		t.Fatalf("lone node: %d members, holds %d of %d partitions",
			len(stats.Members), len(stats.PartitionsHeld), stats.PartitionsTotal)
	}

	// Query the interest region until the pretrained models predict,
	// then explain that query from the same model.
	qs := workload.NewQueryStream(workload.NewRNG(7), workload.DefaultRegions(2), query.Count)
	explained := false
	for i := 0; i < 50 && !explained; i++ {
		q := qs.Next()
		req, err := json.Marshal(serve.QueryRequest{Agg: "count", Los: q.Select.Los, His: q.Select.His})
		if err != nil {
			t.Fatal(err)
		}
		code, body := call(http.MethodPost, "/v1/query", string(req))
		if code != http.StatusOK {
			t.Fatalf("/v1/query: HTTP %d: %s", code, body)
		}
		var ans serve.QueryResponse
		if err := json.Unmarshal(body, &ans); err != nil {
			t.Fatal(err)
		}
		if !ans.Predicted {
			continue
		}
		if code, body := call(http.MethodPost, "/v1/explain", string(req)); code != http.StatusOK {
			t.Fatalf("/v1/explain of a predicted query: HTTP %d: %s", code, body)
		}
		explained = true
	}
	if !explained {
		t.Fatal("no query near the interest region was predicted after pretraining")
	}
	for _, path := range []string{"/v1/stats", "/v1/status"} {
		if code, body := call(http.MethodGet, path, ""); code != http.StatusOK {
			t.Errorf("GET %s: HTTP %d: %s", path, code, body)
		}
	}

	// Without a URL of its own the node cannot be grown by a join.
	if code, _ := call(http.MethodPost, "/v1/join", `{"id":"n1","url":"http://127.0.0.1:1"}`); code == http.StatusOK {
		t.Errorf("join through a URL-less lone node succeeded")
	}
}
