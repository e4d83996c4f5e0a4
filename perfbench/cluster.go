package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
)

// Cluster workloads start a 3-node loopback dist cluster in this
// process (dist.StartLocal): real node-to-node HTTP/JSON between
// in-process nodes.

const (
	clusterNodes = 3
	replicas     = 2
)

type clusterSys struct {
	lc    *dist.LocalCluster
	nodes []*dist.Node
}

func startCluster(rows []storage.Row, cfg dist.Config) (*clusterSys, error) {
	cfg.Replicas = replicas
	cfg.Partitions = partitions
	cfg.TenantInflight = -1 // closed-loop callers; admission control never sheds
	lc, err := dist.StartLocal(clusterNodes, cfg, rows)
	if err != nil {
		return nil, err
	}
	cs := &clusterSys{lc: lc}
	for _, id := range lc.IDs() {
		cs.nodes = append(cs.nodes, lc.Node(id))
	}
	return cs, nil
}

func (c *clusterSys) close() { c.lc.Close() }

// noteServing adds the nodes' lifetime serving counters to rep.
func (c *clusterSys) noteServing(rep *report) {
	n := c.counters()
	rep.note("nodes' pools, lifetime: queries=%d cache_hits=%d predicted=%d fallbacks=%d hedges=%d", n.queries, n.cacheHits, n.predicted, n.fallbacks, n.hedges)
}

// ownerURL is the base URL of the first ring owner of q's key: where
// dist.Client sends q first.
func (c *clusterSys) ownerURL(q query.Query) string {
	return c.lc.URL(c.nodes[0].Ring().Owners(serve.Key(q), replicas)[0])
}

// entryURL is the member dist.Client.Ingest tries first.
func (c *clusterSys) entryURL() string {
	return c.lc.URL(c.nodes[0].Ring().Nodes()[0])
}

// counters sums the nodes' serving and resilience counters.
type counters struct {
	queries, cacheHits, predicted, fallbacks, partialRPCs, retries, hedges, degraded int64
}

func (c *clusterSys) counters() counters {
	var out counters
	for _, n := range c.nodes {
		snap := n.Pool().Recorder().Snapshot()
		out.queries += snap.Queries
		out.cacheHits += snap.CacheHits
		out.predicted += snap.Predicted
		out.fallbacks += snap.Fallbacks
		out.partialRPCs += n.PartialRPCsSent()
		res := n.NodeStatus().Resilience
		out.retries += res.RPCRetries
		out.hedges += res.Hedges
		out.degraded += res.DegradedAnswers
	}
	return out
}

// referenceTable loads rows into a storage.Table with the cluster's
// partition count. genBaseRows keys rows so the table places them in
// the cluster's partitions, in the cluster's order.
func referenceTable(rows []storage.Row) (*storage.Table, error) {
	tbl, err := storage.NewTable(cluster.New(clusterNodes, cluster.DefaultConfig()), "ref", []string{"x", "y", "z"}, partitions)
	if err != nil {
		return nil, err
	}
	return tbl, tbl.Load(rows)
}

// queryWire is q's serving wire form, as dist.Client sends it.
func queryWire(q query.Query) serve.QueryRequest {
	r := serve.QueryRequest{Agg: q.Aggregate.String(), Col: q.Col, Col2: q.Col2}
	if q.Select.IsRadius() {
		r.Center, r.Radius = q.Select.Center, q.Select.Radius
	} else {
		r.Los, r.His = q.Select.Los, q.Select.His
	}
	return r
}

func rowsWire(rows []storage.Row) []dist.WireRow {
	out := make([]dist.WireRow, len(rows))
	for i, r := range rows {
		out[i] = dist.WireRow{Key: r.Key, Vec: r.Vec}
	}
	return out
}

// tracedHTTP is the traced run's client: it sends the same requests as
// dist.Client, asks the node for its span tree, and records spans for
// its own encode, round trip and decode around that tree.
type tracedHTTP struct {
	hc *http.Client
}

func newTracedHTTP() *tracedHTTP {
	return &tracedHTTP{hc: &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16},
	}}
}

func (t *tracedHTTP) close() { t.hc.CloseIdleConnections() }

// post sends body and returns the response body; the caller has
// recorded the encode span.
func (t *tracedHTTP) post(url string, body []byte) ([]byte, error) {
	resp, err := t.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// query answers q through base/v1/query?trace=1 under root span
// "request". With a nil recorder it sends the same request untraced
// and records nothing: the reference the tracing overhead is measured
// against, on the same client.
func (t *tracedHTTP) query(rec *recorder, req int64, base string, q query.Query) (dist.QueryResponse, error) {
	var out dist.QueryResponse
	t0 := time.Now()
	body, err := json.Marshal(queryWire(q))
	if err != nil {
		return out, err
	}
	if rec == nil {
		data, err := t.post(base+"/v1/query", body)
		if err == nil {
			err = json.Unmarshal(data, &out)
		}
		return out, err
	}
	t1 := time.Now()
	data, err := t.post(base+"/v1/query?trace=1", body)
	if err != nil {
		return out, err
	}
	t2 := time.Now()
	if err := json.Unmarshal(data, &out); err != nil {
		return out, err
	}
	t3 := time.Now()
	root := rec.add("request", req, -1, t0, t3)
	rec.add("encode", req, root, t0, t1)
	rec.graft(out.Trace, req, rec.add("http", req, root, t1, t2))
	rec.add("decode", req, root, t2, t3)
	return out, nil
}

// ingest posts one traced batch to base/v1/ingest under root span
// "write".
func (t *tracedHTTP) ingest(rec *recorder, req int64, base string, rows []storage.Row, idem string) (dist.IngestResponse, error) {
	var out dist.IngestResponse
	t0 := time.Now()
	body, err := json.Marshal(dist.IngestRequest{Rows: rowsWire(rows), Trace: true, IdemKey: idem})
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	data, err := t.post(base+"/v1/ingest", body)
	if err != nil {
		return out, err
	}
	t2 := time.Now()
	if err := json.Unmarshal(data, &out); err != nil {
		return out, err
	}
	t3 := time.Now()
	root := rec.add("write", req, -1, t0, t3)
	rec.add("encode", req, root, t0, t1)
	hs := rec.add("http", req, root, t1, t2)
	for i := range out.Spans {
		rec.graft(&out.Spans[i], req, hs)
	}
	rec.add("decode", req, root, t2, t3)
	return out, nil
}

// probeCluster times the dist layer's calls on probe queries, each set
// fresh so no answer comes from a cache: Node.ScatterGather,
// Node.Answer (with the paper-unit costs it reports), and
// dist.Client.Answer, whose excess over Node.Answer is the client hop
// (JSON, HTTP and any forward). It also primes one query in a node's
// pool and times Pool.Answer on it (a cache hit).
func probeCluster(m metricSet, cs *clusterSys, scatterQs, nodeQs, clientQs []query.Query) error {
	n := cs.nodes[0]
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.set("dist.scatter_us", timeEach(len(scatterQs), func(i int) {
		_, _, err := n.ScatterGather(scatterQs[i])
		keep(err)
	}), "us")
	var msgs, lan int64
	nodeUS := timeEach(len(nodeQs), func(i int) {
		a, err := n.Answer("probe", nodeQs[i])
		keep(err)
		msgs += a.Cost.Messages
		lan += a.Cost.BytesLAN
	})
	m.set("dist.node_answer_us", nodeUS, "us")
	m.set("dist.messages_per_query", float64(msgs)/float64(max(len(nodeQs), 1)), "count")
	m.set("dist.bytes_lan_per_query", float64(lan)/float64(max(len(nodeQs), 1)), "B")
	cli := cs.lc.Client()
	m.set("dist.client_hop_us", timeEach(len(clientQs), func(i int) {
		_, err := cli.Answer(clientQs[i])
		keep(err)
	})-nodeUS, "us")
	if len(clientQs) > 0 {
		q := clientQs[0]
		_, err := n.Pool().Answer(q)
		keep(err)
		m.set("serve.cache_lookup_us", timeEach(20*len(clientQs), func(int) { _, _ = n.Pool().Answer(q) }), "us")
	}
	return firstErr
}

// probeWire times the JSON encoding and decoding of the bodies one
// exact query puts on the wire: the client's serve.QueryRequest, a
// dist.PartialsRequest and dist.PartialsResponse per remote holder of
// the partitions the coordinator lacks (with the real partial states),
// and the dist.QueryResponse carrying the node's real answer.
func probeWire(m metricSet, cs *clusterSys, ref *storage.Table, qs []query.Query) error {
	coord := cs.nodes[0]
	groups := map[string][]int{}
	for p := 0; p < partitions; p++ {
		owners := coord.PartitionOwners(p)
		held := false
		for _, o := range owners {
			held = held || o == coord.ID()
		}
		if !held {
			groups[owners[0]] = append(groups[owners[0]], p)
		}
	}
	type bodies struct {
		enc []any
		dec []func() any
	}
	all := make([]bodies, len(qs))
	for i, q := range qs {
		qr := queryWire(q)
		b := bodies{enc: []any{qr}, dec: []func() any{func() any { return new(serve.QueryRequest) }}}
		for holder, parts := range groups {
			resp := dist.PartialsResponse{Node: holder, Epoch: 1}
			for _, p := range parts {
				st, n, err := query.PartialForPartition(q, ref, p)
				if err != nil {
					return err
				}
				resp.Partials = append(resp.Partials, dist.PartPartial{Part: p, Partial: st, Rows: n})
			}
			b.enc = append(b.enc, dist.PartialsRequest{Parts: parts, Query: qr, Epoch: 1}, resp)
			b.dec = append(b.dec, func() any { return new(dist.PartialsRequest) }, func() any { return new(dist.PartialsResponse) })
		}
		a, err := coord.Answer("probe", q)
		if err != nil {
			return err
		}
		qresp := dist.QueryResponse{Node: coord.ID(), Epoch: 1}
		qresp.Value, qresp.Predicted, qresp.EstError, qresp.Quantum = a.Value, a.Predicted, a.EstError, a.Quantum
		qresp.Cost = serve.ToCostJSON(a.Cost)
		b.enc = append(b.enc, qresp)
		b.dec = append(b.dec, func() any { return new(dist.QueryResponse) })
		all[i] = b
	}
	encoded := make([][][]byte, len(qs))
	var total int64
	var encErr error
	m.set("dist.wire_encode_us", timeEach(len(qs), func(i int) {
		for _, v := range all[i].enc {
			data, err := json.Marshal(v)
			if err != nil {
				encErr = err
			}
			encoded[i] = append(encoded[i], data)
			total += int64(len(data))
		}
	}), "us")
	if encErr != nil {
		return encErr
	}
	m.set("dist.wire_bytes_per_query", float64(total)/float64(max(len(qs), 1)), "B")
	var decErr error
	m.set("dist.wire_decode_us", timeEach(len(qs), func(i int) {
		for j, data := range encoded[i] {
			if err := json.Unmarshal(data, all[i].dec[j]()); err != nil {
				decErr = err
			}
		}
	}), "us")
	return decErr
}
