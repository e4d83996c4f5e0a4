package dist

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/storage"
)

// countBox returns a COUNT query covering the whole [0,100]^2 data
// space, so its exact answer is the cluster's total row count.
func countBox() query.Query {
	return query.Query{
		Select:    query.Selection{Los: []float64{-1e6, -1e6}, His: []float64{1e6, 1e6}},
		Aggregate: query.Count,
	}
}

// TestScatterGatherOnePartialRPCPerHolder is the acceptance check of
// the message-minimal fan-out: on 3 nodes with 2 replicas each remote
// member holds every partition the entry node lacks, so the cover asks
// ONE holder per query, whichever node the query enters through — and
// the cost accounting must reflect that shape. With 12 partitions every
// node lacks some, so every entry node needs its one RPC.
func TestScatterGatherOnePartialRPCPerHolder(t *testing.T) {
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30
	rows := testRows(4_000, 11)
	lc, err := StartLocal(3, Config{Agent: agentCfg, Replicas: 2, Partitions: 12}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	qs := aggStreams(7)
	for _, entryID := range lc.IDs() {
		entry := lc.Node(entryID)
		var others []string
		for _, id := range lc.IDs() {
			if id != entryID {
				others = append(others, id)
			}
		}
		for round := 0; round < 10; round++ {
			q := qs[round%len(qs)].Next()
			sentBefore := entry.PartialRPCsSent()
			servedBefore := make(map[string]int64, len(others))
			for _, id := range others {
				servedBefore[id] = lc.Node(id).PartialRPCsServed()
			}
			res, cost, err := entry.ScatterGather(q)
			if err != nil {
				t.Fatalf("%s round %d: %v", entryID, round, err)
			}
			want := query.EvalRows(q, rows).Value
			if !closeEnough(q.Aggregate, res.Value, want) {
				t.Fatalf("%s round %d: got %v want %v", entryID, round, res.Value, want)
			}
			sent := entry.PartialRPCsSent() - sentBefore
			var served int64
			for _, id := range others {
				served += lc.Node(id).PartialRPCsServed() - servedBefore[id]
			}
			if sent != 1 {
				t.Fatalf("%s round %d: %d partial RPCs for one query, want exactly 1", entryID, round, sent)
			}
			if served != sent {
				t.Fatalf("%s round %d: sent %d batched RPCs but holders served %d", entryID, round, sent, served)
			}
			if cost.Messages != 2*sent {
				t.Fatalf("%s round %d: cost.Messages=%d, want 2 per RPC round trip (%d)",
					entryID, round, cost.Messages, 2*sent)
			}
			if cost.BytesLAN <= 0 {
				t.Fatalf("%s round %d: remote RPCs moved no accounted bytes", entryID, round)
			}
			if cost.RowsRead != int64(len(rows)) {
				t.Fatalf("%s round %d: read %d rows, want %d", entryID, round, cost.RowsRead, len(rows))
			}
		}
	}
}

// remoteCandidates returns, indexed by partition, the owners other than
// entry of every partition entry does not hold (nil for held ones),
// plus the missing partitions — the cover's input, rebuilt from the
// exported placement.
func remoteCandidates(entry *Node) (cand [][]string, missing []int) {
	cand = make([][]string, entry.Partitions())
	for p := range cand {
		owners := entry.PartitionOwners(p)
		if containsStr(owners, entry.ID()) {
			continue
		}
		cand[p] = owners
		missing = append(missing, p)
	}
	return cand, missing
}

// TestScatterGatherCoverFiveNodes: on 5 nodes with 2 replicas no single
// holder has every missing partition. Answers must stay exact, and no
// query may need more RPCs than the greedy cover of the placement
// (taken at its worst tie-break) picks holders.
func TestScatterGatherCoverFiveNodes(t *testing.T) {
	lc, rows := exactCluster(t, 5)
	qs := aggStreams(11)
	for _, entryID := range lc.IDs() {
		entry := lc.Node(entryID)
		var holders []string
		for _, id := range lc.IDs() {
			if id != entryID {
				holders = append(holders, id)
			}
		}
		bound := 0
		for rot := range holders {
			cand, missing := remoteCandidates(entry)
			if k := greedyCover(missing, cand, holders, rot); k > bound {
				bound = k
			}
		}
		if bound == 0 {
			t.Fatalf("%s: empty cover on a 5-node cluster", entryID)
		}
		for round := 0; round < 6; round++ {
			q := qs[round%len(qs)].Next()
			before := entry.PartialRPCsSent()
			res, _, err := entry.ScatterGather(q)
			if err != nil {
				t.Fatalf("%s round %d: %v", entryID, round, err)
			}
			if want := query.EvalRows(q, rows).Value; !closeEnough(q.Aggregate, res.Value, want) {
				t.Fatalf("%s round %d: got %v want %v", entryID, round, res.Value, want)
			}
			if sent := entry.PartialRPCsSent() - before; sent > int64(bound) {
				t.Fatalf("%s round %d: %d partial RPCs, greedy cover is %d holders", entryID, round, sent, bound)
			}
		}
	}
}

// TestScatterGatherCoverBalancesReplicas: when both remote members hold
// every missing partition, the cover's tie-break rotates, so each
// serves a fair share of one entry node's queries.
func TestScatterGatherCoverBalancesReplicas(t *testing.T) {
	lc, _ := exactCluster(t, 3)
	ids := lc.IDs()
	entry := lc.Node(ids[0])
	before := make(map[string]int64)
	for _, id := range ids[1:] {
		before[id] = lc.Node(id).PartialRPCsServed()
	}
	const queries = 200
	for i := 0; i < queries; i++ {
		if _, _, err := entry.ScatterGather(countBox()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[1:] {
		share := float64(lc.Node(id).PartialRPCsServed()-before[id]) / queries
		if share < 0.35 || share > 0.65 {
			t.Errorf("holder %s served %.0f%% of the partial RPCs, want 35-65%%", id, 100*share)
		}
	}
}

// TestScatterGatherCoverSkipsQuarantined: with one peer killed and
// quarantined by the health tracker, the cover plans around it — every
// first round goes to the survivor alone, so no retry is ever spent.
func TestScatterGatherCoverSkipsQuarantined(t *testing.T) {
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30
	rows := testRows(4_000, 11)
	lc, err := StartLocal(3, Config{Agent: agentCfg, Replicas: 2, Cooldown: time.Minute}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	ids := lc.IDs()
	entry, dead, survivor := lc.Node(ids[0]), ids[1], lc.Node(ids[2])
	deadURL := lc.URL(dead)
	lc.Kill(dead)
	entry.health.markDown(deadURL)

	retries := entry.rec().Snapshot().RPCRetries
	for i := 0; i < 10; i++ {
		sent, served := entry.PartialRPCsSent(), survivor.PartialRPCsServed()
		res, _, err := entry.ScatterGather(countBox())
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != float64(len(rows)) {
			t.Fatalf("query %d: count %v, want %d", i, res.Value, len(rows))
		}
		if d := entry.PartialRPCsSent() - sent; d != 1 {
			t.Fatalf("query %d: %d partial RPCs, want 1", i, d)
		}
		if d := survivor.PartialRPCsServed() - served; d != 1 {
			t.Fatalf("query %d: survivor served %d partial RPCs, want 1", i, d)
		}
	}
	if got := entry.rec().Snapshot().RPCRetries; got != retries {
		t.Fatalf("RPCRetries moved %d -> %d with the dead peer quarantined", retries, got)
	}
}

// TestScatterGatherRejectsUnrequestedPartials: a holder whose response
// carries a partition it was not asked for, or one partition twice,
// must not corrupt the merge — only the first entry for each requested
// partition counts.
func TestScatterGatherRejectsUnrequestedPartials(t *testing.T) {
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30
	rows := testRows(2_000, 11)

	var entryH, holderH http.Handler
	entrySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entryH.ServeHTTP(w, r)
	}))
	t.Cleanup(entrySrv.Close)
	localPart := -1
	holderSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/partials" {
			holderH.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		holderH.ServeHTTP(rec, r)
		var pr PartialsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil || len(pr.Partials) == 0 {
			t.Errorf("holder response: %v (%d entries)", err, len(pr.Partials))
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		bogus := func(part int) PartPartial {
			src := pr.Partials[0].Partial
			out := make([]float64, len(src))
			for i, v := range src {
				out[i] = 1000*v + 7
			}
			return PartPartial{Part: part, Partial: out, Rows: 999}
		}
		// One duplicate of a requested partition, one partition the
		// entry node holds itself.
		pr.Partials = append(pr.Partials, bogus(pr.Partials[0].Part), bogus(localPart))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(pr)
	}))
	t.Cleanup(holderSrv.Close)

	peers := map[string]string{"n0": entrySrv.URL, "n1": holderSrv.URL}
	mk := func(id string) *Node {
		n, err := NewNode(Config{ID: id, Peers: peers, Agent: agentCfg, Replicas: 1, Partitions: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Load(rows); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	entry, holder := mk("n0"), mk("n1")
	entryH, holderH = entry.Handler(), holder.Handler()
	remote := 0
	for p := 0; p < entry.Partitions(); p++ {
		if entry.PartitionOwners(p)[0] == "n0" {
			localPart = p
		} else {
			remote++
		}
	}
	if localPart < 0 || remote == 0 {
		t.Fatalf("placement gives the entry node no local (%d) or no remote (%d) partition", localPart, remote)
	}

	if res, _, err := entry.ScatterGather(countBox()); err != nil || res.Value != float64(len(rows)) {
		t.Fatalf("count = %v (err %v), want %d", res.Value, err, len(rows))
	}
	for _, qs := range aggStreams(3) {
		q := qs.Next()
		res, _, err := entry.ScatterGather(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := query.EvalRows(q, rows).Value; !closeEnough(q.Aggregate, res.Value, want) {
			t.Fatalf("%v: got %v want %v", q.Aggregate, res.Value, want)
		}
	}
}

// TestScatterGatherFailoverRebatches kills one member and proves the
// batched fan-out re-batches the dead holder's partitions onto the
// surviving replicas: the answer stays exact and error-free.
func TestScatterGatherFailoverRebatches(t *testing.T) {
	lc, rows := exactCluster(t, 3)
	entry := lc.Node(lc.IDs()[0])
	lc.Kill(lc.IDs()[1])

	q := countBox()
	var got query.Result
	var err error
	// The first attempt may spend its error budget discovering the dead
	// peer; the health tracker then quarantines it.
	for attempt := 0; attempt < 3; attempt++ {
		got, _, err = entry.ScatterGather(q)
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("scatter never recovered after kill: %v", err)
	}
	if got.Value != float64(len(rows)) {
		t.Fatalf("failover answer %v, want %d", got.Value, len(rows))
	}
}

// TestIngestInvalidatesCachedAnswers is the staleness acceptance test:
// an ingest-driven DataVersion bump must invalidate cached answers — a
// query repeated after an acked batch sees the new rows, never the
// cached pre-ingest answer. The tail runs queries concurrently with
// ingest so `go test -race` exercises the cache/ingest interleaving.
func TestIngestInvalidatesCachedAnswers(t *testing.T) {
	lc, rows := exactCluster(t, 3)
	client := lc.Client()
	q := countBox()

	a1, err := client.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Value != float64(len(rows)) {
		t.Fatalf("baseline count %v, want %d", a1.Value, len(rows))
	}
	// Repeat: served from the versioned cache (same key, same owner).
	a2, err := client.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Value != a1.Value {
		t.Fatalf("repeat answer %v != %v", a2.Value, a1.Value)
	}
	var hits int64
	for _, id := range lc.IDs() {
		hits += lc.Node(id).Pool().Recorder().Snapshot().CacheHits
	}
	if hits == 0 {
		t.Fatal("repeated identical query never hit the answer cache")
	}

	// Ingest rows inside the selection; the ack means a quorum applied
	// them and bumped their data versions.
	batch := make([]storage.Row, 50)
	for i := range batch {
		batch[i] = storage.Row{Key: uint64(1_000_000 + i), Vec: []float64{50, 50, 1}}
	}
	resp, err := client.Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.AckedRows != len(batch) {
		t.Fatalf("acked %d of %d rows on a healthy cluster", resp.AckedRows, len(batch))
	}

	a3, err := client.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(len(rows) + len(batch)); a3.Value != want {
		t.Fatalf("post-ingest answer %v, want %v (stale cached answer served?)", a3.Value, want)
	}

	// Concurrent readers vs writers: no errors, and once quiesced the
	// cache serves the final truth.
	var wg sync.WaitGroup
	const writers, batches, perBatch = 2, 10, 5
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := make([]storage.Row, perBatch)
				for i := range rows {
					rows[i] = storage.Row{
						Key: uint64(2_000_000 + w*batches*perBatch + b*perBatch + i),
						Vec: []float64{25, 75, 1},
					}
				}
				if _, err := client.Ingest(rows); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := client.Answer(q); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	final, err := client.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(len(rows) + len(batch) + writers*batches*perBatch); final.Value != want {
		t.Fatalf("final count %v, want %v", final.Value, want)
	}
}
