package experiments

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E22Row is one row of the elastic-membership scenario: what does the
// elastic plane (membership epochs, rebalance bookkeeping, armed
// anti-entropy) cost on the query path, and does a cluster that grows,
// shrinks and suffers silent replica corruption under sustained mixed
// load keep every acked row, leak zero client errors, and heal the
// corrupted replica back to a bit-identical copy.
type E22Row struct {
	Rows  int `json:"rows"`
	Nodes int `json:"nodes"`

	// Overhead: the same scatter stream served with the elastic plane
	// disarmed (AntiEntropy=0: ticks are a single atomic load) versus
	// armed at an aggressive cadence — the ≤2% CI gate.
	Overhead

	// Narrative: 3-node cluster grows to 5 and retires one founding
	// member, all under sustained queries + ingest.
	Queries      int     `json:"queries"`
	ClientErrors int     `json:"client_errors"`
	QueryP99MS   float64 `json:"query_p99_ms"`
	Joined       int     `json:"joined"`
	Left         int     `json:"left"`
	FinalEpoch   int64   `json:"final_epoch"`
	MovedParts   int64   `json:"moved_parts"`
	AckedRows    int     `json:"acked_rows"`
	// LossRows is max(0, expected-final): rows the cluster acked and
	// then lost across the joins, the leave and the repair. Must be 0.
	LossRows int `json:"loss_rows"`

	// Anti-entropy: one replica deliberately corrupted in memory (same
	// sequence, different bytes), healed by the background loop.
	Repairs  int64 `json:"repairs"`
	RepairMS int64 `json:"repair_ms"`
	// RepairFinding reports that /v1/debug/cluster surfaced the repair.
	RepairFinding bool `json:"repair_finding"`
}

// E22ElasticMembership runs the elastic-membership scenario end to end.
//
// Overhead: three 3-node clusters (resilience extras stripped the same
// way on all so the comparison isolates the elastic plane) serve the
// same repeat scatter stream through the paired harness
// (pairedOverhead) — the baseline and null clusters with AntiEntropy
// disarmed, the treated one with the background repair loop armed at
// an aggressive 35ms cadence.
//
// Narrative: a 3-node cluster (replicas=2, durable WALs, anti-entropy
// armed at 150ms) serves background whole-space COUNT queries and a
// sustained ingest stream that keeps a ledger of every acked row. Two
// members join live — each join stages moving partitions, catches them
// up through the WAL and cuts the cluster over to a new epoch — and
// one founding member gracefully leaves, all while the load runs. The
// run demands zero client-visible errors, an advanced membership
// epoch, live partitions on both joiners, and ZERO acked-row loss
// (final count = base rows + acked ledger). Then one partition's
// replica copy is deliberately corrupted in memory at an unchanged
// sequence — invisible to the replication protocol — and the
// background anti-entropy loop must detect the digest divergence,
// repair the replica wholesale from its primary, converge it to a
// bit-identical copy, and surface the repair in /v1/debug/cluster.
func E22ElasticMembership(nRows, n int) (E22Row, error) {
	row := E22Row{Rows: nRows, Nodes: 3}
	rows := workload.StandardRows(nRows/4, 7)
	hc := e21Client()

	// --- Overhead: anti-entropy disarmed vs armed, same cluster shape. ---
	ccfg := core.DefaultConfig(2)
	ccfg.TrainingQueries = 1 << 30 // exact path: every query scatters
	disarmed := dist.Config{
		Agent:       ccfg,
		Replicas:    2,
		AnswerCache: -1, // every repeat re-scatters: the RPC plane is the workload
		// Strip the adaptive extras on every cluster so the comparison
		// isolates the elastic plane, not retry/hedge jitter.
		RetryBudget:        -1,
		HedgeQuantile:      -1,
		BreakerFailureRate: -1,
	}
	armed := disarmed
	armed.AntiEntropy = 35 * time.Millisecond
	_, arms, stop, err := clusterArms(hc, row.Nodes, [3]dist.Config{disarmed, armed, disarmed}, rows)
	if err != nil {
		return row, err
	}
	row.Overhead, err = pairedOverhead(clusterClients, n, arms[0], arms[1], arms[2])
	stop()
	if err != nil {
		return row, fmt.Errorf("E22: overhead query failed: %v", err)
	}

	// --- Narrative: grow, shrink and heal under sustained load. ---
	return row, e22Narrative(&row, rows, hc)
}

// e22Narrative drives the churn story on its own durable cluster.
func e22Narrative(row *E22Row, rows []storage.Row, hc *http.Client) error {
	ccfg := core.DefaultConfig(2)
	ccfg.TrainingQueries = 1 << 30
	ccfg.DriftRowBudget = 500
	dir, err := os.MkdirTemp("", "e22-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lc, err := dist.StartLocal(row.Nodes, dist.Config{
		Agent:       ccfg,
		Replicas:    2,
		WriteQuorum: 2,
		Partitions:  8,
		DataDir:     dir,
		AntiEntropy: 150 * time.Millisecond,
	}, rows)
	if err != nil {
		return err
	}
	defer lc.Close()
	client := lc.Client()

	countAll := func() (float64, error) {
		a, err := client.Answer(query.Query{
			Select:    query.Selection{Los: []float64{-1e9, -1e9}, His: []float64{1e9, 1e9}},
			Aggregate: query.Count,
		})
		if err != nil {
			return 0, err
		}
		return a.Value, nil
	}
	before, err := countAll()
	if err != nil {
		return err
	}
	if before != float64(len(rows)) {
		return fmt.Errorf("E22: baseline count %.0f, want %d", before, len(rows))
	}

	// Background load: queriers on the members that stay alive for the
	// whole run, plus an ingester keeping a ledger of acked rows.
	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		acked     atomic.Int64
		queries   atomic.Int64
		clientErr atomic.Int64
		latMu     sync.Mutex
		lats      []e21Result
	)
	survivors := []string{lc.URL("n1"), lc.URL("n2")}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				r := e21Post(hc, survivors[(w+i)%len(survivors)], serve.QueryRequest{
					Agg: "count",
					Los: []float64{-1e9 + float64(i), -1e9}, His: []float64{1e9, 1e9},
				})
				queries.Add(1)
				if r.err != nil {
					clientErr.Add(1)
				}
				latMu.Lock()
				lats = append(lats, r)
				latMu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		key := uint64(50_000_000)
		for !stop.Load() {
			const batch = 25
			r, err := client.Ingest(mkRows(batch, key))
			key += batch
			if err != nil {
				clientErr.Add(1)
				continue
			}
			for _, pr := range r.Parts {
				if pr.Acked {
					acked.Add(int64(pr.Rows))
				}
			}
		}
	}()

	// Grow to 5, then retire a founding member — all under load.
	if err := lc.Join("n3"); err != nil {
		return fmt.Errorf("E22: join n3: %w", err)
	}
	row.Joined++
	if err := lc.Join("n4"); err != nil {
		return fmt.Errorf("E22: join n4: %w", err)
	}
	row.Joined++
	if err := lc.Leave("n0"); err != nil {
		return fmt.Errorf("E22: leave n0: %w", err)
	}
	row.Left++
	time.Sleep(200 * time.Millisecond) // churned cluster serves a little longer
	stop.Store(true)
	wg.Wait()
	row.Queries = int(queries.Load())
	row.ClientErrors = int(clientErr.Load())
	latMu.Lock()
	row.QueryP99MS = e21P99(lats)
	latMu.Unlock()
	if row.ClientErrors != 0 {
		return fmt.Errorf("E22: churn leaked %d client-visible errors", row.ClientErrors)
	}

	// Post-churn invariants: epoch advanced once per membership change,
	// both joiners hold live partitions, and no acked row is missing.
	for _, id := range lc.IDs() {
		st := lc.Node(id).NodeStatus()
		if st.Ring.Epoch > row.FinalEpoch {
			row.FinalEpoch = st.Ring.Epoch
		}
		row.MovedParts += st.Rebalance.MovedParts
	}
	if row.FinalEpoch < 4 {
		return fmt.Errorf("E22: final epoch %d after 3 membership changes, want >= 4", row.FinalEpoch)
	}
	for _, id := range []string{"n3", "n4"} {
		if st := lc.Node(id).NodeStatus(); len(st.Partitions) == 0 {
			return fmt.Errorf("E22: joiner %s holds no partitions", id)
		}
	}
	row.AckedRows = int(acked.Load())
	expected := float64(len(rows)) + float64(row.AckedRows)
	final, err := countAll()
	if err != nil {
		return err
	}
	if final < expected {
		row.LossRows = int(expected - final)
		return fmt.Errorf("E22: %d acked rows lost across the churn (count %.0f, want >= %.0f)",
			row.LossRows, final, expected)
	}

	// --- Anti-entropy: silent corruption, background heal. ---
	any := lc.Node(lc.IDs()[0])
	part, replicaID := -1, ""
	for p := 0; p < any.Partitions(); p++ {
		owners := any.PartitionOwners(p)
		if len(owners) >= 2 && lc.Node(owners[0]) != nil && lc.Node(owners[1]) != nil {
			part, replicaID = p, owners[1]
			break
		}
	}
	if part < 0 {
		return fmt.Errorf("E22: no replicated partition to corrupt")
	}
	replica := lc.Node(replicaID)
	primary := lc.Node(any.PartitionOwners(part)[0])
	repairsBefore := replica.AntiEntropyRepairs()
	if !replica.CorruptPartition(part) {
		return fmt.Errorf("E22: could not corrupt partition %d on %s", part, replicaID)
	}
	healStart := time.Now()
	healed := false
	for time.Since(healStart) < 10*time.Second {
		if replica.AntiEntropyRepairs() > repairsBefore {
			healed = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	row.RepairMS = time.Since(healStart).Milliseconds()
	row.Repairs = replica.AntiEntropyRepairs()
	if !healed {
		return fmt.Errorf("E22: anti-entropy never repaired the corrupted replica")
	}
	probe := query.Query{
		Select:    query.Selection{Los: []float64{-1e9, -1e9}, His: []float64{1e9, 1e9}},
		Aggregate: query.Var, Col: 2,
	}
	pState, _ := primary.PartialState(part, probe)
	rState, _ := replica.PartialState(part, probe)
	if len(pState) != len(rState) {
		return fmt.Errorf("E22: repaired replica partial width differs")
	}
	for i := range pState {
		if pState[i] != rState[i] {
			return fmt.Errorf("E22: repaired replica not bit-identical at %d: %v != %v",
				i, rState[i], pState[i])
		}
	}
	// The repair must be visible to operators: /v1/debug/cluster carries
	// an antientropy_repair finding (warn — the loop did its job).
	rep := any.ClusterReport()
	for _, f := range rep.Findings {
		if f.Kind == "antientropy_repair" && f.Node == replicaID {
			row.RepairFinding = true
		}
	}
	if !row.RepairFinding {
		return fmt.Errorf("E22: no antientropy_repair finding in the cluster report: %+v", rep.Findings)
	}
	if !rep.Healthy {
		return fmt.Errorf("E22: healed cluster reports unhealthy: %+v", rep.Findings)
	}
	if math.IsNaN(row.QueryP99MS) {
		row.QueryP99MS = 0
	}
	return nil
}

// mkRows builds uniquely-keyed rows for the E22 ingest stream.
func mkRows(n int, firstKey uint64) []storage.Row {
	out := make([]storage.Row, n)
	for i := range out {
		k := firstKey + uint64(i)
		out[i] = storage.Row{Key: k, Vec: []float64{float64(k%100) + 0.5, 50, 1}}
	}
	return out
}
