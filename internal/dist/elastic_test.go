package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// countAll returns the cluster's exact whole-space row count via the
// client query path.
func countAll(t *testing.T, c *Client) float64 {
	t.Helper()
	a, err := c.Answer(wholeSpace(query.Count, 0))
	if err != nil {
		t.Fatal(err)
	}
	return a.Value
}

// TestElasticJoinMovesPartitions: a 3-node cluster gains a 4th member
// at runtime. The joiner must end up holding live partitions, every
// node must converge on the new epoch, replica holders must agree
// bit-for-bit, and no rows may be lost or duplicated by the moves.
func TestElasticJoinMovesPartitions(t *testing.T) {
	lc, rows := liveCluster(t, 3, t.TempDir())
	client := lc.Client()
	before := countAll(t, client)
	if before != float64(len(rows)) {
		t.Fatalf("baseline count %v, want %d", before, len(rows))
	}

	if err := lc.Join("n3"); err != nil {
		t.Fatal(err)
	}

	joiner := lc.Node("n3")
	st := joiner.NodeStatus()
	if len(st.Partitions) == 0 || st.RowsHeld == 0 {
		t.Fatalf("joiner holds nothing after join: %+v", st)
	}
	for _, id := range lc.IDs() {
		if e := lc.Node(id).NodeStatus().Ring.Epoch; e < 2 {
			t.Fatalf("node %s still at epoch %d after join", id, e)
		}
		if n := len(lc.Node(id).NodeStatus().Ring.Members); n != 4 {
			t.Fatalf("node %s sees %d members, want 4", id, n)
		}
	}
	// Row conservation through the moves, via both the old (stale,
	// self-refreshing) client and a fresh one.
	if after := countAll(t, client); after != before {
		t.Fatalf("count %v after join, want %v", after, before)
	}
	fresh := lc.Client()
	if after := countAll(t, fresh); after != before {
		t.Fatalf("fresh-client count %v after join, want %v", after, before)
	}
	if client.Epoch() < 2 {
		t.Fatalf("stale client never refreshed: epoch %d", client.Epoch())
	}
	assertHoldersAgree(t, lc)

	// Ingest keeps working against the new placement, including batches
	// that land on the joiner's partitions.
	if _, err := client.Ingest(ingestRows(200, 7_000_000)); err != nil {
		t.Fatal(err)
	}
	if after := countAll(t, client); after != before+200 {
		t.Fatalf("count %v after post-join ingest, want %v", after, before+200)
	}
	assertHoldersAgree(t, lc)

	rep := lc.Node("n0").ClusterReport()
	if !rep.Healthy {
		t.Fatalf("cluster unhealthy after join: %+v", rep.Findings)
	}
}

// TestElasticLeaveRetiresMember: a 4-node cluster gracefully retires
// one member. Its partitions must migrate to the survivors before the
// cutover, the cluster must converge on the new epoch, and no acked
// row may be lost.
func TestElasticLeaveRetiresMember(t *testing.T) {
	lc, rows := liveCluster(t, 4, t.TempDir())
	client := lc.Client()
	before := countAll(t, client)
	if before != float64(len(rows)) {
		t.Fatalf("baseline count %v, want %d", before, len(rows))
	}

	if err := lc.Leave("n1"); err != nil {
		t.Fatal(err)
	}
	if got := len(lc.IDs()); got != 3 {
		t.Fatalf("%d members after leave, want 3", got)
	}
	for _, id := range lc.IDs() {
		st := lc.Node(id).NodeStatus()
		if st.Ring.Epoch < 2 {
			t.Fatalf("node %s still at epoch %d after leave", id, st.Ring.Epoch)
		}
		for _, ps := range st.Partitions {
			for _, o := range ps.Owners {
				if o == "n1" {
					t.Fatalf("node %s partition %d still lists departed owner: %v", id, ps.Part, ps.Owners)
				}
			}
		}
	}
	if after := countAll(t, client); after != before {
		t.Fatalf("count %v after leave, want %v", after, before)
	}
	assertHoldersAgree(t, lc)
	if _, err := client.Ingest(ingestRows(150, 8_000_000)); err != nil {
		t.Fatal(err)
	}
	if after := countAll(t, client); after != before+150 {
		t.Fatalf("count %v after post-leave ingest, want %v", after, before+150)
	}
	rep := lc.Node("n0").ClusterReport()
	if !rep.Healthy {
		t.Fatalf("cluster unhealthy after leave: %+v", rep.Findings)
	}
}

// TestMembershipClientRefreshEvictsRemoved is the staleness regression
// test: after a member leaves, a client that has observed the new
// epoch must send the departed node ZERO further data-plane RPCs. The
// leaver keeps its HTTP server running (orchestrated via POST
// /v1/leave directly, not LocalCluster.Leave) precisely so it can
// count any RPC that would still reach it.
func TestMembershipClientRefreshEvictsRemoved(t *testing.T) {
	lc, _ := liveCluster(t, 4, t.TempDir())
	client := lc.Client()
	if _, err := client.Answer(wholeSpace(query.Sum, 2)); err != nil {
		t.Fatal(err)
	}
	if client.Epoch() != 1 {
		t.Fatalf("client epoch %d before churn, want 1", client.Epoch())
	}

	leaver := lc.Node("n3")
	body, _ := json.Marshal(LeaveRequest{ID: "n3"})
	resp, err := http.Post(lc.URL("n0")+"/v1/leave", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: HTTP %d", resp.StatusCode)
	}

	// The next successful client call returns a survivor's epoch-2
	// stamp, which must trigger a synchronous membership refresh.
	if _, err := client.Status(); err != nil {
		t.Fatal(err)
	}
	if client.Epoch() < 2 {
		t.Fatalf("client stuck at epoch %d after observing the new view", client.Epoch())
	}

	base := leaver.DataRPCs()
	for i := 0; i < 40; i++ {
		if _, err := client.Answer(wholeSpace(query.Sum, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Ingest(ingestRows(60, 9_000_000)); err != nil {
		t.Fatal(err)
	}
	if got := leaver.DataRPCs(); got != base {
		t.Fatalf("departed node received %d data RPCs from a refreshed client", got-base)
	}
}

// TestAntiEntropyRepairsCorruptReplica: silently corrupt a replica's
// in-memory copy (same sequence, different bytes — invisible to the
// replication protocol), then drive the armed anti-entropy tick and
// require it to detect the divergence and heal the replica back to a
// bit-identical copy of the primary.
func TestAntiEntropyRepairsCorruptReplica(t *testing.T) {
	rows := testRows(2_000, 11)
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(3, Config{Agent: cfg, Replicas: 2, AntiEntropy: -1}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)

	// Find a partition with a distinct primary and replica holder.
	any := lc.Node(lc.IDs()[0])
	part, primaryID, replicaID := -1, "", ""
	for p := 0; p < any.Partitions(); p++ {
		owners := any.PartitionOwners(p)
		if len(owners) >= 2 {
			part, primaryID, replicaID = p, owners[0], owners[1]
			break
		}
	}
	if part < 0 {
		t.Fatal("no replicated partition found")
	}
	primary, replica := lc.Node(primaryID), lc.Node(replicaID)

	if !replica.CorruptPartition(part) {
		t.Fatalf("could not corrupt partition %d on %s", part, replicaID)
	}
	probe := wholeSpace(query.Var, 2)
	pState, _ := primary.PartialState(part, probe)
	rState, _ := replica.PartialState(part, probe)
	if equalFloats(pState, rState) {
		t.Fatal("corruption did not diverge the replica")
	}

	if repaired := replica.AntiEntropyTick(); repaired != 1 {
		t.Fatalf("tick repaired %d partitions, want 1", repaired)
	}
	if got := replica.AntiEntropyRepairs(); got != 1 {
		t.Fatalf("repairs counter %d, want 1", got)
	}
	pState, _ = primary.PartialState(part, probe)
	rState, _ = replica.PartialState(part, probe)
	if !equalFloats(pState, rState) {
		t.Fatalf("replica not bit-identical after repair: %v != %v", rState, pState)
	}
	c := replica.AntiEntropyCountersSnapshot()
	if c.Ticks == 0 || c.Checked == 0 || c.Divergent != 1 {
		t.Fatalf("counters not advanced: %+v", c)
	}
	// A second tick finds nothing to do.
	if repaired := replica.AntiEntropyTick(); repaired != 0 {
		t.Fatalf("second tick repaired %d partitions, want 0", repaired)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAntiEntropyDisarmedTick: with AntiEntropy unset the tick must be
// an inert no-op (the hot-path guarantee the CI bench pins as
// zero-allocation).
func TestAntiEntropyDisarmedTick(t *testing.T) {
	lc, _ := exactCluster(t, 3)
	n := lc.Node(lc.IDs()[0])
	if got := n.AntiEntropyTick(); got != 0 {
		t.Fatalf("disarmed tick returned %d", got)
	}
	c := n.AntiEntropyCountersSnapshot()
	if c.Ticks != 0 || c.Checked != 0 {
		t.Fatalf("disarmed tick advanced counters: %+v", c)
	}
}

// TestElasticCloseDrainUnderIngest is the graceful-leave drain hammer
// (run under -race in CI): members join and leave while ingest batches
// and queries are in flight. Clients must see zero errors — the
// leaving member finishes the replication acks it has accepted before
// shutting down, and failover masks the rest — and every acked row
// must be countable after the churn settles.
func TestElasticCloseDrainUnderIngest(t *testing.T) {
	lc, rows := liveCluster(t, 3, t.TempDir())
	client := lc.Client()

	var (
		wg      sync.WaitGroup
		acked   atomic.Int64
		stop    atomic.Bool
		failed  atomic.Bool
		firstMu sync.Mutex
		firstEr error
	)
	fail := func(err error) {
		firstMu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		firstMu.Unlock()
		failed.Store(true)
	}

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := uint64(20_000_000 + w*1_000_000)
			for b := 0; b < 25 && !stop.Load(); b++ {
				const batch = 20
				r, err := client.Ingest(ingestRows(batch, key))
				key += batch
				if err != nil {
					fail(fmt.Errorf("ingest: %w", err))
					return
				}
				n := 0
				for _, pr := range r.Parts {
					if !pr.Acked {
						fail(fmt.Errorf("unacked partition %d mid-churn", pr.Part))
						return
					}
					n += pr.Rows
				}
				acked.Add(int64(n))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60 && !stop.Load(); i++ {
			if _, err := client.Answer(wholeSpace(query.Sum, 2)); err != nil {
				fail(fmt.Errorf("query: %w", err))
				return
			}
		}
	}()

	if err := lc.Join("n3"); err != nil {
		fail(err)
	}
	if err := lc.Leave("n0"); err != nil {
		fail(err)
	}
	stop.Store(false) // writers run to completion; churn happened mid-flight
	wg.Wait()
	if failed.Load() {
		t.Fatal(firstEr)
	}

	want := float64(len(rows)) + float64(acked.Load())
	if got := countAll(t, client); got != want {
		t.Fatalf("count %v after churn, want %v (%d acked rows)", got, want, acked.Load())
	}
	assertHoldersAgree(t, lc)
}

// assertPlacementMatchesRing checks every live node's precomputed
// placement table against its own ring, partition by partition.
func assertPlacementMatchesRing(t *testing.T, lc *LocalCluster, stage string, minEpoch int64) {
	t.Helper()
	for _, id := range lc.IDs() {
		n := lc.Node(id)
		if n == nil {
			continue
		}
		ms := n.members()
		if ms.view.Epoch < minEpoch {
			t.Fatalf("%s: node %s at epoch %d, want >= %d", stage, id, ms.view.Epoch, minEpoch)
		}
		for p := 0; p < n.Partitions(); p++ {
			want := ms.ring.Owners(partKey(p), n.cfg.Replicas)
			if got := ms.partOwners(p); !equalStrings(got, want) {
				t.Fatalf("%s: node %s partition %d placement %v, ring says %v", stage, id, p, got, want)
			}
			if got := n.PartitionOwners(p); !equalStrings(got, want) {
				t.Fatalf("%s: node %s PartitionOwners(%d) = %v, ring says %v", stage, id, p, got, want)
			}
		}
	}
}

// TestPlacementTableFollowsViewSwaps: the per-view placement table is
// rebuilt on every view change, so no node keeps routing by a stale
// table after a join or a leave.
func TestPlacementTableFollowsViewSwaps(t *testing.T) {
	lc, _ := liveCluster(t, 3, t.TempDir())
	assertPlacementMatchesRing(t, lc, "boot", 1)
	if err := lc.Join("n3"); err != nil {
		t.Fatal(err)
	}
	assertPlacementMatchesRing(t, lc, "join", 2)
	if err := lc.Leave("n0"); err != nil {
		t.Fatal(err)
	}
	assertPlacementMatchesRing(t, lc, "leave", 3)
}

// TestPartitionOwnersReturnsCopy: callers get their own slice, so
// writing through it or appending to it cannot corrupt the shared
// placement table.
func TestPartitionOwnersReturnsCopy(t *testing.T) {
	lc, _ := exactCluster(t, 3)
	n := lc.Node("n0")
	for p := 0; p < n.Partitions(); p++ {
		want := n.PartitionOwners(p)
		got := n.PartitionOwners(p)
		got[0] = "bogus"
		_ = append(got[:1], "bogus")
		if again := n.PartitionOwners(p); !equalStrings(again, want) {
			t.Fatalf("partition %d owners %v after mutating a returned slice, want %v", p, again, want)
		}
	}
}
