package experiments

import "testing"

func TestE17Shape(t *testing.T) {
	row, err := E17HotPath(5_000, 150, 4, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	if row.Queries == 0 || row.QPS <= 0 {
		t.Fatalf("E17 served nothing: %+v", row)
	}
	// The zero-alloc contract of the tentpole: steady-state prediction
	// and cache hits must not allocate. MemStats counting over 20k
	// iterations tolerates stray runtime noise, not per-op allocations.
	// Under -race sync.Pool intentionally bypasses its caches, so the
	// contract is only asserted in normal builds (CI's bench smoke
	// proves it with -benchmem precision).
	if !raceEnabled {
		if row.TryPredictAllocsOp >= 0.5 {
			t.Errorf("E17: TryPredict allocates %.2f/op, want ~0", row.TryPredictAllocsOp)
		}
		if row.CacheHitAllocsOp >= 0.5 {
			t.Errorf("E17: cache hit allocates %.2f/op, want ~0", row.CacheHitAllocsOp)
		}
	}
	if row.CacheHitRate <= 0 {
		t.Error("E17: repeat-heavy stream never hit the cache")
	}
	// 3 nodes, 2 replicas: either remote member holds every partition
	// the entry node lacks, so one RPC per query suffices.
	if row.MinCover != 1 {
		t.Errorf("E17: minimal cover %d holders on 3 nodes with 2 replicas, want 1", row.MinCover)
	}
	if row.RPCsPerQuery > float64(row.MinCover) {
		t.Errorf("E17: %.2f partial RPCs per query > minimal cover of %d holders",
			row.RPCsPerQuery, row.MinCover)
	}
	if row.TryPredictNsOp <= 0 || row.CacheHitNsOp <= 0 {
		t.Errorf("E17: implausible tier timings: %+v", row)
	}
}
