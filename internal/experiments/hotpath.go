package experiments

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/workload"
)

// E17Row is one row of the serving hot-path scenario: the per-tier cost
// of answering a query once the system is warm. The single-node half
// measures the zero-allocation tiers in isolation (steady-state
// TryPredict through the indexed quantiser, and a versioned answer
// cache hit) plus the served throughput of a mixed repeat-heavy stream;
// the cluster half counts the scatter-gather's partial RPCs per exact
// query against the fewest holders that could serve it — the
// message-minimal fan-out shape.
type E17Row struct {
	Rows int `json:"rows"`

	// Zero-allocation tiers, measured with runtime.MemStats over a
	// single-goroutine loop: allocs/op must sit at 0 in steady state
	// (BenchmarkE17HotPath re-proves this with -benchmem precision).
	TryPredictNsOp     float64 `json:"try_predict_ns_op"`
	TryPredictAllocsOp float64 `json:"try_predict_allocs_op"`
	CacheHitNsOp       float64 `json:"cache_hit_ns_op"`
	CacheHitAllocsOp   float64 `json:"cache_hit_allocs_op"`

	// Served throughput of workers concurrent clients replaying
	// repeat-heavy dashboard streams through the scheduler.
	Workers      int           `json:"workers"`
	Queries      int           `json:"queries"`
	QPS          float64       `json:"qps"`
	P50          time.Duration `json:"p50_ns"`
	P99          time.Duration `json:"p99_ns"`
	CacheHitRate float64       `json:"cache_hit_rate"`
	PredRate     float64       `json:"pred_rate"`

	// Cluster-mode exact fallbacks: batched partial RPCs per query.
	ClusterNodes   int     `json:"cluster_nodes"`
	ClusterQueries int     `json:"cluster_queries"`
	RPCsPerQuery   float64 `json:"rpcs_per_query"`
	// MinCover is the fewest remote holders that together hold every
	// partition the entry node lacks; RPCsPerQuery must not exceed it.
	MinCover int `json:"min_cover"`
}

// E17Fixture is a trained single-node serving stack pinned to a query
// that takes the prediction fast path — the shared setup of the E17
// experiment and BenchmarkE17HotPath's allocation proofs.
type E17Fixture struct {
	Agent *core.Agent
	Pool  *serve.Pool
	Query query.Query
}

// NewE17Fixture trains one agent on the standard clustered environment
// and returns it pooled behind an enabled answer cache, together with a
// query the trained agent answers on the TryPredict fast path.
func NewE17Fixture(nRows, training int) (*E17Fixture, error) {
	env, err := NewEnv(nRows, 16, 1)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = training
	agent, err := core.NewAgent(exec.MapReduceOracle{Ex: env.Executor}, cfg)
	if err != nil {
		return nil, err
	}
	qs := stream(2, query.Count)
	for i := 0; i < training+training/2; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			return nil, err
		}
	}
	pool, err := serve.NewPool([]*core.Agent{agent}, nil)
	if err != nil {
		return nil, err
	}
	pool.EnableCache(4096)
	// Pin a query the warm agent predicts: the steady-state population
	// of the fast path.
	for i := 0; i < 2000; i++ {
		q := qs.Next()
		if _, ok := agent.TryPredict(q); ok {
			return &E17Fixture{Agent: agent, Pool: pool, Query: q}, nil
		}
	}
	return nil, fmt.Errorf("E17: trained agent never predicted a stream query")
}

// measureLoop times fn over iters single-goroutine iterations and
// returns (ns/op, allocs/op) from the runtime's allocation counters.
func measureLoop(iters int, fn func()) (float64, float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(iters),
		float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

// E17HotPath measures the overhauled serving hot path. Single node:
// steady-state TryPredict and cache-hit ns/op + allocs/op, then a
// workers-wide repeat-heavy stream through the scheduler (QPS, p50/p99,
// cache-hit rate). Cluster: clusterQueries exact scatter-gathers on a
// 3-node cluster, reporting partial RPCs per query, gated at the
// minimal cover of the partitions the entry node lacks.
func E17HotPath(nRows, training, workers, perWorker, clusterQueries int) (E17Row, error) {
	if workers < 1 {
		workers = 1
	}
	if perWorker < 1 {
		perWorker = 1
	}
	row := E17Row{Rows: nRows, Workers: workers}

	fix, err := NewE17Fixture(nRows, training)
	if err != nil {
		return row, err
	}
	const iters = 20_000
	row.TryPredictNsOp, row.TryPredictAllocsOp = measureLoop(iters, func() {
		fix.Agent.TryPredict(fix.Query)
	})
	if _, err := fix.Pool.Answer(fix.Query); err != nil { // prime the cache
		return row, err
	}
	row.CacheHitNsOp, row.CacheHitAllocsOp = measureLoop(iters, func() {
		_, _ = fix.Pool.Answer(fix.Query)
	})

	// Concurrent serving: dashboard traffic — every client samples the
	// same finite catalog of queries (dashboards re-ask the same
	// questions verbatim), so the cache tier absorbs the repeats and
	// the prediction tier serves the rest.
	catalog := dashboardCatalog(300)
	sched := serve.NewScheduler(fix.Pool, serve.SchedulerConfig{
		Workers:        workers,
		QueueDepth:     4 * workers,
		TenantInflight: -1,
	})
	defer sched.Close()
	base := fix.Pool.Recorder().Snapshot()
	phaseStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(700 + int64(w))
			for i := 0; i < perWorker; i++ {
				q := catalog[rng.Intn(len(catalog))]
				_, _ = sched.Answer(fmt.Sprintf("client-%d", w), q)
			}
		}(w)
	}
	wg.Wait()
	phase := time.Since(phaseStart)
	snap := fix.Pool.Recorder().Snapshot()
	served := snap.Queries - base.Queries
	row.Queries = int(served)
	// QPS over the workload phase alone: the recorder's lifetime rate
	// would be dominated by the single-goroutine measurement loops.
	if phase > 0 {
		row.QPS = float64(served) / phase.Seconds()
	}
	row.P50, row.P99 = snap.P50, snap.P99
	if served > 0 {
		row.CacheHitRate = float64(snap.CacheHits-base.CacheHits) / float64(served)
		row.PredRate = float64(snap.Predicted-base.Predicted) / float64(served)
	}

	// Cluster half: every query takes the exact path (training never
	// ends), so each one scatter-gathers its missing partitions from
	// the holders a greedy set cover picks. With 2 replicas on 3 nodes
	// each remote member holds every missing partition: one RPC.
	ccfg := core.DefaultConfig(2)
	ccfg.TrainingQueries = 1 << 30
	lc, err := dist.StartLocal(3, dist.Config{Agent: ccfg, Replicas: 2}, workload.StandardRows(nRows/2, 11))
	if err != nil {
		return row, err
	}
	defer lc.Close()
	row.ClusterNodes = 3
	entry := lc.Node(lc.IDs()[0])
	row.MinCover = minCover(entry)
	cqs := stream(5, query.Count)
	sentBefore := entry.PartialRPCsSent()
	for i := 0; i < clusterQueries; i++ {
		if _, _, err := entry.ScatterGather(cqs.Next()); err != nil {
			return row, err
		}
	}
	row.ClusterQueries = clusterQueries
	if clusterQueries > 0 {
		row.RPCsPerQuery = float64(entry.PartialRPCsSent()-sentBefore) / float64(clusterQueries)
	}
	if row.RPCsPerQuery > float64(row.MinCover) {
		return row, fmt.Errorf("E17: %.2f partial RPCs per query exceeds the minimal cover of %d holders",
			row.RPCsPerQuery, row.MinCover)
	}
	return row, nil
}

// minCover returns the fewest other members that together hold every
// partition entry lacks, by checking every subset of them (fine for the
// handful of members an experiment runs).
func minCover(entry *dist.Node) int {
	var others []string
	for _, id := range entry.Ring().Nodes() {
		if id != entry.ID() {
			others = append(others, id)
		}
	}
	var missing [][]string // the owners of each partition entry lacks
	for p := 0; p < entry.Partitions(); p++ {
		owners := entry.PartitionOwners(p)
		if !slices.Contains(owners, entry.ID()) {
			missing = append(missing, owners)
		}
	}
	best := len(others)
	for set := 0; set < 1<<len(others); set++ {
		size := bits.OnesCount(uint(set))
		if size >= best {
			continue
		}
		covers := true
		for _, owners := range missing {
			held := false
			for i, id := range others {
				if set&(1<<i) != 0 && slices.Contains(owners, id) {
					held = true
					break
				}
			}
			if !held {
				covers = false
				break
			}
		}
		if covers {
			best = size
		}
	}
	return best
}
