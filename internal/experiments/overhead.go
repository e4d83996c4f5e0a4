package experiments

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Overhead is one within-run overhead measurement, embedded in every
// E18–E22 row. Three instances built from the same seed serve the same
// requests: A (baseline), B (the plane under test switched on) and A′
// (a second untreated instance, the null arm). OverheadPct is B's QPS
// drop against A; NullPct is A′'s, which measures the estimator's own
// noise floor in the same run, so each row carries it.
type Overhead struct {
	BaselineQPS float64 `json:"baseline_qps"`
	TreatedQPS  float64 `json:"treated_qps"`
	NullQPS     float64 `json:"null_qps"`
	OverheadPct float64 `json:"overhead_pct"`
	NullPct     float64 `json:"null_pct"`
	// Pairs is the number of measured requests, each issued once to
	// every instance.
	Pairs int `json:"pairs"`
}

const (
	// fixtureClients is the harness's closed-loop client count against
	// in-process fixtures. On a 2-core box more clients give the three
	// instances a per-process bias: with two clients an A/A/A run's
	// arms drift up to 3.5% apart over 1.8M requests, with four up to
	// 10%, and more requests make it worse, not better. At one client
	// the null arm stays within 0.7%.
	fixtureClients = 1
	// clusterClients is the client count over loopback HTTP: enough to
	// keep every core busy, since an idle core's wake-ups put multi-ms
	// stalls into the latency tail (one client puts the pooled p99 at
	// 15x the median).
	clusterClients = 4
	// overheadBlocks splits the measured requests so a manual collection
	// runs between blocks rather than inside them, bounding the heap the
	// collector-off blocks can grow.
	overheadBlocks = 64
)

// pairedOverhead measures what treated costs against base, with null
// (an instance built like base) as the in-run A/A control. workers
// closed-loop clients each take the next request index j and issue it
// to all three instances back to back, in armOrder(j), so ambient
// noise — CPU steal, frequency shifts, scheduler stalls — lands on all
// three within microseconds and cancels in the comparison. A discarded
// warm-up block of n/4 requests primes connection pools and caches;
// then n measured requests run in blocks with the collector off,
// collecting manually between blocks outside the measured stream.
func pairedOverhead(workers, n int, base, treated, null func(j int) error) (Overhead, error) {
	arms := [3]func(int) error{base, treated, null}
	if _, err := driveArms(workers, 0, n/4, arms); err != nil {
		return Overhead{}, err
	}
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	var lats [3][]time.Duration
	for b := 0; b < overheadBlocks; b++ {
		runtime.GC()
		l, err := driveArms(workers, b*n/overheadBlocks, (b+1)*n/overheadBlocks, arms)
		if err != nil {
			return Overhead{}, err
		}
		for k := range lats {
			lats[k] = append(lats[k], l[k]...)
		}
	}
	return estimateOverhead(workers, lats), nil
}

// armOrders lists the six orders of the three arms.
var armOrders = [6][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {2, 1, 0}, {1, 0, 2}}

// armOrder returns the order request j issues the arms in. Each run of
// six requests uses every order once, so each arm runs in each position
// equally often and after each other arm equally often: work one arm
// leaves behind (a goroutine still finishing, a dirtied cache) lands on
// the other two alike. The orders within a run are shuffled by a hash
// of the run's index, so no arm's position follows j's residues, which
// the arms use to pick the query and the member it goes to.
func armOrder(j int) [3]int {
	perm := [6]int{0, 1, 2, 3, 4, 5}
	x := uint64(j / 6)
	for i := 5; i > 0; i-- {
		x = splitmix64(x)
		k := int(x % uint64(i+1))
		perm[i], perm[k] = perm[k], perm[i]
	}
	return armOrders[perm[j%6]]
}

// splitmix64 is one step of the SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// driveArms issues requests lo..hi-1 to every arm, in armOrder(j), on
// workers goroutines and returns each arm's latencies, indexed j-lo.
func driveArms(workers, lo, hi int, arms [3]func(int) error) ([3][]time.Duration, error) {
	var lats [3][]time.Duration
	for k := range lats {
		lats[k] = make([]time.Duration, hi-lo)
	}
	var next atomic.Int64
	next.Store(int64(lo))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < hi; j = int(next.Add(1) - 1) {
				for _, k := range armOrder(j) {
					start := time.Now()
					err := arms[k](j)
					lats[k][j-lo] = time.Since(start)
					if err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return lats, err
		}
	}
	return lats, nil
}

// estimateOverhead turns per-arm latencies into closed-loop QPS. Every
// sample is winsorised at the 99th percentile of all three arms
// pooled: an ambient multi-ms stall lands on one arm of one request
// and would otherwise move a mean by over a percent on its own, while
// a systematic tail shift on one arm still shows as mass piling up at
// the cap. A closed-loop client cycling on one instance alone would
// serve workers/meanLatency QPS, so the ratio of two arms' QPS is the
// inverse ratio of their contemporaneous mean latencies.
func estimateOverhead(workers int, lats [3][]time.Duration) Overhead {
	pooled := slices.Concat(lats[0], lats[1], lats[2])
	if len(pooled) == 0 {
		return Overhead{}
	}
	slices.Sort(pooled)
	capLat := pooled[len(pooled)*99/100]
	var qps [3]float64
	for k, arm := range lats {
		var sum time.Duration
		for _, l := range arm {
			sum += min(l, capLat)
		}
		if sum > 0 {
			qps[k] = float64(workers) * float64(len(arm)) / sum.Seconds()
		}
	}
	o := Overhead{BaselineQPS: qps[0], TreatedQPS: qps[1], NullQPS: qps[2], Pairs: len(lats[0])}
	if o.BaselineQPS > 0 {
		o.OverheadPct = 100 * (1 - o.TreatedQPS/o.BaselineQPS)
		o.NullPct = 100 * (1 - o.NullQPS/o.BaselineQPS)
	}
	return o
}

// dashboardCatalog returns the 64 queries a repeat-heavy overhead
// stream replays: dashboards re-ask the same questions verbatim.
func dashboardCatalog(seed int64) []query.Query {
	catalog := make([]query.Query, 64)
	cs := workload.NewQueryStream(workload.NewRNG(seed), workload.DefaultRegions(2), query.Count)
	for i := range catalog {
		catalog[i] = cs.Next()
	}
	return catalog
}

// fixtureArms builds the three instances of an in-process overhead
// run: identically seeded E17 fixtures, each primed on catalog and
// served by its own scheduler. Arm k's request j asks
// catalog[j%len(catalog)] of fixture k; stop closes the schedulers.
func fixtureArms(nRows, training int, catalog []query.Query) (fx [3]*E17Fixture, arms [3]func(int) error, stop func(), err error) {
	var scheds []*serve.Scheduler
	stop = func() {
		for _, s := range scheds {
			s.Close()
		}
	}
	for k := range fx {
		f, err := NewE17Fixture(nRows, training)
		if err != nil {
			stop()
			return fx, arms, nil, err
		}
		for _, q := range catalog { // prime the cache and prediction tiers
			_, _ = f.Pool.Answer(q)
		}
		sched := serve.NewScheduler(f.Pool, serve.SchedulerConfig{
			Workers:        fixtureClients,
			QueueDepth:     4 * fixtureClients,
			TenantInflight: -1,
		})
		scheds = append(scheds, sched)
		fx[k] = f
		arms[k] = func(j int) error {
			_, err := sched.Answer("bench", catalog[j%len(catalog)])
			return err
		}
	}
	return fx, arms, stop, nil
}

// clusterArms starts the three instances of a cluster overhead run —
// one LocalCluster per config, each over rows — and returns one arm
// per cluster: request j posts the j-th repeat catalog query to member
// j%nodes, the way clients spread over a cluster. stop closes the
// clusters.
func clusterArms(hc *http.Client, nodes int, cfgs [3]dist.Config, rows []storage.Row) (lcs [3]*dist.LocalCluster, arms [3]func(int) error, stop func(), err error) {
	stop = func() {
		for _, lc := range lcs {
			if lc != nil {
				lc.Close()
			}
		}
	}
	var catalog []serve.QueryRequest
	for _, q := range dashboardCatalog(400) {
		catalog = append(catalog, serve.QueryRequest{Agg: "count", Los: q.Select.Los, His: q.Select.His})
	}
	for k, cfg := range cfgs {
		if lcs[k], err = dist.StartLocal(nodes, cfg, rows); err != nil {
			stop()
			return lcs, arms, nil, err
		}
		urls := memberURLs(lcs[k])
		arms[k] = func(j int) error {
			return e21Post(hc, urls[j%len(urls)], catalog[j%len(catalog)]).err
		}
	}
	return lcs, arms, stop, nil
}

// memberURLs lists a cluster's member base URLs in id order.
func memberURLs(lc *dist.LocalCluster) []string {
	urls := make([]string, 0, len(lc.IDs()))
	for _, id := range lc.IDs() {
		urls = append(urls, lc.URL(id))
	}
	return urls
}
