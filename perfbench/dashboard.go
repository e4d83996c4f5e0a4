package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/trace"
)

// dashboard: the in-process hot path. One trained agent sits behind a
// serve.Pool with the answer cache on and a 2-worker serve.Scheduler.
// Two closed-loop clients alternate between a 512-query catalog (which
// fits the 4096-entry cache) and fresh interest-region queries (most
// take the prediction path, a few the exact fallback). Nothing crosses
// dist, the wire format or HTTP.

const (
	dashCache   = 4096
	dashWorkers = 2
	dashClients = 2
	// dashFreshPerSec sizes the fresh-query pool so that no fresh query
	// repeats within a run: it is above what both clients together send.
	dashFreshPerSec = 200_000
)

type dashSys struct {
	tbl    *storage.Table
	agent  *core.Agent
	pool   *serve.Pool
	sched  *serve.Scheduler
	tracer *trace.Tracer
}

func buildDashboard(rows []storage.Row, train []query.Query, training int) (*dashSys, error) {
	cl := cluster.New(3, cluster.DefaultConfig())
	tbl, err := storage.NewTable(cl, "data", []string{"x", "y", "z"}, partitions)
	if err != nil {
		return nil, err
	}
	if err := tbl.Load(rows); err != nil {
		return nil, err
	}
	ex, err := exec.New(engine.New(cl), tbl)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = training
	agent, err := core.NewAgent(exec.MapReduceOracle{Ex: ex}, cfg)
	if err != nil {
		return nil, err
	}
	for _, q := range train {
		if _, err := agent.Answer(q); err != nil {
			return nil, err
		}
	}
	pool, err := serve.NewPool([]*core.Agent{agent}, nil)
	if err != nil {
		return nil, err
	}
	pool.EnableCache(dashCache)
	// Wired like a cluster node's pool: a tracer that samples nothing,
	// so only forced traces (the traced run) record spans.
	tracer := trace.NewTracer("bench", 0)
	pool.EnableTracing(tracer)
	sched := serve.NewScheduler(pool, serve.SchedulerConfig{Workers: dashWorkers, QueueDepth: 64, TenantInflight: -1})
	return &dashSys{tbl: tbl, agent: agent, pool: pool, sched: sched, tracer: tracer}, nil
}

// dashAnswer is one recorded answer: 0 = unanswered, else predicted
// or exact.
type dashAnswer struct {
	state int8
	value float64
}

const (
	ansPredicted int8 = 1
	ansExact     int8 = 2
)

func record(a core.Answer) dashAnswer {
	if a.Predicted {
		return dashAnswer{state: ansPredicted, value: a.Value}
	}
	return dashAnswer{state: ansExact, value: a.Value}
}

func runDashboard(sp spec) (*report, error) {
	rng := newRNG(sp.Seed)
	rows := genBaseRows(rng, sp.Rows)
	train := genQueries(rng, sp.Training+sp.Training/2, counts, 0.3)
	catalog := genQueries(rng, sp.Catalog, counts, 0.3)
	catOrder := make([]int, 1<<16)
	for i := range catOrder {
		catOrder[i] = rng.Intn(len(catalog))
	}
	cold := genQueriesIn(rng, coldRegions, sp.Probes, counts, 0.3)
	verifyPer := sp.Verify / dashClients
	catAns := make([][]dashAnswer, dashClients)
	freshAns := make([][]dashAnswer, dashClients)
	for c := range catAns {
		catAns[c] = make([]dashAnswer, len(catalog))
		freshAns[c] = make([]dashAnswer, verifyPer)
	}

	// The inputs stay live through the window, above the heap base.
	inputs := []any{rows, train, catalog, catOrder, cold, catAns, freshAns}
	heapBase := liveHeap()
	sys, setups, err := timeSetups(sp,
		func() (*dashSys, error) { return buildDashboard(rows, train, sp.Training) },
		func(s *dashSys) { s.sched.Close() })
	if err != nil {
		return nil, err
	}
	defer sys.sched.Close()

	// The fresh-query slabs (about 130 MB) are made once the set-ups are
	// done, so that the collector does not mark them while the system is
	// built; the live heap they add is counted into the heap base. The
	// idle system does not change meanwhile.
	before := liveHeap()
	fresh := genSlab(rng, int(sp.Seconds*dashFreshPerSec)+2*sp.Verify, query.Count, 0.3)
	warm := genSlab(rng, int(sp.Warmup.Seconds()*dashFreshPerSec)+1024, query.Count, 0.3)
	heapBase += liveHeap() - before
	inputs = append(inputs, fresh, warm)
	// Each client sends its own half of the fresh pool, the traced
	// phase of a traced run from the middle of it. The first verifyPer
	// fresh answers of each half are kept for checking.
	half := fresh.len() / dashClients
	tenants := []string{"client-0", "client-1"}
	// pick maps a client's i-th request to its query: even requests
	// repeat the catalog, odd ones take the client's next fresh query.
	// The second return indexes the catalog (fresh = false) or the
	// client's half of the fresh pool.
	pick := func(c, i int, offset int) (query.Query, int, bool) {
		if i%2 == 0 {
			ci := catOrder[(c*len(catOrder)/dashClients+i/2)%len(catOrder)]
			return catalog[ci], ci, false
		}
		fi := (i/2 + offset) % half
		return fresh.at(c*half + fi), fi, true
	}
	store := func(c, idx int, isFresh bool, a core.Answer) {
		if !isFresh {
			catAns[c][idx] = record(a)
		} else if idx < verifyPer {
			freshAns[c][idx] = record(a)
		}
	}
	// Warm up with the measured traffic's shape, on fresh queries of
	// its own: the cache fills and the agent learns from its first
	// fallbacks, which are frequent only at the start.
	warmHalf := warm.len() / dashClients
	warmStreams := []*stream{newStream(0), newStream(0)}
	ww := newWindow(sp.Warmup)
	warmLoad := func(c int) func() {
		return func() {
			closedLoop(warmStreams[c], ww, func(i int) error {
				q := catalog[catOrder[i%len(catOrder)]]
				if i%2 == 1 {
					q = warm.at(c*warmHalf + (i/2)%warmHalf)
				}
				_, err := sys.sched.Answer(tenants[c], q)
				return err
			})
		}
	}
	ww.run(warmLoad(0), warmLoad(1))
	if f := warmStreams[0].failed + warmStreams[1].failed; f > 0 {
		return nil, fmt.Errorf("warm-up: %d failed queries", f)
	}

	untraced := func(c int) func(int) error {
		return func(i int) error {
			q, idx, isFresh := pick(c, i, 0)
			a, err := sys.sched.Answer(tenants[c], q)
			if err == nil {
				store(c, idx, isFresh, a)
			}
			return err
		}
	}

	rep := &report{result: result{Metrics: metricSet{}}}
	capHint := int(sp.Seconds*250_000) + 1024
	if !sp.Trace {
		w := newWindow(seconds(sp.Seconds))
		streams := []*stream{newStream(capHint), newStream(capHint)}
		f0 := sys.pool.Recorder().Snapshot().Fallbacks
		w.run(
			func() { closedLoop(streams[0], w, untraced(0)) },
			func() { closedLoop(streams[1], w, untraced(1)) },
		)
		sum := w.summarize(streams, nil)
		runtime.KeepAlive(inputs)
		e2eMetrics(rep, setups, heapBase, sum)
		rep.note("exact fallbacks in the window: %d", sys.pool.Recorder().Snapshot().Fallbacks-f0)
		rep.Attempted, rep.Failed = sum.queries+sum.failed, sum.failed
	} else {
		rep.Metrics = newLayerSet()
		m := rep.Metrics
		// Untraced half: the reference for the tracing overhead and the
		// serving-layer counter deltas.
		snap0 := sys.pool.Recorder().Snapshot()
		wu := newWindow(seconds(sp.Seconds / 2))
		us := []*stream{newStream(capHint), newStream(capHint)}
		wu.run(
			func() { closedLoop(us[0], wu, untraced(0)) },
			func() { closedLoop(us[1], wu, untraced(1)) },
		)
		snap1 := sys.pool.Recorder().Snapshot()
		if q := snap1.Queries - snap0.Queries; q > 0 {
			m.set("serve.cache_hit_ratio", float64(snap1.CacheHits-snap0.CacheHits)/float64(q), "ratio")
		}
		// Traced half: a span per request, one around the scheduler
		// hand-off up to the moment a worker starts the job, and the
		// pool's own span tree grafted under the request.
		recs := []*recorder{{every: 61}, {every: 61}}
		ts := []*stream{newStream(capHint), newStream(capHint)}
		traced := func(c int) func(int) error {
			return func(i int) error {
				q, idx, isFresh := pick(c, i, half/2)
				req := int64(c)<<32 | int64(i)
				recs[c].request(i)
				var fnStart time.Time
				var tr *trace.Trace
				submit := time.Now()
				v, err := sys.sched.Do(tenants[c], func() (any, error) {
					fnStart = time.Now()
					tr = sys.tracer.Force("query")
					return sys.pool.AnswerTraced(q, tr)
				})
				end := time.Now()
				if err != nil {
					return err
				}
				store(c, idx, isFresh, v.(core.Answer))
				root := recs[c].add("request", req, -1, submit, end)
				recs[c].add("sched_wait", req, root, submit, fnStart)
				recs[c].graft(tr.Wire(), req, root)
				return nil
			}
		}
		wt := newWindow(seconds(sp.Seconds / 2))
		wt.run(
			func() { closedLoop(ts[0], wt, traced(0)) },
			func() { closedLoop(ts[1], wt, traced(1)) },
		)
		led := buildLedger(recs, "request")
		ledgerMetrics(m, "ledger.", led, readLayers)
		m.set("serve.sched_wait_us", led.selfUS["sched_wait"], "us")
		traceOverhead(m, us, ts)
		if err := dumpSpans(sp, recs); err != nil {
			return nil, err
		}
		qu, qt := wu.summarize(us, nil), wt.summarize(ts, nil)
		timingMetrics(m, qu)
		rep.Attempted = qu.queries + qu.failed + qt.queries + qt.failed
		rep.Failed = qu.failed + qt.failed

		// Layer probes, on the same system after the measured phases.
		probe := make([]query.Query, sp.Verify)
		for i := range probe {
			probe[i] = fresh.at(fresh.len() - 1 - i)
		}
		if _, err := sys.pool.Answer(catalog[0]); err != nil {
			return nil, err
		}
		m.set("serve.cache_lookup_us", timeEach(20*sp.Probes, func(int) { _, _ = sys.pool.Answer(catalog[0]) }), "us")
		if err := probeKernel(m, sys.tbl, probe[:min(sp.Probes, len(probe))]); err != nil {
			return nil, err
		}
		if err := probeAgent(m, sys.agent, probe, cold, sp.Probes); err != nil {
			return nil, err
		}
	}

	// Check the answers: every exact one equals the reference, and the
	// predicted ones give the model's error.
	var errs []float64
	check := func(q query.Query, a dashAnswer, what string) {
		if a.state == 0 {
			return
		}
		want, _, err := query.EvalTable(q, sys.tbl)
		if err != nil {
			rep.mismatch("%s: reference: %v", what, err)
			return
		}
		if a.state == ansExact && a.value != want.Value {
			rep.mismatch("%s: exact answer %v, reference %v", what, a.value, want.Value)
		}
		if a.state == ansPredicted {
			errs = append(errs, relErr(a.value, want.Value))
		}
	}
	for c := range catAns {
		for i, a := range catAns[c] {
			check(catalog[i], a, fmt.Sprintf("catalog query %d", i))
		}
	}
	checked := 0
	for c := range freshAns {
		for i, a := range freshAns[c] {
			if a.state != 0 {
				check(fresh.at(c*half+i), a, fmt.Sprintf("client %d fresh query %d", c, i))
				checked++
			}
		}
	}
	slices.Sort(errs)
	relP50 := quantile(errs, 0.5)
	if sp.Trace {
		rep.Metrics.set("model_rel_err_p50", relP50, "ratio")
		rep.Metrics.set("error_rate", ratio(rep.Failed, rep.Attempted), "ratio")
	}
	rep.note("checked %d fresh and %d catalog answers; model_rel_err_p50=%.4f over %d predicted", checked, len(catalog), relP50, len(errs))
	st := sys.pool.Recorder().Snapshot()
	rep.note("pool lifetime: queries=%d cache_hits=%d predicted=%d fallbacks=%d", st.Queries, st.CacheHits, st.Predicted, st.Fallbacks)
	return rep, nil
}

// seconds converts a length in seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traceOverhead reports the traced minus the untraced median latency.
func traceOverhead(m metricSet, untraced, traced []*stream) {
	u, t := latQuantileUS(0.5, untraced...), latQuantileUS(0.5, traced...)
	m.set("trace.overhead_us", t-u, "us")
	if u > 0 {
		m.set("trace.overhead_frac", (t-u)/u, "ratio")
	}
}
