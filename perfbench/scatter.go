package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/storage"
)

// exact_scatter: the cluster's exact path. Agents never leave training,
// so every query scatter-gathers per-partition states from the
// partition holders over HTTP/JSON and merges them. The answer cache
// stays at its default, but no query repeats, so it only misses. Two
// closed-loop dist.Client callers send COUNT/SUM/AVG/VAR over range and
// radius selections. Model prediction is bypassed.

const scatterClients = 2

var scatterAggs = []query.Agg{query.Count, query.Sum, query.Avg, query.Var}

// exactAnswer is one recorded exact-path answer.
type exactAnswer struct {
	done     bool
	degraded bool
	value    float64
}

func runExactScatter(sp spec) (*report, error) {
	rng := newRNG(sp.Seed)
	rows := genBaseRows(rng, sp.Rows)
	// No query repeats within a run: the pool outlasts the run at well
	// above the path's throughput.
	qs := genQueries(rng, int(sp.Seconds*9000)+4096, scatterAggs, 0.5)
	warm := genQueries(rng, 2048, scatterAggs, 0.5)
	probes := make([][]query.Query, 4)
	for i := range probes {
		probes[i] = genQueries(rng, sp.Probes, scatterAggs, 0.5)
	}
	ref, err := referenceTable(rows)
	if err != nil {
		return nil, err
	}

	answers := make([]exactAnswer, len(qs))

	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30
	// The inputs stay live through the window, above the heap base.
	inputs := []any{rows, qs, warm, probes, ref, answers}
	heapBase := liveHeap()
	cs, setups, err := timeSetups(sp,
		func() (*clusterSys, error) { return startCluster(rows, dist.Config{Agent: agentCfg}) },
		func(c *clusterSys) { c.close() })
	if err != nil {
		return nil, err
	}
	defer cs.close()

	clients := []*dist.Client{cs.lc.Client(), cs.lc.Client()}
	if err := warmUp(clients, warm); err != nil {
		return nil, err
	}

	half := len(qs) / scatterClients
	// Client c sends its own half of the pool; the traced phase of a
	// traced run starts from the middle of it.
	untraced := func(c int) func(int) error {
		return func(i int) error {
			idx := c*half + i%half
			a, err := clients[c].Answer(qs[idx])
			if err == nil {
				answers[idx] = exactAnswer{done: true, degraded: a.Degraded, value: a.Value}
			}
			return err
		}
	}
	rep := &report{result: result{Metrics: metricSet{}}}
	capHint := int(sp.Seconds*8000) + 1024
	if !sp.Trace {
		w := newWindow(seconds(sp.Seconds))
		streams := []*stream{newStream(capHint), newStream(capHint)}
		c0 := cs.counters()
		w.run(
			func() { closedLoop(streams[0], w, untraced(0)) },
			func() { closedLoop(streams[1], w, untraced(1)) },
		)
		c1 := cs.counters()
		sum := w.summarize(streams, nil)
		runtime.KeepAlive(inputs)
		e2eMetrics(rep, setups, heapBase, sum)
		rep.Attempted, rep.Failed = sum.queries+sum.failed, sum.failed
		rep.note("cache_hit_ratio=%.4f partial_rpcs_per_query=%.3f", ratio(c1.cacheHits-c0.cacheHits, c1.queries-c0.queries),
			ratio(c1.partialRPCs-c0.partialRPCs, sum.queries))
	} else {
		rep.Metrics = newLayerSet()
		m := rep.Metrics
		// Both phases send through the benchmark's own client, to the
		// key's first owner, so the tracing overhead compares like with
		// like: the untraced phase without ?trace=1 and without spans,
		// the traced phase with both.
		owners := make([]string, len(qs))
		for i, q := range qs {
			owners[i] = cs.ownerURL(q)
		}
		th := newTracedHTTP()
		defer th.close()
		recs := []*recorder{{every: 3}, {every: 3}}
		phase := func(traced bool) func(c int) func(int) error {
			return func(c int) func(int) error {
				return func(i int) error {
					idx := c*half + i%half
					var rec *recorder
					if traced {
						idx = c*half + (i+half/2)%half
						rec = recs[c]
						rec.request(i)
					}
					resp, err := th.query(rec, int64(c)<<32|int64(i), owners[idx], qs[idx])
					if err == nil {
						answers[idx] = exactAnswer{done: true, degraded: resp.Degraded, value: resp.Value}
					}
					return err
				}
			}
		}
		untracedHTTP, traced := phase(false), phase(true)

		wu := newWindow(seconds(sp.Seconds / 2))
		us := []*stream{newStream(capHint), newStream(capHint)}
		c0 := cs.counters()
		wu.run(
			func() { closedLoop(us[0], wu, untracedHTTP(0)) },
			func() { closedLoop(us[1], wu, untracedHTTP(1)) },
		)
		c1 := cs.counters()
		qu := wu.summarize(us, nil)
		timingMetrics(m, qu)
		m.set("serve.cache_hit_ratio", ratio(c1.cacheHits-c0.cacheHits, c1.queries-c0.queries), "ratio")
		m.set("dist.partial_rpcs_per_query", ratio(c1.partialRPCs-c0.partialRPCs, qu.queries), "count")

		ts := []*stream{newStream(capHint), newStream(capHint)}
		wt := newWindow(seconds(sp.Seconds / 2))
		wt.run(
			func() { closedLoop(ts[0], wt, traced(0)) },
			func() { closedLoop(ts[1], wt, traced(1)) },
		)
		c2 := cs.counters()
		m.set("dist.rpc_retries", float64(c2.retries-c0.retries), "count")
		m.set("dist.hedges", float64(c2.hedges-c0.hedges), "count")
		m.set("dist.degraded", float64(c2.degraded-c0.degraded), "count")
		led := buildLedger(recs, "request")
		ledgerMetrics(m, "ledger.", led, readLayers)
		m.set("serve.sched_wait_us", led.selfUS["sched_wait"], "us")
		traceOverhead(m, us, ts)
		if err := dumpSpans(sp, recs); err != nil {
			return nil, err
		}
		qt := wt.summarize(ts, nil)
		rep.Attempted = qu.queries + qu.failed + qt.queries + qt.failed
		rep.Failed = qu.failed + qt.failed
		m.set("error_rate", ratio(rep.Failed, rep.Attempted), "ratio")

		if err := probeKernel(m, ref, probes[0]); err != nil {
			return nil, err
		}
		if err := probeWire(m, cs, ref, probes[0]); err != nil {
			return nil, err
		}
		if err := probeCluster(m, cs, probes[1], probes[2], probes[3]); err != nil {
			return nil, err
		}
		if err := probeAgent(m, cs.nodes[0].Pool().Agents()[0], probes[1], nil, sp.Probes/3); err != nil {
			return nil, err
		}
	}
	checked := checkExact(rep, ref, qs, answers)
	rep.note("checked %d exact answers against query.EvalTable", checked)
	cs.noteServing(rep)
	return rep, nil
}

// warmUp sends every warm-up query once, split over the clients, so
// connections are open and code paths are warm before timing.
func warmUp(clients []*dist.Client, warm []query.Query) error {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(warm); i += len(clients) {
				if _, err := clients[c].Answer(warm[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// checkExact compares every recorded answer with query.EvalTable over
// the reference table: COUNT, SUM and AVG must be bit-identical, VAR
// within 1e-9 relative, and no answer may be degraded. It returns how
// many answers it checked.
func checkExact(rep *report, ref *storage.Table, qs []query.Query, answers []exactAnswer) int {
	var mu sync.Mutex
	var wg sync.WaitGroup
	checked := 0
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var bad []string
			n := 0
			for i := w; i < len(qs); i += workers {
				if !answers[i].done {
					continue
				}
				n++
				if msg := exactMismatch(ref, qs[i], answers[i]); msg != "" {
					bad = append(bad, fmt.Sprintf("query %d (%s): %s", i, qs[i].Aggregate, msg))
				}
			}
			mu.Lock()
			checked += n
			rep.mismatches = append(rep.mismatches, bad...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return checked
}

// exactMismatch describes how a cluster answer departs from the
// reference ("" when it does not).
func exactMismatch(ref *storage.Table, q query.Query, a exactAnswer) string {
	if a.degraded {
		return "answer is degraded"
	}
	want, _, err := query.EvalTable(q, ref)
	if err != nil {
		return "reference: " + err.Error()
	}
	if q.Aggregate == query.Var {
		if math.Abs(a.value-want.Value) > 1e-9*math.Abs(want.Value) {
			return fmt.Sprintf("got %v, reference %v (beyond 1e-9 relative)", a.value, want.Value)
		}
		return ""
	}
	if math.Float64bits(a.value) != math.Float64bits(want.Value) {
		return fmt.Sprintf("got %v, reference %v (not bit-identical)", a.value, want.Value)
	}
	return ""
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
