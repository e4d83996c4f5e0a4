package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/storage"
)

// ingest_mixed: writes beside reads. A 3-node cluster with R=2 and
// write quorum 2 keeps a durable WAL that fsyncs every batch
// (WALSyncEvery=1). Agents are trained on one node, shipped to the
// others by snapshot, and maintain their models incrementally under
// ingest (DriftRowBudget). One open-loop writer posts 100-row batches
// at a fixed rate, and one paced reader sends interest-region queries
// beside it on a fixed Poisson schedule. Both offered loads are fixed,
// so both commits of a comparison see the same work mix, and the read
// figures measure the cost of a read, not the capacity the writes
// happen to leave free.

// The writer sends batchRows-row batches at writeRate batches/s. A
// closed-loop writer reached 70-95 batches/s on the machine the
// benchmark was tuned on, so this is about a quarter of capacity. The
// reader offers readRate queries/s on average; a closed-loop reader
// beside the writer reached 5,000-10,000.
const (
	walSyncEvery = 1
	writeRate    = 20
	batchRows    = 100
	readRate     = 2000
)

func runIngestMixed(sp spec) (*report, error) {
	rng := newRNG(sp.Seed)
	rows := genBaseRows(rng, sp.Rows)
	train := genQueries(rng, sp.Training+sp.Training/2, counts, 0.3)
	reads := genQueries(rng, int(sp.Seconds*readRate*1.2)+4096, counts, 0.3)
	arrivals := genArrivals(rng, readRate, seconds(sp.Seconds))
	warm := genQueries(rng, 1024, counts, 0.3)
	probes := make([][]query.Query, 4)
	for i := range probes {
		probes[i] = genQueries(rng, sp.Probes, counts, 0.3)
	}
	nBatches := int(sp.Seconds*writeRate) + 8
	batches := genBatches(rng, nBatches, batchRows)
	cold := genQueriesIn(rng, coldRegions, sp.Probes, counts, 0.3)
	degraded := make([]bool, len(reads))

	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = sp.Training
	agentCfg.DriftRowBudget = 150
	setupN := 0
	build := func() (*clusterSys, error) {
		setupN++
		cfg := dist.Config{
			Agent:        agentCfg,
			WriteQuorum:  2,
			DataDir:      filepath.Join(sp.Tmp, fmt.Sprintf("wal-%d", setupN)),
			WALSyncEvery: walSyncEvery,
		}
		cs, err := startCluster(rows, cfg)
		if err != nil {
			return nil, err
		}
		trainer := cs.nodes[0]
		for _, q := range train {
			if _, err := trainer.Answer("train", q); err != nil {
				cs.close()
				return nil, err
			}
		}
		for _, n := range cs.nodes[1:] {
			if _, err := n.WarmFrom(cs.lc.URL(trainer.ID())); err != nil {
				cs.close()
				return nil, err
			}
		}
		return cs, nil
	}
	// The inputs stay live through the window, above the heap base.
	inputs := []any{rows, train, reads, arrivals, warm, probes, batches, cold, degraded}
	heapBase := liveHeap()
	cs, setups, err := timeSetups(sp, build, func(c *clusterSys) { c.close() })
	if err != nil {
		return nil, err
	}
	defer cs.close()

	reader, writer := cs.lc.Client(), cs.lc.Client()
	if err := warmUp([]*dist.Client{reader}, warm); err != nil {
		return nil, err
	}

	var acked, batchesSent atomic.Int64
	var nextBatch atomic.Int64
	rep := &report{result: result{Metrics: metricSet{}}}
	// ackOK folds one ingest response into the ledger of acknowledged
	// rows; a batch not acknowledged in full is a failed operation.
	ackOK := func(resp dist.IngestResponse, want int) error {
		acked.Add(int64(resp.AckedRows))
		if resp.AckedRows != want || resp.FailedRows != 0 {
			return fmt.Errorf("batch acknowledged %d of %d rows", resp.AckedRows, want)
		}
		return nil
	}
	// take hands out the next unsent batch.
	take := func() (int, []storage.Row, error) {
		bi := int(nextBatch.Add(1) - 1)
		if bi >= len(batches) {
			return bi, nil, fmt.Errorf("writer ran out of pre-generated batches")
		}
		batchesSent.Add(1)
		return bi, batches[bi], nil
	}
	send := func(int) error {
		_, b, err := take()
		if err != nil {
			return err
		}
		resp, err := writer.Ingest(b)
		if err != nil {
			return err
		}
		return ackOK(resp, len(b))
	}
	readCap := len(arrivals) + 1024
	writeCap := nBatches + 8
	readUntraced := func(i int) error {
		idx := i % len(reads)
		a, err := reader.Answer(reads[idx])
		if err == nil && a.Degraded {
			degraded[idx] = true
		}
		return err
	}

	var writes *stream
	var late, readLate []uint32
	var w *window
	var readStreams []*stream
	if !sp.Trace {
		w = newWindow(seconds(sp.Seconds))
		readStreams = []*stream{newStream(readCap)}
		writes = newStream(writeCap)
		w.run(
			func() { readLate = pacedLoop(readStreams[0], w, arrivals, readUntraced) },
			func() { late = openLoop(writes, w, writeRate, send) },
		)
		sum := w.summarize(readStreams, []*stream{writes})
		runtime.KeepAlive(inputs)
		e2eMetrics(rep, setups, heapBase, sum)
		rep.Attempted, rep.Failed = sum.ops+sum.failed, sum.failed
	} else {
		rep.Metrics = newLayerSet()
		m := rep.Metrics
		// Reads of both phases go through the benchmark's own client, so
		// the tracing overhead compares like with like: the untraced
		// phase without ?trace=1 and without spans, the traced phase
		// with both, from the middle of the read pool.
		th := newTracedHTTP()
		defer th.close()
		recs := []*recorder{{every: 3}, {}}
		entry := cs.entryURL()
		owners := make([]string, len(reads))
		for i, q := range reads {
			owners[i] = cs.ownerURL(q)
		}
		readPhase := func(traced bool) func(int) error {
			return func(i int) error {
				idx := i % len(reads)
				var rec *recorder
				if traced {
					idx = (i + len(reads)/2) % len(reads)
					rec = recs[0]
					rec.request(i)
				}
				resp, err := th.query(rec, int64(i), owners[idx], reads[idx])
				if err == nil && resp.Degraded {
					degraded[idx] = true
				}
				return err
			}
		}

		c0 := cs.counters()
		w = newWindow(seconds(sp.Seconds / 2))
		readStreams = []*stream{newStream(readCap)}
		writes = newStream(writeCap)
		w.run(
			func() { readLate = pacedLoop(readStreams[0], w, arrivals, readPhase(false)) },
			func() { late = openLoop(writes, w, writeRate, send) },
		)
		c1 := cs.counters()
		qu := w.summarize(readStreams, []*stream{writes})
		timingMetrics(m, qu)
		m.set("serve.cache_hit_ratio", ratio(c1.cacheHits-c0.cacheHits, c1.queries-c0.queries), "ratio")
		m.set("dist.partial_rpcs_per_query", ratio(c1.partialRPCs-c0.partialRPCs, qu.queries), "count")

		// Writes overlap, so each records into its own recorder and
		// merges it into the shared one.
		var writeMu sync.Mutex
		sendTraced := func(i int) error {
			bi, b, err := take()
			if err != nil {
				return err
			}
			rec := &recorder{on: true}
			resp, err := th.ingest(rec, int64(1)<<32|int64(i), entry, b, fmt.Sprintf("perfbench-%d-%d", sp.Seed, bi))
			if err != nil {
				return err
			}
			writeMu.Lock()
			recs[1].merge(rec)
			writeMu.Unlock()
			return ackOK(resp, len(b))
		}
		wt := newWindow(seconds(sp.Seconds / 2))
		ts := []*stream{newStream(readCap)}
		tw := newStream(writeCap)
		wt.run(
			func() { pacedLoop(ts[0], wt, arrivals, readPhase(true)) },
			func() { openLoop(tw, wt, writeRate, sendTraced) },
		)
		c2 := cs.counters()
		m.set("dist.rpc_retries", float64(c2.retries-c0.retries), "count")
		m.set("dist.hedges", float64(c2.hedges-c0.hedges), "count")
		m.set("dist.degraded", float64(c2.degraded-c0.degraded), "count")
		led := buildLedger(recs, "request")
		ledgerMetrics(m, "ledger.", led, readLayers)
		ledgerMetrics(m, "ledger.write.", buildLedger(recs, "write"), writeLayers)
		m.set("serve.sched_wait_us", led.selfUS["sched_wait"], "us")
		traceOverhead(m, readStreams, ts)
		if err := dumpSpans(sp, recs); err != nil {
			return nil, err
		}
		qt := wt.summarize(ts, []*stream{tw})
		rep.Attempted = qu.ops + qu.failed + qt.ops + qt.failed
		rep.Failed = qu.failed + qt.failed
		m.set("error_rate", ratio(rep.Failed, rep.Attempted), "ratio")
		m.set("ingest_ack_p50_us", latQuantileUS(0.5, writes), "us")
		m.set("ingest_ack_p99_us", latQuantileUS(0.99, writes), "us")
		m.set("gen.late_p99_us", lateQuantileUS(late, 0.99), "us")
		m.set("gen.read_late_p99_us", lateQuantileUS(readLate, 0.99), "us")
	}
	rep.note("writer: open loop at %d batches/s of %d rows; WAL fsync every %d batch(es); ack latency timed from each batch's due time", writeRate, batchRows, walSyncEvery)
	rep.note("reader: paced, Poisson arrivals at %d queries/s on average, each timed from when it was sent; sent late by p50 %.1f us, p99 %.1f us", readRate, lateQuantileUS(readLate, 0.5), lateQuantileUS(readLate, 0.99))
	rep.note("ingest_ack_p50_us=%.1f ingest_ack_p99_us=%.1f over %d acks (untraced phase)", latQuantileUS(0.5, writes), latQuantileUS(0.99, writes), len(writes.lat))

	// The writes are over: every node must count base rows plus every
	// acknowledged row, exactly and without degradation.
	checkCount(rep, cs, float64(len(rows))+float64(acked.Load()))
	for i, d := range degraded {
		if d {
			rep.mismatch("read %d came back degraded", i)
		}
	}
	rep.note("acked %d rows in %d batches; whole-space COUNT checked on %d nodes", acked.Load(), batchesSent.Load(), len(cs.nodes))
	cs.noteServing(rep)

	// Accuracy after the write stream: predicted answers on fresh
	// queries against the exact scatter-gather.
	relP50, npred, err := modelError(cs, reader, probes[0])
	if err != nil {
		return nil, err
	}
	rep.note("model_rel_err_p50=%.4f over %d predicted of %d probes", relP50, npred, len(probes[0]))
	if !sp.Trace {
		return rep, nil
	}
	m := rep.Metrics
	m.set("model_rel_err_p50", relP50, "ratio")
	if err := probeIngest(m, sp, rows, batches[:batchesSent.Load()]); err != nil {
		return nil, err
	}
	ref, err := referenceTable(rows)
	if err != nil {
		return nil, err
	}
	if err := probeKernel(m, ref, probes[1]); err != nil {
		return nil, err
	}
	if err := probeWire(m, cs, ref, probes[1]); err != nil {
		return nil, err
	}
	if err := probeCluster(m, cs, probes[1], probes[2], probes[3]); err != nil {
		return nil, err
	}
	ag := cs.nodes[0].Pool().Agents()[0]
	if err := probeAgent(m, ag, probes[2], cold, sp.Probes/3); err != nil {
		return nil, err
	}
	// Absorb last: it moves the node's models.
	m.set("core.absorb_us", timeEach(min(len(batches), 50), func(i int) {
		vecs := make([][]float64, len(batches[i]))
		for j, r := range batches[i] {
			vecs[j] = r.Vec
		}
		ag.AbsorbRows(0, vecs)
	}), "us")
	return rep, nil
}

// checkCount checks that every node's exact whole-space COUNT equals
// want and is not degraded.
func checkCount(rep *report, cs *clusterSys, want float64) {
	for _, n := range cs.nodes {
		got, _, err := n.ScatterGather(wholeSpace())
		if err != nil {
			rep.mismatch("whole-space COUNT via %s: %v", n.ID(), err)
			continue
		}
		if got.Degraded || got.Value != want {
			rep.mismatch("whole-space COUNT via %s = %v (degraded %v), want %v base + acked rows", n.ID(), got.Value, got.Degraded, want)
		}
	}
}

// openLoop sends operation i at start + i/rate, each from its own
// goroutine, whether or not earlier ones have returned, and times each
// from when it was due. It waits for every send, then records the
// operations in completion order, and returns how late (ns) each send
// left after its due time.
func openLoop(s *stream, w *window, rate float64, send func(i int) error) []uint32 {
	interval := time.Duration(float64(time.Second) / rate)
	n := int((w.end.Sub(w.start) + interval - 1) / interval)
	type outcome struct {
		due, end time.Time
		err      error
	}
	outs := make([]outcome, n)
	late := make([]uint32, 0, n)
	var wg sync.WaitGroup
	for i := range outs {
		due := w.start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		late = append(late, uint32(min(time.Since(due), time.Second)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := send(i)
			outs[i] = outcome{due: due, end: time.Now(), err: err}
		}()
	}
	wg.Wait()
	slices.SortFunc(outs, func(a, b outcome) int { return a.end.Compare(b.end) })
	for _, o := range outs {
		s.done(o.end, o.end.Sub(o.due), o.err, w)
	}
	s.done(w.end, 0, nil, w) // closes the remaining slices
	return late
}

// lateQuantileUS returns the q-quantile of late (ns) in microseconds.
func lateQuantileUS(late []uint32, q float64) float64 {
	late = slices.Clone(late)
	slices.Sort(late)
	return float64(quantile(late, q)) / 1e3
}

// modelError returns the median relative error of predicted answers on
// qs against the exact scatter-gather, and how many were predicted.
func modelError(cs *clusterSys, cli *dist.Client, qs []query.Query) (float64, int, error) {
	var errs []float64
	for _, q := range qs {
		a, err := cli.Answer(q)
		if err != nil {
			return 0, 0, err
		}
		if !a.Predicted {
			continue
		}
		truth, _, err := cs.nodes[0].ScatterGather(q)
		if err != nil {
			return 0, 0, err
		}
		errs = append(errs, relErr(a.Value, truth.Value))
	}
	slices.Sort(errs)
	return quantile(errs, 0.5), len(errs), nil
}

// probeIngest replays the run's batches through the write path's lower
// layers: ingest.Log.Append and Sync on a temporary WAL with the same
// policy (one fsync per batch), the bytes the log holds per byte of
// row data, and storage.Table.AppendBatch on a reference table.
func probeIngest(m metricSet, sp spec, rows []storage.Row, batches [][]storage.Row) error {
	n := min(len(batches), 60)
	dir := filepath.Join(sp.Tmp, "wal-probe")
	// A sync policy the probe drives itself, so append and fsync are
	// timed apart.
	l, err := ingest.Open(dir, ingest.Options{SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	var appendNS, syncNS int64
	var userBytes int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := l.Append(uint64(i+1), batches[i]); err != nil {
			l.Close()
			return err
		}
		t1 := time.Now()
		if err := l.Sync(); err != nil {
			l.Close()
			return err
		}
		appendNS += t1.Sub(t0).Nanoseconds()
		syncNS += time.Since(t1).Nanoseconds()
		for _, r := range batches[i] {
			userBytes += int64(8 + 8*len(r.Vec))
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	var walBytes int64
	err = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			walBytes += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	if n > 0 {
		m.set("ingest.wal_append_us", float64(appendNS)/float64(n)/1e3, "us")
		m.set("ingest.fsync_us", float64(syncNS)/float64(n)/1e3, "us")
		m.set("ingest.wal_bytes_per_user_byte", float64(walBytes)/float64(userBytes), "ratio")
	}
	ref, err := referenceTable(rows)
	if err != nil {
		return err
	}
	var appendErr error
	m.set("storage.append_us", timeEach(len(batches), func(i int) {
		if _, err := ref.AppendBatch(batches[i]); err != nil {
			appendErr = err
		}
	}), "us")
	return appendErr
}
