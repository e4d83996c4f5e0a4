package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// stream is one source of operations in a window: a closed-loop client
// or the open-loop writer. It records each completed operation's
// latency.
type stream struct {
	lat    []uint32 // nanoseconds, in completion order
	cuts   []int    // len(lat) at each slice boundary passed
	failed int64
	_      [64]byte // keeps streams on separate cache lines
}

func newStream(capHint int) *stream {
	return &stream{lat: make([]uint32, 0, capHint), cuts: make([]int, 0, 64)}
}

// done records an operation that completed at end after taking d. It
// reports false once end is past the window; that operation is not
// recorded and the stream should stop.
func (s *stream) done(end time.Time, d time.Duration, err error, w *window) bool {
	for len(s.cuts) < len(w.cuts) && !end.Before(w.cuts[len(s.cuts)]) {
		s.cuts = append(s.cuts, len(s.lat))
	}
	if !end.Before(w.end) {
		return false
	}
	if err != nil {
		s.failed++
		return true
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	s.lat = append(s.lat, uint32(d))
	return true
}

// slice returns the latencies recorded in slice i.
func (s *stream) slice(i int) []uint32 {
	from := 0
	if i > 0 {
		from = s.cuts[i-1]
	}
	return s.lat[from:s.cuts[i]]
}

// closedLoop runs one client that sends request i+1 only after request
// i returned, until the window ends.
func closedLoop(s *stream, w *window, do func(i int) error) {
	for i := 0; ; i++ {
		t0 := time.Now()
		err := do(i)
		t1 := time.Now()
		if !s.done(t1, t1.Sub(t0), err, w) {
			return
		}
	}
}

// pacedLoop runs one client that sends request i at w.start + at[i],
// or at once if that time has passed, until the window ends. The load
// it offers is fixed by the schedule, not by how fast answers come
// back. Each request is timed from when it was sent; it returns how
// late (ns) each request was sent after its due time.
func pacedLoop(s *stream, w *window, at []time.Duration, do func(i int) error) []uint32 {
	late := make([]uint32, 0, len(at))
	for i, off := range at {
		due := w.start.Add(off)
		if !due.Before(w.end) {
			break
		}
		time.Sleep(time.Until(due))
		t0 := time.Now()
		late = append(late, uint32(min(t0.Sub(due), time.Second)))
		err := do(i)
		t1 := time.Now()
		if !s.done(t1, t1.Sub(t0), err, w) {
			return late
		}
	}
	s.done(w.end, 0, nil, w) // closes the remaining slices
	return late
}

// window is a measured phase of fixed length, cut into slices. While it
// runs, a monitor reads the process's CPU time and allocation counters
// at every slice boundary; once the load has stopped, the live heap is
// read after a forced collection.
type window struct {
	start, end  time.Time
	cuts        []time.Time // slice boundaries, the last one at end
	heapEnd     uint64
	sliceCPU    []time.Duration
	sliceAllocs []uint64 // heap allocations per slice
	sliceBytes  []uint64 // heap bytes allocated per slice
}

// newWindow lays out a window of length d starting shortly from now,
// cut into slices of sliceLen.
func newWindow(d time.Duration) *window {
	start := time.Now().Add(5 * time.Millisecond)
	w := &window{start: start, end: start.Add(d)}
	n := max(1, int(d/sliceLen))
	for i := 1; i <= n; i++ {
		w.cuts = append(w.cuts, start.Add(d*time.Duration(i)/time.Duration(n)))
	}
	return w
}

// sliceLen is the length of the slices a window is cut into.
const sliceLen = time.Second

func (w *window) sliceDur() time.Duration { return w.end.Sub(w.start) / time.Duration(len(w.cuts)) }

// run runs every load function concurrently (each returns when the
// window is over) and waits for all of them and for the monitor.
func (w *window) run(loads ...func()) {
	runtime.GC()
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		w.monitor()
	}()
	var wg sync.WaitGroup
	wg.Add(len(loads))
	for _, l := range loads {
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(w.start))
			l()
		}()
	}
	wg.Wait()
	<-monDone
	w.heapEnd = liveHeap()
}

// monitor reads the counters at the window's start and slice
// boundaries.
func (w *window) monitor() {
	var ms runtime.MemStats
	time.Sleep(time.Until(w.start))
	prevCPU := cpuTime()
	runtime.ReadMemStats(&ms)
	prevAllocs, prevBytes := ms.Mallocs, ms.TotalAlloc
	for _, c := range w.cuts {
		time.Sleep(time.Until(c))
		now := cpuTime()
		runtime.ReadMemStats(&ms)
		w.sliceCPU = append(w.sliceCPU, now-prevCPU)
		w.sliceAllocs = append(w.sliceAllocs, ms.Mallocs-prevAllocs)
		w.sliceBytes = append(w.sliceBytes, ms.TotalAlloc-prevBytes)
		prevCPU, prevAllocs, prevBytes = now, ms.Mallocs, ms.TotalAlloc
	}
}

// liveHeap collects garbage and returns the live heap in bytes. A
// workload reads it once its inputs are made and before it builds the
// system, and keeps the inputs live until the window has ended;
// heap_peak_mb is the live heap at the window's end above it: the
// program's memory, not the benchmark's pre-generated inputs. No
// workload frees retained memory during its window (caches stay full,
// ingested rows accumulate), so the end is the peak of what the
// program retains; a collection forced after the load has stopped
// counts no garbage that happened to be live while a cycle ran.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// e2e is the end-to-end summary of a window. Queries are the
// latency-bearing reads; ops also count writes, and are the base of
// the per-operation figures.
type e2e struct {
	qps, p50us, p95us, p99us, p999us, cpuPerOp, allocsPerOp, bytesPerOp, heapPeakMB float64
	// The window's allocations over its operations.
	allocsPerOpAll, bytesPerOpAll float64
	queries, ops, failed          int64
}

// summarize reduces a window. readers are the query streams; others
// (the writer) only add operations.
//
// Throughput, median and 95th-percentile latency, and CPU and heap
// allocations per operation are taken per one-second slice and the
// median over slices is reported, so a second disturbed by a neighbour
// on the machine, or by a burst of rare expensive operations (exact
// fallbacks), moves them little; allocsPerOpAll and bytesPerOpAll
// divide the window's totals instead. p99 and p99.9 pool every sample
// of the window, since a slice holds too few.
func (w *window) summarize(readers, others []*stream) e2e {
	var out e2e
	var lat []uint32
	for _, s := range readers {
		lat = append(lat, s.lat...)
		out.failed += s.failed
	}
	out.queries = int64(len(lat))
	out.ops = out.queries
	for _, s := range others {
		out.ops += int64(len(s.lat))
		out.failed += s.failed
	}
	slices.Sort(lat)
	out.p99us = float64(quantile(lat, 0.99)) / 1e3
	out.p999us = float64(quantile(lat, 0.999)) / 1e3
	var qps, p50, p95, cpu, allocs, bytes []float64
	var allocsAll, bytesAll uint64
	for i := range w.cuts {
		allocsAll += w.sliceAllocs[i]
		bytesAll += w.sliceBytes[i]
		var sl []uint32
		for _, s := range readers {
			sl = append(sl, s.slice(i)...)
		}
		ops := len(sl)
		for _, s := range others {
			ops += len(s.slice(i))
		}
		slices.Sort(sl)
		qps = append(qps, float64(len(sl))/w.sliceDur().Seconds())
		if len(sl) > 0 {
			p50 = append(p50, float64(quantile(sl, 0.5))/1e3)
			p95 = append(p95, float64(quantile(sl, 0.95))/1e3)
		}
		if ops > 0 {
			cpu = append(cpu, float64(w.sliceCPU[i].Nanoseconds())/1e3/float64(ops))
			allocs = append(allocs, float64(w.sliceAllocs[i])/float64(ops))
			bytes = append(bytes, float64(w.sliceBytes[i])/float64(ops))
		}
	}
	out.qps, out.p50us, out.p95us, out.cpuPerOp = median(qps), median(p50), median(p95), median(cpu)
	out.allocsPerOp, out.bytesPerOp = median(allocs), median(bytes)
	if out.ops > 0 {
		out.allocsPerOpAll = float64(allocsAll) / float64(out.ops)
		out.bytesPerOpAll = float64(bytesAll) / float64(out.ops)
	}
	// The streams' latency buffers are the benchmark's, not the
	// program's.
	var own uint64
	for _, s := range slices.Concat(readers, others) {
		own += uint64(4*cap(s.lat) + 8*cap(s.cuts))
	}
	out.heapPeakMB = (float64(w.heapEnd) - float64(own)) / (1 << 20)
	return out
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile[T ~uint32 | ~float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latQuantileUS returns the q-quantile of latencies pooled over
// streams, in microseconds.
func latQuantileUS(q float64, ss ...*stream) float64 {
	var lat []uint32
	for _, s := range ss {
		lat = append(lat, s.lat...)
	}
	slices.Sort(lat)
	return float64(quantile(lat, q)) / 1e3
}

// timeEach times fn over n calls and returns the mean in microseconds.
func timeEach(n int, fn func(i int)) float64 {
	if n <= 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n) / 1e3
}
