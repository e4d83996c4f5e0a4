package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"time"

	"repro/internal/trace"
)

// The traced run records a span around every layer call the benchmark
// makes, and grafts under it the span trees the program already returns
// (?trace=1 query responses, traced ingest responses, forced pool
// traces). Spans stay in memory until the run ends.

// span is one recorded interval. Parent indexes the same recorder's
// spans (-1 for a request root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// recorder holds one client's spans; it is not shared between
// goroutines. Every traced request pays for its spans, but only one
// request in every keeps them, which bounds the run's memory; an odd
// stride samples both kinds of a workload that alternates two.
type recorder struct {
	spans []span
	every int
	on    bool
}

// request starts request i; its spans are kept when i is sampled.
func (r *recorder) request(i int) { r.on = r.every <= 1 || i%r.every == 0 }

// add records a span of the current request and returns its index.
func (r *recorder) add(name string, req int64, parent int32, start, end time.Time) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: start.UnixNano(), End: end.UnixNano()})
	return int32(len(r.spans) - 1)
}

// merge appends o's spans.
func (r *recorder) merge(o *recorder) {
	base := int32(len(r.spans))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// graft records a program-returned span tree under parent.
func (r *recorder) graft(w *trace.WireSpan, req int64, parent int32) {
	if !r.on || w == nil || w.StartNs == 0 {
		return
	}
	r.spans = append(r.spans, span{Name: w.Name, Req: req, Parent: parent, Start: w.StartNs, End: w.StartNs + w.DurNs})
	self := int32(len(r.spans) - 1)
	for i := range w.Children {
		r.graft(&w.Children[i], req, self)
	}
}

// layerOf maps span names, the benchmark's and the program's, to the
// ledger's layers. Names not listed land in "other".
var layerOf = map[string]string{
	"encode":            "client_wire",
	"decode":            "client_wire",
	"http":              "transport",
	"forward":           "forward",
	"sched_wait":        "sched_wait",
	"query":             "pool",
	"singleflight_wait": "pool",
	"cache_lookup":      "cache",
	"try_predict":       "predict",
	"agent_answer":      "oracle",
	"oracle":            "oracle",
	"fallback":          "oracle",
	"index_assign":      "oracle",
	"local_scan":        "scan",
	"partial_rpc":       "rpc",
	"partials":          "holder",
	"merge":             "merge",
	"ingest":            "ingest",
	"part":              "ingest",
	"wal_append":        "wal",
	"absorb":            "absorb",
	"replicate":         "replicate",
}

// readLayers and writeLayers are the ledger rows reported for query
// requests and ingest batches.
var (
	readLayers  = []string{"client_wire", "transport", "forward", "sched_wait", "pool", "cache", "predict", "oracle", "scan", "rpc", "holder", "merge", "other"}
	writeLayers = []string{"client_wire", "transport", "forward", "ingest", "wal", "absorb", "replicate", "other"}
)

// ledger is the mean per-request decomposition of one request type.
// Every instant of a request is charged to the innermost spans open at
// that instant, split evenly when several run in parallel, so each
// layer's share is its self time with parallel work divided, and the
// shares plus the residual (instants only the root covers) add up to
// the end-to-end time.
type ledger struct {
	requests int
	e2eUS    float64
	selfUS   map[string]float64
	residual float64
}

// buildLedger decomposes every request rooted at a span named root.
func buildLedger(recs []*recorder, root string) ledger {
	l := ledger{selfUS: make(map[string]float64)}
	for _, r := range recs {
		kids := make([][]int32, len(r.spans))
		for i, s := range r.spans {
			if s.Parent >= 0 {
				kids[s.Parent] = append(kids[s.Parent], int32(i))
			}
		}
		for i, s := range r.spans {
			if s.Parent < 0 && s.Name == root {
				l.requests++
				l.e2eUS += float64(s.End-s.Start) / 1e3
				l.charge(r.spans, kids, int32(i))
			}
		}
	}
	if l.requests == 0 {
		return l
	}
	n := float64(l.requests)
	l.e2eUS /= n
	l.residual = l.selfUS[""] / n
	delete(l.selfUS, "")
	for k := range l.selfUS {
		l.selfUS[k] /= n
	}
	return l
}

// charge adds one request's wall time, instant by instant, to the
// layers of the innermost open spans ("" for the root itself).
func (l *ledger) charge(spans []span, kids [][]int32, root int32) {
	// The request's spans, each clipped to its parent's interval.
	ids := []int32{root}
	lo := map[int32]int64{root: spans[root].Start}
	hi := map[int32]int64{root: spans[root].End}
	for k := 0; k < len(ids); k++ {
		p := ids[k]
		for _, c := range kids[p] {
			lo[c], hi[c] = max(spans[c].Start, lo[p]), min(spans[c].End, hi[p])
			ids = append(ids, c)
		}
	}
	var cuts []int64
	for _, id := range ids {
		if hi[id] > lo[id] {
			cuts = append(cuts, lo[id], hi[id])
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	open := func(id int32, a, b int64) bool { return lo[id] <= a && hi[id] >= b && hi[id] > lo[id] }
	var leaves []int32
	for j := 0; j+1 < len(cuts); j++ {
		a, b := cuts[j], cuts[j+1]
		leaves = leaves[:0]
		for _, id := range ids {
			if !open(id, a, b) {
				continue
			}
			inner := false
			for _, c := range kids[id] {
				inner = inner || open(c, a, b)
			}
			if !inner {
				leaves = append(leaves, id)
			}
		}
		share := float64(b-a) / 1e3 / float64(len(leaves))
		for _, id := range leaves {
			layer := ""
			if id != root {
				var ok bool
				if layer, ok = layerOf[spans[id].Name]; !ok {
					layer = "other"
				}
			}
			l.selfUS[layer] += share
		}
	}
}

// writeSpans writes every recorded span, one JSON object per line.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerMetrics adds a ledger's rows under prefix.
func ledgerMetrics(m metricSet, prefix string, l ledger, layers []string) {
	m.set(prefix+"e2e_us", l.e2eUS, "us")
	for _, layer := range layers {
		m.set(prefix+layer+"_self_us", l.selfUS[layer], "us")
	}
	m.set(prefix+"residual_us", l.residual, "us")
	frac := 0.0
	if l.e2eUS > 0 {
		frac = l.residual / l.e2eUS
	}
	m.set(prefix+"residual_frac", frac, "ratio")
}
