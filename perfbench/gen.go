package main

import (
	"math/rand"
	"time"

	"repro/internal/query"
	"repro/internal/storage"
)

// The benchmark generates its own inputs from the seed it is given. The
// shapes follow the repository's standard dataset and analyst streams
// (a four-blob Gaussian mixture on [0,100]^2 with z = 2x + 5 + noise,
// and queries concentrated on two interest regions), but the code lives
// here, so a change to the program's own generators cannot change what
// this benchmark measures.

// newRNG returns the generator every input of a run is drawn from.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// partitions is the data-partition count of every cluster the benchmark
// starts, and of the reference tables its answers are checked against.
const partitions = 12

// mixture is the data distribution: equal-weight blobs with std-dev 8.
var mixture = [][2]float64{{25, 25}, {75, 75}, {25, 75}, {75, 25}}

const blobStd = 8

// region is one analyst interest region: query centres spread around
// (cx, cy) and extents near extent, scaled by 1 ± jitter.
type region struct {
	cx, cy, spread, extent, jitter, weight float64
}

// interestRegions sit on two of the mixture's blobs, sized so a query
// selects about 1-5% of the rows.
var interestRegions = []region{
	{cx: 25, cy: 25, spread: 4, extent: 6, jitter: 0.5, weight: 0.6},
	{cx: 75, cy: 75, spread: 4, extent: 6, jitter: 0.5, weight: 0.4},
}

// coldRegions sit on the two blobs no workload's queries visit: queries
// there find no trained model, so they take the exact fallback.
var coldRegions = []region{
	{cx: 25, cy: 75, spread: 4, extent: 6, jitter: 0.5, weight: 0.5},
	{cx: 75, cy: 25, spread: 4, extent: 6, jitter: 0.5, weight: 0.5},
}

// genRow draws one (x, y, z) row from the mixture.
func genRow(rng *rand.Rand, key uint64) storage.Row {
	c := mixture[rng.Intn(len(mixture))]
	x := c[0] + rng.NormFloat64()*blobStd
	y := c[1] + rng.NormFloat64()*blobStd
	z := 2*x + 5 + rng.NormFloat64()
	return storage.Row{Key: key, Vec: []float64{x, y, z}}
}

// genBaseRows draws n base rows. A cluster loads row i into partition
// i mod partitions, while a storage.Table places a row by the hash of
// its key; each row gets the smallest unused key whose hash lands in
// the partition its position implies, so a reference table built from
// these rows holds every partition's rows in the cluster's order and
// its sums associate exactly as the cluster's do.
func genBaseRows(rng *rand.Rand, n int) []storage.Row {
	rows := make([]storage.Row, n)
	next := make([]uint64, partitions)
	for i := range rows {
		p := uint64(i % partitions)
		k := next[p]
		for storage.MixKey(k)%partitions != p {
			k++
		}
		next[p] = k + 1
		rows[i] = genRow(rng, k)
	}
	return rows
}

// ingestKeyBase keeps ingested keys clear of every base key.
const ingestKeyBase = 1 << 40

// genBatches draws n ingest batches of size rows each, with fresh keys.
func genBatches(rng *rand.Rand, n, size int) [][]storage.Row {
	out := make([][]storage.Row, n)
	key := uint64(ingestKeyBase)
	for b := range out {
		out[b] = make([]storage.Row, size)
		for i := range out[b] {
			out[b][i] = genRow(rng, key)
			key++
		}
	}
	return out
}

// genQuery draws one query with the given aggregate from regions;
// radiusFrac is the share of radius (vs range) selections. SUM, AVG and
// VAR aggregate column z.
func genQuery(rng *rand.Rand, regions []region, agg query.Agg, radiusFrac float64) query.Query {
	var total float64
	for _, r := range regions {
		total += r.weight
	}
	reg := regions[len(regions)-1]
	target, cum := rng.Float64()*total, 0.0
	for _, r := range regions {
		cum += r.weight
		if target <= cum {
			reg = r
			break
		}
	}
	cx := reg.cx + rng.NormFloat64()*reg.spread
	cy := reg.cy + rng.NormFloat64()*reg.spread
	extent := reg.extent * (1 + (rng.Float64()*2-1)*reg.jitter)
	var sel query.Selection
	if rng.Float64() < radiusFrac {
		sel = query.Selection{Center: []float64{cx, cy}, Radius: extent}
	} else {
		sel = query.Selection{Los: []float64{cx - extent, cy - extent}, His: []float64{cx + extent, cy + extent}}
	}
	q := query.Query{Select: sel, Aggregate: agg, Col: 0, Col2: 1}
	if agg != query.Count {
		q.Col = 2
	}
	return q
}

// querySlab holds many queries' selections in one flat array, so a run
// can use millions of distinct queries without a heap object per query:
// at(i) builds query i on the stack, its slices pointing into the slab.
type querySlab struct {
	agg    query.Agg
	coords []float64 // 5 per query: lo/hi corners, or centre and radius
}

// genSlab draws n queries of one aggregate into a slab.
func genSlab(rng *rand.Rand, n int, agg query.Agg, radiusFrac float64) *querySlab {
	s := &querySlab{agg: agg, coords: make([]float64, 0, 5*n)}
	for i := 0; i < n; i++ {
		q := genQuery(rng, interestRegions, agg, radiusFrac)
		if q.Select.IsRadius() {
			s.coords = append(s.coords, q.Select.Center[0], q.Select.Center[1], 0, 0, q.Select.Radius)
		} else {
			s.coords = append(s.coords, q.Select.Los[0], q.Select.Los[1], q.Select.His[0], q.Select.His[1], 0)
		}
	}
	return s
}

func (s *querySlab) len() int { return len(s.coords) / 5 }

// at returns query i; it shares the slab's memory, which nothing writes.
func (s *querySlab) at(i int) query.Query {
	c := s.coords[5*i : 5*i+5 : 5*i+5]
	q := query.Query{Aggregate: s.agg, Col: 0, Col2: 1}
	if s.agg != query.Count {
		q.Col = 2
	}
	if c[4] > 0 {
		q.Select = query.Selection{Center: c[0:2:2], Radius: c[4]}
	} else {
		q.Select = query.Selection{Los: c[0:2:2], His: c[2:4:4]}
	}
	return q
}

// counts is the aggregate mix of the dashboard and ingest_mixed reads.
var counts = []query.Agg{query.Count}

// genQueries draws n interest-region queries whose aggregate is drawn
// uniformly from aggs.
func genQueries(rng *rand.Rand, n int, aggs []query.Agg, radiusFrac float64) []query.Query {
	return genQueriesIn(rng, interestRegions, n, aggs, radiusFrac)
}

// genQueriesIn draws n queries from regions, aggregates drawn
// uniformly from aggs.
func genQueriesIn(rng *rand.Rand, regions []region, n int, aggs []query.Agg, radiusFrac float64) []query.Query {
	out := make([]query.Query, n)
	for i := range out {
		out[i] = genQuery(rng, regions, aggs[rng.Intn(len(aggs))], radiusFrac)
	}
	return out
}

// genArrivals draws the send times, as offsets from a window's start,
// of a Poisson stream of the given mean rate (per second) over d.
func genArrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// wholeSpace is an exact COUNT over every row the cluster holds.
func wholeSpace() query.Query {
	return query.Query{
		Select:    query.Selection{Los: []float64{-1e9, -1e9}, His: []float64{1e9, 1e9}},
		Aggregate: query.Count,
	}
}
