package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workload"
)

// E20Row is one row of the flight-recorder scenario: what does
// always-on metric history cost at serving speed, and does an induced
// overload leave behind a queryable latency ramp, a fired anomaly, and
// a complete diagnostic bundle — exactly one per cooldown window.
type E20Row struct {
	Rows  int `json:"rows"`
	Nodes int `json:"nodes"`

	// Overhead: the E17 repeat-heavy stream served with the recorder
	// off versus sampling at an aggressive 100ms period (10x production
	// rate — an upper bound on the 1s default).
	Series int `json:"series"`
	Overhead

	// Overload narrative (synthetic tick clock, one coordinator).
	WarmTicks     int     `json:"warm_ticks"`
	OverloadTicks int     `json:"overload_ticks"`
	Anomalies     int     `json:"anomalies"`
	AnomalyMetric string  `json:"anomaly_metric"`
	AnomalyZ      float64 `json:"anomaly_z"`
	// SLOState is the coordinator's worst class at the end of the
	// overload (2 = critical: the SLO trigger had independent cause).
	SLOState int `json:"slo_state"`
	// TriggersFirstWindow counts bundles captured inside the first
	// cooldown window (must be exactly 1) and Triggers the total after
	// the clock jumps past the cooldown (must be 2).
	TriggersFirstWindow int64 `json:"triggers_first_window"`
	Triggers            int64 `json:"triggers"`
	Suppressed          int64 `json:"suppressed"`
	// Bundle completeness: files in the first bundle, and whether every
	// expected artifact was present and non-empty.
	BundleFiles    int  `json:"bundle_files"`
	BundleComplete bool `json:"bundle_complete"`
	// History replay: hi- and lo-resolution point counts for
	// lat_p99_all over the incident, and the late/early latency ratio
	// in the hi-res window (the ramp; must be >> 1).
	HiPoints  int     `json:"hi_points"`
	LoPoints  int     `json:"lo_points"`
	RampRatio float64 `json:"ramp_ratio"`
	// ExemplarTraceID is a trace id carried by an overload-window
	// history point (satellite: history points link to exemplar traces).
	ExemplarTraceID string `json:"exemplar_trace_id"`
}

// E20FlightRecorder runs the flight-recorder scenario end to end.
//
// Overhead: three E17 fixtures serve the fast-path stream through the
// paired harness (pairedOverhead); the treated one has a recorder
// attached, sampling every registered series at 100ms. 100ms is 10x
// the production sampling rate; at 50x the tick's reads of hot
// histogram cache lines alone cost ~1.5% — see DESIGN.md for the
// measured scaling.
//
// Narrative: a 3-node cluster runs with manual-tick flight recorders
// (FlightSample < 0) and a tight SLO. A warm phase of repeated cached
// queries establishes ~70 one-second ticks of steady history; an
// overload phase of unique whole-space scatter queries then drives
// p99 up three orders of magnitude. The detector must fire, the SLO
// engine must reach critical, exactly one bundle must land inside the
// cooldown window (later firings suppressed, counted), and a tick-
// clock jump past the cooldown must admit exactly one more. The
// latency ramp must replay from /v1/history at both resolutions, with
// an exemplar trace id on overload points.
func E20FlightRecorder(nRows, training, n int) (E20Row, error) {
	row := E20Row{Rows: nRows, Nodes: 3}

	// --- Overhead: recorder off vs sampling every 100ms. ---
	fx, arms, stop, err := fixtureArms(nRows, training, dashboardCatalog(400))
	if err != nil {
		return row, err
	}
	fr := flight.New(flight.Config{Period: 100 * time.Millisecond, HiSlots: 256, LoSlots: 64})
	fr.Instrument(fx[1].Pool.Recorder())
	fx[1].Pool.EnableFlight(fr)
	row.Series = len(fr.Metrics())
	fr.Start()
	row.Overhead, err = pairedOverhead(fixtureClients, n, arms[0], arms[1], arms[2])
	fr.Stop()
	stop()
	if err != nil {
		return row, err
	}
	// The narrative times latencies: collect the fixtures now, not
	// mid-phase.
	runtime.GC()

	// --- Narrative: induced overload on a synthetic tick clock. ---
	spool, err := os.MkdirTemp("", "e20-spool-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(spool)
	ccfg := core.DefaultConfig(2)
	ccfg.TrainingQueries = 1 << 30 // exact-path cluster: every miss scatters
	lc, err := dist.StartLocal(row.Nodes, dist.Config{
		Agent:        ccfg,
		Replicas:     2,
		Flight:       true,
		FlightSample: -1, // manual ticks: the experiment owns the clock
		FlightSpool:  spool,
		Anomaly:      true,
		TraceSample:  1, // every query traced: exemplars on every window
		SLO: &metrics.SLOConfig{
			// Tight objective, loose budget: about 1% of cached warm
			// answers take over 50us, while every all-miss overload
			// scatter takes longer (at 100us, 30-70% of them came in
			// under on a fast 2-core box), so the overload burns at
			// 1/0.2 = 5x — between WarnBurn and CritBurn only one phase
			// can sit.
			LatencyObjective: 50 * time.Microsecond,
			LatencyBudget:    0.2,
			FastWindow:       30 * time.Second,
			SlowWindow:       2 * time.Minute,
			WarnBurn:         2,
			CritBurn:         4,
			Interval:         time.Hour, // background ticker parked; Tick() is ours
		},
	}, workload.StandardRows(nRows/4, 7))
	if err != nil {
		return row, err
	}
	defer lc.Close()
	coord := lc.Node(lc.IDs()[0])
	base := lc.URL(lc.IDs()[0])

	post := func(req serve.QueryRequest) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("E20: query HTTP %d", resp.StatusCode)
		}
		return nil
	}
	warmQ := serve.QueryRequest{Agg: "count", Los: []float64{20, 20}, His: []float64{30, 30}}
	uniqueQ := func(i int) serve.QueryRequest {
		// Unique whole-space selections: cache misses that scatter
		// across every partition holder.
		return serve.QueryRequest{Agg: "count",
			Los: []float64{-1e9 + float64(i), -1e9}, His: []float64{1e9, 1e9}}
	}
	now := time.Now()
	tick := func() {
		now = now.Add(time.Second)
		coord.SLO().Tick(now)
		coord.Flight().Tick(now)
	}

	// Prime before the first tick. lat_p99_all is a cumulative p99, so
	// the one cold answer (a cache-miss scatter) would otherwise hold it
	// at cold-start level until the warm stream makes up 100 samples,
	// leaving much of the detector's window there, and a stall or two
	// more tips the window median so the overload cannot stand out.
	// Thousands of samples also keep the warm p99 from drifting across
	// a histogram bucket while the detector scores the last warm ticks.
	// Primes land before the first SLO sample, so no burn window
	// counts them.
	for i := 0; i < 5000; i++ {
		if err := post(warmQ); err != nil {
			return row, err
		}
	}
	row.WarmTicks = 70 // fills the 60-tick detector window with steady state
	for t := 0; t < row.WarmTicks; t++ {
		for i := 0; i < 3; i++ {
			if err := post(warmQ); err != nil {
				return row, err
			}
		}
		tick()
	}
	if evs := coord.Flight().Anomalies(); len(evs) != 0 {
		return row, fmt.Errorf("E20: warm phase fired %d anomalies, first on %s (z=%.1f)",
			len(evs), evs[0].Metric, evs[0].Z)
	}

	row.OverloadTicks = 65
	seq := 0
	for t := 0; t < row.OverloadTicks; t++ {
		for i := 0; i < 4; i++ {
			if err := post(uniqueQ(seq)); err != nil {
				return row, err
			}
			seq++
		}
		tick()
	}
	coord.Flight().Flush()

	evs := coord.Flight().Anomalies()
	row.Anomalies = len(evs)
	if row.Anomalies == 0 {
		return row, fmt.Errorf("E20: overload fired no anomaly")
	}
	row.AnomalyMetric, row.AnomalyZ = evs[0].Metric, evs[0].Z
	row.SLOState = coord.SLO().WorstState()
	if row.SLOState != 2 {
		fast, slow := coord.SLO().WorstBurn()
		return row, fmt.Errorf("E20: overload did not reach SLO-critical (state %d, burn fast %.1f slow %.1f)",
			row.SLOState, fast, slow)
	}
	st := coord.Flight().Status()
	row.TriggersFirstWindow = st.Triggers
	row.Suppressed = st.SuppressedTrigger
	if row.TriggersFirstWindow != 1 {
		return row, fmt.Errorf("E20: %d bundles inside one cooldown window, want 1", row.TriggersFirstWindow)
	}
	if row.Suppressed == 0 {
		return row, fmt.Errorf("E20: sustained overload suppressed no re-firings")
	}

	// Jump the tick clock past the cooldown: the still-critical SLO must
	// admit exactly one more capture.
	now = now.Add(6 * time.Minute)
	for t := 0; t < 3; t++ {
		for i := 0; i < 2; i++ {
			if err := post(uniqueQ(seq)); err != nil {
				return row, err
			}
			seq++
		}
		tick()
	}
	coord.Flight().Flush()
	row.Triggers = coord.Flight().Status().Triggers
	if row.Triggers != 2 {
		return row, fmt.Errorf("E20: %d bundles after cooldown expiry, want 2", row.Triggers)
	}

	// Bundle completeness, over the API the operator would use.
	bundles := coord.Flight().Bundles()
	if len(bundles) != 2 {
		return row, fmt.Errorf("E20: spool holds %d bundles, want 2", len(bundles))
	}
	row.BundleFiles = len(bundles[0].Files)
	row.BundleComplete = true
	for _, file := range []string{
		"meta.json", "goroutines.txt", "cpu.pprof", "heap.pprof",
		"traces.json", "status.json",
	} {
		p, err := coord.Flight().BundleFile(bundles[0].ID, file)
		if err != nil {
			return row, fmt.Errorf("E20: bundle missing %s: %v", file, err)
		}
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			return row, fmt.Errorf("E20: bundle file %s empty", file)
		}
	}
	resp, err := http.Get(base + "/v1/debug/bundles")
	if err != nil {
		return row, err
	}
	var listing struct {
		Bundles []flight.BundleInfo `json:"bundles"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil || len(listing.Bundles) != 2 {
		return row, fmt.Errorf("E20: /v1/debug/bundles listed %d bundles (err=%v)", len(listing.Bundles), err)
	}

	// History replay at both resolutions.
	fetchHist := func(window string) (flight.History, error) {
		var h flight.History
		resp, err := http.Get(base + "/v1/history?metric=lat_p99_all&window=" + window)
		if err != nil {
			return h, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return h, fmt.Errorf("E20: history HTTP %d", resp.StatusCode)
		}
		return h, json.NewDecoder(resp.Body).Decode(&h)
	}
	hi, err := fetchHist("10m")
	if err != nil {
		return row, err
	}
	row.HiPoints = len(hi.Points)
	if row.HiPoints < row.WarmTicks+row.OverloadTicks {
		return row, fmt.Errorf("E20: hi-res history replays %d points, want >= %d",
			row.HiPoints, row.WarmTicks+row.OverloadTicks)
	}
	// Ramp: pre-incident baseline (the last warm ticks, after the
	// cumulative p99 has settled) versus the incident peak (the last
	// overload ticks). Manual ticks map 1:1 onto hi-res points.
	const span = 10
	var preIncident, peak float64
	for i := 0; i < span; i++ {
		preIncident += hi.Points[row.WarmTicks-1-i].V
		peak += hi.Points[row.HiPoints-1-i].V
	}
	if preIncident <= 0 {
		return row, fmt.Errorf("E20: warm-phase latency history is empty")
	}
	row.RampRatio = peak / preIncident
	if row.RampRatio < 3 {
		return row, fmt.Errorf("E20: latency ramp not visible in history (ratio %.2f)", row.RampRatio)
	}
	for i := row.HiPoints - row.HiPoints/3; i < row.HiPoints; i++ {
		if id := hi.Points[i].TraceID; id != "" {
			row.ExemplarTraceID = id
			break
		}
	}
	if row.ExemplarTraceID == "" {
		return row, fmt.Errorf("E20: no exemplar trace id on overload-window points")
	}

	lo, err := fetchHist("6h")
	if err != nil {
		return row, err
	}
	row.LoPoints = len(lo.Points)
	if row.LoPoints < 3 {
		return row, fmt.Errorf("E20: lo-res history replays %d points, want >= 3", row.LoPoints)
	}
	// The overload must be visible even at 30-tick resolution: the
	// newest window has to clear the quietest warm window by 2x. (The
	// first window is not a usable baseline — it folds in the cold-start
	// exact scatter, which inflates the cumulative p99 for a while.)
	quietest := lo.Points[0].V
	for _, p := range lo.Points[:row.LoPoints-1] {
		if p.V < quietest {
			quietest = p.V
		}
	}
	if lo.Points[row.LoPoints-1].V < 2*quietest {
		return row, fmt.Errorf("E20: lo-res history does not show the ramp: %+v", lo.Points)
	}
	return row, nil
}
