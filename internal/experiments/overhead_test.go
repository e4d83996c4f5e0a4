package experiments

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// steadyLats returns n latencies per arm: 100µs plus a deterministic
// sub-µs jitter, each arm's samples scaled by its factor.
func steadyLats(n int, factors [3]float64) [3][]time.Duration {
	var lats [3][]time.Duration
	for k, f := range factors {
		lats[k] = make([]time.Duration, n)
		for j := range lats[k] {
			base := 100*time.Microsecond + time.Duration(j%10)*100*time.Nanosecond
			lats[k][j] = time.Duration(float64(base) * f)
		}
	}
	return lats
}

func TestEstimateOverheadRecoversShift(t *testing.T) {
	o := estimateOverhead(4, steadyLats(3000, [3]float64{1, 1.03, 1}))
	if o.Pairs != 3000 {
		t.Fatalf("pairs = %d, want 3000", o.Pairs)
	}
	if got := o.BaselineQPS / o.TreatedQPS; math.Abs(got-1.03) > 1e-9 {
		t.Errorf("baseline/treated QPS = %.6f, want 1.03", got)
	}
	if want := 100 * (1 - 1/1.03); math.Abs(o.OverheadPct-want) > 1e-6 {
		t.Errorf("overhead = %.4f%%, want %.4f%%", o.OverheadPct, want)
	}
	if math.Abs(o.NullPct) > 1e-9 {
		t.Errorf("null = %.4f%%, want 0", o.NullPct)
	}
	// Closed loop: 4 workers at a ~100.45µs mean serve ~39.8k QPS.
	if want := 4 / 100.45e-6; math.Abs(o.BaselineQPS-want)/want > 1e-6 {
		t.Errorf("baseline = %.0f QPS, want %.0f", o.BaselineQPS, want)
	}
}

func TestEstimateOverheadClipsOutlier(t *testing.T) {
	lats := steadyLats(3000, [3]float64{1, 1, 1})
	lats[1][1234] = time.Second // one stall, 10^4 times a request
	o := estimateOverhead(4, lats)
	if math.Abs(o.OverheadPct) > 0.01 {
		t.Errorf("one outlier moved the overhead to %.3f%%", o.OverheadPct)
	}
	if math.Abs(o.NullPct) > 1e-9 {
		t.Errorf("null = %.4f%%, want 0", o.NullPct)
	}
}

// countingArms returns three arms that count their calls and, per
// request, record the position each arm ran in.
func countingArms(n int, calls *[3]atomic.Int64, pos *[3][3]atomic.Int64) [3]func(int) error {
	seen := make([]atomic.Int64, n)
	var arms [3]func(int) error
	for k := range arms {
		arms[k] = func(j int) error {
			calls[k].Add(1)
			pos[k][(seen[j].Add(1)-1)%3].Add(1)
			return nil
		}
	}
	return arms
}

func TestDriveArmsBalancesOrder(t *testing.T) {
	const n = 600
	var calls [3]atomic.Int64
	var pos [3][3]atomic.Int64
	lats, err := driveArms(3, 0, n, countingArms(n, &calls, &pos))
	if err != nil {
		t.Fatal(err)
	}
	for k := range lats {
		if len(lats[k]) != n || calls[k].Load() != n {
			t.Errorf("arm %d: %d latencies, %d calls, want %d", k, len(lats[k]), calls[k].Load(), n)
		}
		for p := range pos[k] {
			if got := pos[k][p].Load(); got != n/3 {
				t.Errorf("arm %d ran in position %d %d times, want %d", k, p, got, n/3)
			}
		}
	}
}

func TestPairedOverheadSamplesAndErrors(t *testing.T) {
	const n = 480
	var calls [3]atomic.Int64
	var pos [3][3]atomic.Int64
	arms := countingArms(n, &calls, &pos)
	o, err := pairedOverhead(2, n, arms[0], arms[1], arms[2])
	if err != nil {
		t.Fatal(err)
	}
	if o.Pairs != n {
		t.Errorf("pairs = %d, want %d", o.Pairs, n)
	}
	for k := range calls {
		// The discarded warm-up block adds n/4 calls per arm.
		if got := calls[k].Load(); got != n+n/4 {
			t.Errorf("arm %d called %d times, want %d", k, got, n+n/4)
		}
	}

	boom := errors.New("boom")
	failing := func(j int) error {
		if j == 7 {
			return boom
		}
		return nil
	}
	ok := func(int) error { return nil }
	if _, err := pairedOverhead(2, n, ok, failing, ok); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}
