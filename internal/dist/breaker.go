package dist

import (
	"sync"
	"time"
)

// Breaker state values, ordered by badness: the worst state across all
// peers feeds the sea_breaker_state gauge.
const (
	breakerClosed   = 0
	breakerHalfOpen = 1
	breakerOpen     = 2
)

// breakerConfig tunes the per-peer circuit breakers.
type breakerConfig struct {
	// minVolume is the rolling-window call count below which the
	// failure rate is not judged (a single failed call must not open a
	// breaker).
	minVolume int64
	// failureRate in [0,1] opens the breaker when the rolling window's
	// failure fraction reaches it with at least minVolume calls.
	failureRate float64
	// openFor is how long an opened breaker rejects before admitting a
	// single half-open probe.
	openFor time.Duration
}

// breakerBuckets is the rolling window length in one-second buckets.
const breakerBuckets = 10

// breaker is one peer's circuit breaker: a rolling failure-rate window
// over one-second buckets with the classic closed → open → half-open →
// closed lifecycle. Closed it counts outcomes; at failureRate over
// minVolume calls it opens and sheds every call for openFor; then it
// admits exactly one probe call — success closes it (window reset),
// failure re-opens it for another openFor.
type breaker struct {
	cfg breakerConfig

	mu       sync.Mutex
	ok       [breakerBuckets]int64
	fail     [breakerBuckets]int64
	bucketAt int64 // unix second the current bucket covers
	idx      int
	state    int
	openedAt time.Time
	probing  bool
	probedAt time.Time
}

func newBreaker(cfg breakerConfig) *breaker {
	if cfg.minVolume <= 0 {
		cfg.minVolume = 8
	}
	if cfg.failureRate <= 0 {
		cfg.failureRate = 0.5
	}
	// A rate above 1 is unreachable by construction: the breaker stays
	// permanently closed (the explicit opt-out).
	if cfg.openFor <= 0 {
		cfg.openFor = DefaultCooldown
	}
	return &breaker{cfg: cfg}
}

// advance rotates the window to cover now, zeroing skipped buckets.
// Caller holds b.mu.
func (b *breaker) advance(now time.Time) {
	sec := now.Unix()
	if b.bucketAt == 0 {
		b.bucketAt = sec
		return
	}
	steps := sec - b.bucketAt
	if steps <= 0 {
		return
	}
	if steps > breakerBuckets {
		steps = breakerBuckets
	}
	for i := int64(0); i < steps; i++ {
		b.idx = (b.idx + 1) % breakerBuckets
		b.ok[b.idx] = 0
		b.fail[b.idx] = 0
	}
	b.bucketAt = sec
}

// window sums the rolling counts. Caller holds b.mu.
func (b *breaker) window() (ok, fail int64) {
	for i := 0; i < breakerBuckets; i++ {
		ok += b.ok[i]
		fail += b.fail[i]
	}
	return ok, fail
}

// allow reports whether a call to the peer may proceed. In half-open,
// exactly one caller is admitted as the probe; everyone else sheds.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.admits(now) {
		return false
	}
	if b.state != breakerClosed {
		b.state = breakerHalfOpen
		b.probing = true
		b.probedAt = now
	}
	return true
}

// peek reports whether allow would admit a call now, without claiming
// the half-open probe slot.
func (b *breaker) peek(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.admits(now)
}

// admits is allow's decision without its side effects. An open breaker
// admits its first probe once openFor has passed; a half-open one
// sheds while its probe is out, but reclaims a slot whose holder never
// reported back (the admitted caller bailed before sending): after
// openFor the slot is considered leaked and reseated. Caller holds b.mu.
func (b *breaker) admits(now time.Time) bool {
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return now.Sub(b.openedAt) >= b.cfg.openFor
	default: // half-open
		return !b.probing || now.Sub(b.probedAt) > b.cfg.openFor
	}
}

// success records an ok call; the half-open probe's success closes the
// breaker and resets the window.
func (b *breaker) success(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(now)
	b.ok[b.idx]++
	if b.state != breakerClosed {
		b.state = breakerClosed
		b.probing = false
		for i := 0; i < breakerBuckets; i++ {
			b.ok[i], b.fail[i] = 0, 0
		}
		b.ok[b.idx] = 1
	}
}

// failure records a failed call; the half-open probe's failure re-opens
// the breaker, and a closed breaker opens at the configured rate.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(now)
	b.fail[b.idx]++
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
	case breakerClosed:
		ok, fail := b.window()
		if total := ok + fail; total >= b.cfg.minVolume &&
			float64(fail)/float64(total) >= b.cfg.failureRate {
			b.state = breakerOpen
			b.openedAt = now
		}
	}
}

// snapshot returns the current state without mutating it.
func (b *breaker) snapshot() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerStateName names a state for the status plane.
func breakerStateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
