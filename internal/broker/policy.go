package broker

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"gostats/internal/telemetry"
)

// Policy bundles the transport-robustness knobs shared by the publisher
// and consumer paths: per-operation deadlines, jittered exponential
// backoff between retries, and the circuit-breaker thresholds that keep
// a dead broker from costing more than one probe per backoff window.
// The zero value of any field means "use the default below".
type Policy struct {
	// DialTimeout bounds a single broker dial.
	DialTimeout time.Duration

	// WriteTimeout bounds writing one frame.
	WriteTimeout time.Duration

	// AckTimeout bounds waiting for a broker confirm (publisher) or a
	// consumer ack (server).
	AckTimeout time.Duration

	// BackoffMin is the delay before the first retry; each further retry
	// multiplies it by BackoffFactor up to BackoffMax, then ±Jitter
	// fraction of it is added so a fleet of nodes doesn't redial a
	// recovering broker in lockstep.
	BackoffMin    time.Duration
	BackoffMax    time.Duration
	BackoffFactor float64
	Jitter        float64

	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit; BreakerWindow is how long it stays open before admitting
	// one half-open probe (doubling per consecutive open up to
	// BreakerMaxWindow).
	BreakerThreshold int
	BreakerWindow    time.Duration
	BreakerMaxWindow time.Duration
}

// DefaultPolicy returns the production defaults.
func DefaultPolicy() Policy {
	return Policy{
		DialTimeout:      2 * time.Second,
		WriteTimeout:     5 * time.Second,
		AckTimeout:       5 * time.Second,
		BackoffMin:       50 * time.Millisecond,
		BackoffMax:       5 * time.Second,
		BackoffFactor:    2,
		Jitter:           0.2,
		BreakerThreshold: 3,
		BreakerWindow:    500 * time.Millisecond,
		BreakerMaxWindow: 30 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultPolicy.
func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.DialTimeout <= 0 {
		p.DialTimeout = d.DialTimeout
	}
	if p.WriteTimeout <= 0 {
		p.WriteTimeout = d.WriteTimeout
	}
	if p.AckTimeout <= 0 {
		p.AckTimeout = d.AckTimeout
	}
	if p.BackoffMin <= 0 {
		p.BackoffMin = d.BackoffMin
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = d.BackoffMax
	}
	if p.BackoffFactor < 1 {
		p.BackoffFactor = d.BackoffFactor
	}
	if p.Jitter <= 0 {
		p.Jitter = d.Jitter
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = d.BreakerThreshold
	}
	if p.BreakerWindow <= 0 {
		p.BreakerWindow = d.BreakerWindow
	}
	if p.BreakerMaxWindow <= 0 {
		p.BreakerMaxWindow = d.BreakerMaxWindow
	}
	return p
}

// Backoff returns the jittered delay to sleep before retry number
// attempt (1 = first retry). rng may be nil for an unjittered delay.
func (p Policy) Backoff(attempt int, rng *rand.Rand) time.Duration {
	p = p.withDefaults()
	d := float64(p.BackoffMin)
	for i := 1; i < attempt; i++ {
		d *= p.BackoffFactor
		if d >= float64(p.BackoffMax) {
			d = float64(p.BackoffMax)
			break
		}
	}
	if rng != nil && p.Jitter > 0 {
		d += d * p.Jitter * (2*rng.Float64() - 1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Breaker states, exported as the gauge values of
// gostats_publish_breaker_state.
const (
	BreakerClosed   = 0.0 // healthy: requests flow
	BreakerOpen     = 1.0 // tripped: requests fail fast until the window ends
	BreakerHalfOpen = 2.0 // probing: one request in flight decides
)

// ErrCircuitOpen is returned when the breaker is rejecting requests
// without touching the network.
var ErrCircuitOpen = errors.New("broker: circuit open (broker marked down)")

// Breaker is a half-open circuit breaker: after Threshold consecutive
// failures it opens and rejects requests for a window, then admits a
// single probe; the probe's outcome closes the circuit or doubles the
// window (capped). Safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	window    time.Duration
	maxWindow time.Duration

	state    float64
	failures int
	curWin   time.Duration
	until    time.Time

	// now is the clock, injectable for tests.
	now func() time.Time
	// gauge, if set, mirrors the state for /metrics.
	gauge *telemetry.Gauge
}

// NewBreaker builds a breaker from the policy's thresholds. gauge may be
// nil.
func NewBreaker(p Policy, gauge *telemetry.Gauge) *Breaker {
	p = p.withDefaults()
	b := &Breaker{
		threshold: p.BreakerThreshold,
		window:    p.BreakerWindow,
		maxWindow: p.BreakerMaxWindow,
		curWin:    p.BreakerWindow,
		now:       time.Now,
		gauge:     gauge,
	}
	b.setState(BreakerClosed)
	return b
}

func (b *Breaker) setState(s float64) {
	b.state = s
	if b.gauge != nil {
		b.gauge.Set(s)
	}
}

// Allow reports whether a request may proceed. In the open state it
// returns false until the window elapses, then admits exactly one probe
// (transitioning to half-open).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		return false // a probe is already in flight
	default: // open
		if b.now().Before(b.until) {
			return false
		}
		b.setState(BreakerHalfOpen)
		return true
	}
}

// Success records a successful request, closing the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.curWin = b.window
	b.setState(BreakerClosed)
}

// Failure records a failed request. In half-open it reopens with a
// doubled window; in closed it opens once the threshold is reached.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.curWin *= 2
		if b.curWin > b.maxWindow {
			b.curWin = b.maxWindow
		}
		b.until = b.now().Add(b.curWin)
		b.setState(BreakerOpen)
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.until = b.now().Add(b.curWin)
			b.setState(BreakerOpen)
		}
	default: // open: extra failures (shouldn't happen) keep it open
	}
}

// State returns the current breaker state constant.
func (b *Breaker) State() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && !b.now().Before(b.until) {
		// The window has elapsed; the next Allow will probe.
	}
	return b.state
}
