// Per-client token-bucket rate limiting for the versioned query API.
// Each client — identified by its X-Client-ID header, falling back to
// the peer address — gets a bucket refilled at a steady rate with a
// bounded burst. A refused request is answered 429 with a Retry-After
// hint; the limiter sits outside the response cache, so rejected
// requests never render, never populate the cache, and cannot evict
// warm entries.
package portal

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gostats/internal/lru"
)

// limiterMaxClients bounds the number of client buckets. At the cap the
// least recently seen client is forgotten; if it returns it starts with
// a fresh bucket, trading one extra burst for bounded memory. A client
// that keeps asking is never the one forgotten.
const limiterMaxClients = 8192

// Limiter is a per-client token bucket: each client may burst up to
// burst requests and sustain rate requests per second thereafter.
type Limiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity
	now   func() time.Time

	mu      sync.Mutex // guards every bucket's fields
	clients *lru.Cache[string, *tokenBucket]
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter returns a limiter allowing ratePerSec sustained requests
// per second per client with bursts of up to burst (minimum 1 each).
func NewLimiter(ratePerSec, burst float64) *Limiter {
	if ratePerSec < 1 {
		ratePerSec = 1
	}
	if burst < 1 {
		burst = 1
	}
	return &Limiter{
		rate:    ratePerSec,
		burst:   burst,
		now:     time.Now,
		clients: lru.New[string, *tokenBucket](limiterMaxClients, nil, nil),
	}
}

// allow takes one token from key's bucket. When the bucket is empty it
// reports false plus the seconds until the next token accrues.
func (l *Limiter) allow(key string) (bool, float64) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, _, _ := l.clients.Get(key, func() (*tokenBucket, error) {
		return &tokenBucket{tokens: l.burst, last: now}, nil
	})
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, (1 - b.tokens) / l.rate
}

// clientKey identifies the requesting client: the X-Client-ID header
// when present (simulated fleets and API consumers set it), else the
// peer host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// limit wraps a handler with the per-client limiter. It must wrap
// OUTSIDE cacheable: a 429 is written straight to the client, so
// rejected requests never touch the response cache. Nil limiter means
// unlimited.
func (s *Server) limit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		l := s.Limiter
		if l == nil {
			h(w, r)
			return
		}
		if ok, retry := l.allow(clientKey(r)); !ok {
			s.registry().Counter("gostats_portal_ratelimited_total",
				"Portal requests rejected by the per-client rate limiter.").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(math.Max(retry, 1)))))
			http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
			return
		}
		h(w, r)
	}
}
