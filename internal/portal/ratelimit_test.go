package portal

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gostats/internal/telemetry"
)

// TestLimiterRefusedClientStaysRefusedAtCap freezes time, drains one
// client's bucket and then brings twice the client cap of new clients,
// the refused client asking again after each one. It must stay refused
// throughout: the churn may only forget clients that stopped asking,
// never reset the bucket of one that keeps asking.
func TestLimiterRefusedClientStaysRefusedAtCap(t *testing.T) {
	l := NewLimiter(1, 2)
	frozen := time.Unix(1000, 0)
	l.now = func() time.Time { return frozen }
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("greedy"); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	if ok, _ := l.allow("greedy"); ok {
		t.Fatal("request past the burst allowed")
	}
	for i := 0; i < 2*limiterMaxClients; i++ {
		if ok, _ := l.allow(fmt.Sprint("client-", i)); !ok {
			t.Fatalf("new client %d refused", i)
		}
		if ok, _ := l.allow("greedy"); ok {
			t.Fatalf("refused client admitted after %d new clients: its bucket was reset", i+1)
		}
	}
	if n := l.clients.Len(); n != limiterMaxClients {
		t.Fatalf("limiter tracks %d clients, want the cap %d", n, limiterMaxClients)
	}
}

// TestJobDetailRateLimited: /job/<id> sits behind the same per-client
// limiter as /api/v1. Past the burst a client gets 429 with Retry-After,
// counted in gostats_portal_ratelimited_total, while another client is
// still served the page.
func TestJobDetailRateLimited(t *testing.T) {
	s, _ := buildPortal(t)
	reg := telemetry.NewRegistry()
	s.Metrics = reg
	s.Limiter = NewLimiter(1, 2)
	clock := time.Unix(1000, 0)
	s.Limiter.now = func() time.Time { return clock }
	do := func(client string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("GET", "/job/100", nil)
		r.Header.Set("X-Client-ID", client)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		return w
	}
	for i := 0; i < 2; i++ {
		if w := do("alice"); w.Code != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, w.Code)
		}
	}
	w := do("alice")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("request past the burst: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	if got := reg.Counter("gostats_portal_ratelimited_total", "").Value(); got != 1 {
		t.Fatalf("ratelimited counter = %d, want 1", got)
	}
	if w := do("bob"); w.Code != http.StatusOK {
		t.Fatalf("another client: status %d", w.Code)
	}
}
