package portal

import (
	"fmt"
	"testing"
	"time"
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
