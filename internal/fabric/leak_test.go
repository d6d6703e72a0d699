package fabric

import (
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/leakcheck"
	"gostats/internal/telemetry"
)

// TestFabricLifecycleJoinsWorkers pins the goroutine-hygiene contract
// for the fabric transport: view prober, publisher spool drainers (whose
// backoff used to leak sleeper goroutines past Close), client pool, and
// the partition consumer group must all join their workers on Stop /
// Close. Teardown is explicit — t.Cleanup would run after the leak
// check fires.
func TestFabricLifecycleJoinsWorkers(t *testing.T) {
	defer leakcheck.Check(t)()

	var addrs []string
	var srvs []*broker.Server
	for i := 0; i < 2; i++ {
		srv := broker.NewServer()
		srv.Metrics = telemetry.NewRegistry()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
		addrs = append(addrs, addr)
	}
	m := NewMap(addrs, 8, 2)
	view := NewView(m, fastPolicy(), telemetry.NewRegistry())
	view.StartProber(10 * time.Millisecond)
	for _, srv := range srvs {
		srv.MapProvider = view.Provider()
	}

	// One publisher and spool per host, sharing the view and pool.
	pool := NewClientPool(fastPolicy())
	hosts := []string{"nid00001", "nid00002", "nid00003", "nid00004"}
	pubs := make([]*Publisher, len(hosts))
	for i, h := range hosts {
		pubs[i] = NewPublisher(view, pool)
		pubs[i].Metrics = telemetry.NewRegistry()
		pubs[i].AttachSpool(fabricSpool(t, h, telemetry.NewRegistry()))
	}

	g := NewGroup(view)
	g.Handle = func(body []byte) error { return nil }
	g.Start()

	for i, h := range hosts {
		if err := pubs[i].Publish(fabricSnap(h, 100.0+float64(i))); err != nil {
			t.Fatalf("publish %s: %v", h, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Handled < uint64(len(hosts)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := g.Stats().Handled; got < uint64(len(hosts)) {
		t.Fatalf("group handled %d of %d", got, len(hosts))
	}

	g.Stop()
	for _, pub := range pubs {
		if err := pub.Close(); err != nil {
			t.Fatalf("publisher close: %v", err)
		}
	}
	pool.Close()
	view.Close()
	for _, srv := range srvs {
		if err := srv.Close(); err != nil {
			t.Fatalf("server close: %v", err)
		}
	}
}

// TestPublisherCloseRightAfterAttachSpool closes publishers the moment
// their spool is attached, before the drainer goroutine has had a
// chance to run. Close must still stop and join it: the drainer used to
// read its stop channel from the publisher once scheduled, found it
// already cleared by Close, and blocked forever while Close waited.
func TestPublisherCloseRightAfterAttachSpool(t *testing.T) {
	defer leakcheck.Check(t)()
	view := NewView(NewMap([]string{"127.0.0.1:1"}, 8, 1), fastPolicy(), telemetry.NewRegistry())
	defer view.Close()
	pool := NewClientPool(fastPolicy())
	defer pool.Close()
	sp := fabricSpool(t, "nid00001", telemetry.NewRegistry())
	for i := 0; i < 500; i++ {
		pub := NewPublisher(view, pool)
		pub.Metrics = telemetry.NewRegistry()
		closed := make(chan error, 1)
		go func() {
			pub.AttachSpool(sp)
			closed <- pub.Close()
		}()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("publisher %d: Close: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("publisher %d: Close did not return within 5s of AttachSpool", i)
		}
	}
}
