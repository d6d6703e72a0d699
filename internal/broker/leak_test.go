package broker_test

import (
	"testing"

	"gostats/internal/broker"
	"gostats/internal/fabric"
	"gostats/internal/leakcheck"
	"gostats/internal/telemetry"
)

// TestLifecycleJoinsWorkers pins the goroutine-hygiene contract for the
// single-broker transport: server + node publisher (with its spool
// drainer and connection pool) + consumer must all join their workers
// on Close. Teardown is explicit — t.Cleanup would run after the leak
// check fires.
func TestLifecycleJoinsWorkers(t *testing.T) {
	defer leakcheck.Check(t)()

	reg := telemetry.NewRegistry()
	srv := broker.NewServer()
	srv.Metrics = reg
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	m := standalone(t, addr)
	view := fabric.NewView(m, broker.Policy{}, reg)
	pool := fabric.NewClientPool(broker.Policy{})
	pub := fabric.NewPublisher(view, pool)
	pub.Metrics = reg
	pub.AttachSpool(robustSpool(t, reg))
	if err := pub.Publish(robustSnap(100)); err != nil {
		t.Fatalf("publish: %v", err)
	}

	cons, err := broker.DialConsumer(addr, queueOf(m, "n1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cons.NextNoAck(); err != nil {
		t.Fatalf("consume: %v", err)
	}
	if err := cons.Ack(); err != nil {
		t.Fatalf("ack: %v", err)
	}
	cons.Close()
	if err := pub.Close(); err != nil {
		t.Fatalf("publisher close: %v", err)
	}
	pool.Close()
	view.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
}
