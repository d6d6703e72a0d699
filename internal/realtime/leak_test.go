package realtime

import (
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/codec"
	"gostats/internal/leakcheck"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
)

// TestListenerLifecycleJoinsWorkers pins the goroutine-hygiene
// contract for the listener: a full consume → broker close → close
// cycle must leave no goroutine behind. The decode, archive, ingest and
// assemble steps run on Run's goroutine, so none may outlive it.
func TestListenerLifecycleJoinsWorkers(t *testing.T) {
	defer leakcheck.Check(t)()

	srv := broker.NewServer()
	srv.Metrics = telemetry.NewRegistry()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := broker.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := codec.EncodeWire(snapWithMDC(600, "n1", 100, "77"), schema.DefaultRegistry(), codec.V1Text)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(broker.StatsQueue, b); err != nil {
		t.Fatal(err)
	}
	cons, err := broker.DialConsumer(addr, broker.StatsQueue)
	if err != nil {
		t.Fatal(err)
	}

	l := &Listener{Cons: cons, Metrics: telemetry.NewRegistry()}
	runDone := make(chan error, 1)
	go func() { runDone <- l.Run() }()
	deadline := time.Now().Add(5 * time.Second)
	for l.Processed() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if l.Processed() < 1 {
		t.Fatal("listener never consumed the published snapshot")
	}
	// Closing the broker ends Run at io.EOF, as the benchmark stops it.
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	pub.Close()
}
