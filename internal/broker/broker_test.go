package broker

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

// nextAcked takes the next delivery and acknowledges it at once.
func nextAcked(c *Consumer) ([]byte, error) {
	b, err := c.NextNoAck()
	if err != nil {
		return nil, err
	}
	if err := c.Ack(); err != nil {
		return nil, err
	}
	return b, nil
}

func TestPublishConsumeOrder(t *testing.T) {
	_, addr := startServer(t)
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 10; i++ {
		if err := pub.Publish("q", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cons, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	for i := 0; i < 10; i++ {
		b, err := nextAcked(cons)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 1 || b[0] != byte(i) {
			t.Fatalf("message %d = %v", i, b)
		}
	}
}

func TestConsumerBlocksUntilPublish(t *testing.T) {
	_, addr := startServer(t)
	cons, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	got := make(chan []byte, 1)
	go func() {
		b, err := nextAcked(cons)
		if err == nil {
			got <- b
		}
	}()
	select {
	case <-got:
		t.Fatal("consumer returned before any publish")
	case <-time.After(50 * time.Millisecond):
	}
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish("q", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		if string(b) != "hello" {
			t.Errorf("got %q", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked consumer never woke")
	}
}

func TestUnackedMessageRedelivered(t *testing.T) {
	_, addr := startServer(t)
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish("q", []byte("precious")); err != nil {
		t.Fatal(err)
	}

	// First consumer takes the message without acking, then dies.
	c1, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c1.NextNoAck()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "precious" {
		t.Fatalf("got %q", b)
	}
	c1.Close()

	// Second consumer must receive the redelivery.
	c2, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	done := make(chan []byte, 1)
	go func() {
		if b, err := nextAcked(c2); err == nil {
			done <- b
		}
	}()
	select {
	case b := <-done:
		if string(b) != "precious" {
			t.Errorf("redelivered %q", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message lost after consumer crash")
	}
}

// TestRedeliveryCounted kills a consumer holding an unacked message and
// asserts the queue's redelivery and ack counters track the crash and
// the successful second delivery.
func TestRedeliveryCounted(t *testing.T) {
	s, addr := startServer(t)
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish("q", []byte("crashy")); err != nil {
		t.Fatal(err)
	}

	c1, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.NextNoAck(); err != nil {
		t.Fatal(err)
	}
	if qs := s.QueueCounts("q"); qs.Delivered != 1 || qs.Redelivered != 0 || qs.Acked != 0 {
		t.Fatalf("pre-crash counts = %+v", qs)
	}
	c1.Close() // dies holding the message

	// The crash is observed when the server's ack read fails; poll until
	// the redelivery counter ticks.
	deadline := time.Now().Add(2 * time.Second)
	for s.QueueCounts("q").Redelivered == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if qs := s.QueueCounts("q"); qs.Redelivered != 1 {
		t.Fatalf("post-crash counts = %+v, want Redelivered=1", qs)
	}

	// A healthy consumer drains and acks the redelivery.
	c2, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if b, err := nextAcked(c2); err != nil || string(b) != "crashy" {
		t.Fatalf("redelivery = %q, %v", b, err)
	}
	for s.QueueCounts("q").Acked == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	qs := s.QueueCounts("q")
	if qs.Published != 1 || qs.Delivered != 2 || qs.Redelivered != 1 || qs.Acked != 1 {
		t.Errorf("final counts = %+v, want {1 2 1 1}", qs)
	}
}

// TestBrokerTelemetry checks the broker exports its queue counters and
// connection gauge into an injected registry.
func TestBrokerTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer()
	s.Metrics = reg
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 3; i++ {
		if err := pub.Publish("telq", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cons, err := DialConsumer(addr, "telq")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	for i := 0; i < 3; i++ {
		if _, err := nextAcked(cons); err != nil {
			t.Fatal(err)
		}
	}
	// Queue counters are updated under the queue lock before delivery, so
	// they are visible as soon as the consumer has the messages.
	vals := telemetry.ParseExposition(reg.Exposition())
	if got := vals[`gostats_broker_published_total{queue="telq"}`]; got != 3 {
		t.Errorf("published = %g, want 3", got)
	}
	if got := vals[`gostats_broker_delivered_total{queue="telq"}`]; got != 3 {
		t.Errorf("delivered = %g, want 3", got)
	}
	if got := vals[`gostats_broker_queue_depth{queue="telq"}`]; got != 0 {
		t.Errorf("depth = %g, want 0", got)
	}
	if got := vals["gostats_broker_connections"]; got < 1 {
		t.Errorf("connections = %g, want >= 1", got)
	}
	// The server observes a delivery frame's encode time after the write
	// returns, so the consumer can hold the third message a moment
	// before its observation lands; wait for it rather than race it.
	deadline := time.Now().Add(2 * time.Second)
	for vals["gostats_broker_frame_encode_seconds_count"] < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		vals = telemetry.ParseExposition(reg.Exposition())
	}
	if vals["gostats_broker_frame_encode_seconds_count"] < 3 {
		t.Errorf("encode histogram count = %g", vals["gostats_broker_frame_encode_seconds_count"])
	}
}

func TestMultipleQueuesIsolated(t *testing.T) {
	_, addr := startServer(t)
	pub, _ := Dial(addr)
	defer pub.Close()
	pub.Publish("a", []byte("for-a"))
	pub.Publish("b", []byte("for-b"))

	ca, err := DialConsumer(addr, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	if b, _ := nextAcked(ca); string(b) != "for-a" {
		t.Errorf("queue a got %q", b)
	}
	cb, err := DialConsumer(addr, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if b, _ := nextAcked(cb); string(b) != "for-b" {
		t.Errorf("queue b got %q", b)
	}
}

func TestManyProducersOneConsumer(t *testing.T) {
	s, addr := startServer(t)
	const producers = 8
	const perProducer = 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < perProducer; i++ {
				if err := c.Publish("fan", []byte(fmt.Sprintf("%d/%d", p, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	cons, err := DialConsumer(addr, "fan")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	seen := map[string]bool{}
	for i := 0; i < producers*perProducer; i++ {
		b, err := nextAcked(cons)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("duplicate delivery %q", b)
		}
		seen[string(b)] = true
	}
	wg.Wait()
	qs := s.QueueCounts("fan")
	if qs.Published != producers*perProducer || qs.Delivered != producers*perProducer {
		t.Errorf("counts = %d/%d", qs.Published, qs.Delivered)
	}
	if qs.Redelivered != 0 {
		t.Errorf("redelivered = %d, want 0", qs.Redelivered)
	}
	// The final ack races with the consumer's return; wait for the server
	// to decode it.
	deadline := time.Now().Add(2 * time.Second)
	for s.QueueCounts("fan").Acked < producers*perProducer && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.QueueCounts("fan").Acked; got != producers*perProducer {
		t.Errorf("acked = %d, want %d", got, producers*perProducer)
	}
	if s.QueueDepth("fan") != 0 {
		t.Errorf("depth = %d", s.QueueDepth("fan"))
	}
}

func TestCompetingConsumersShareWork(t *testing.T) {
	_, addr := startServer(t)
	pub, _ := Dial(addr)
	defer pub.Close()
	const n = 40
	results := make(chan string, n)
	for k := 0; k < 2; k++ {
		c, err := DialConsumer(addr, "shared")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() {
			for {
				b, err := nextAcked(c)
				if err != nil {
					return
				}
				results <- string(b)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := pub.Publish("shared", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		select {
		case m := <-results:
			if seen[m] {
				t.Fatalf("duplicate %q", m)
			}
			seen[m] = true
		case <-time.After(3 * time.Second):
			t.Fatalf("only %d of %d messages delivered", i, n)
		}
	}
}

func TestServerCloseUnblocksConsumers(t *testing.T) {
	s, addr := startServer(t)
	cons, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := nextAcked(cons)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-errCh:
		if err != io.EOF {
			t.Errorf("err = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer still blocked after server close")
	}
}

// TestQueueCreatedAfterCloseIsClosed: a subscribe the handler decoded
// before Close closed its connection may name a queue that does not
// exist yet; it must come back closed, or its consumer blocks Close.
func TestQueueCreatedAfterCloseIsClosed(t *testing.T) {
	s, _ := startServer(t)
	s.Close()
	if _, _, ok := s.getQueue("new-after-close").pop(); ok {
		t.Fatal("queue created after Close accepts consumers")
	}
}

func TestPublishAfterClientClose(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Publish("q", []byte("x")); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestQueueDepthUnknown(t *testing.T) {
	s, _ := startServer(t)
	if d := s.QueueDepth("nope"); d != 0 {
		t.Errorf("depth = %d", d)
	}
	if qs := s.QueueCounts("nope"); qs != (QueueStats{}) {
		t.Errorf("counts = %+v", qs)
	}
}

func TestDecodeSnapshotGarbage(t *testing.T) {
	if _, _, err := DecodeSnapshotWire([]byte("not gob"), nil); !errors.Is(err, codec.ErrUnknownWire) {
		t.Errorf("garbage decoded: err = %v, want codec.ErrUnknownWire", err)
	}
}

func TestPublishSnapshotOverNetwork(t *testing.T) {
	_, addr := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	snap := model.Snapshot{Time: 7, Host: "n1", Records: []model.Record{
		{Class: schema.ClassCPU, Instance: "0", Values: []uint64{42, 0, 0, 0, 0, 0, 0}},
	}}
	body, err := EncodeSnapshotWire(snap, schema.DefaultRegistry(), codec.V1Text)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(StatsQueue, body); err != nil {
		t.Fatal(err)
	}
	cons, err := DialConsumer(addr, StatsQueue)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	b, err := nextAcked(cons)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeSnapshotWire(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != "n1" || got.Records[0].Values[0] != 42 {
		t.Errorf("got %+v", got)
	}
}

func TestQueueUnitCancelRace(t *testing.T) {
	// Unit-level: cancel after a concurrent push must requeue, not lose.
	q := &queue{}
	_, w, ok := q.pop()
	if !ok || w == nil {
		t.Fatal("expected waiter")
	}
	if !q.push(item{body: []byte("x")}) {
		t.Fatal("push failed")
	}
	// Message is now sitting in the waiter channel; cancel must recover it.
	q.cancel(w)
	if q.depth() != 1 {
		t.Fatalf("depth = %d, message lost", q.depth())
	}
	msg, w2, ok := q.pop()
	if !ok || w2 != nil || string(msg.body) != "x" {
		t.Fatalf("recovered = %q", msg.body)
	}
}

func TestQueueUnitCloseDropsPublishes(t *testing.T) {
	q := &queue{}
	q.close()
	if q.push(item{body: []byte("x")}) {
		t.Error("push to closed queue succeeded")
	}
	if _, _, ok := q.pop(); ok {
		t.Error("pop from closed queue succeeded")
	}
	q.close() // idempotent
}

func TestQueueUnitRequeueFront(t *testing.T) {
	q := &queue{}
	q.push(item{body: []byte("a")})
	q.push(item{body: []byte("b")})
	m, _, _ := q.pop()
	if string(m.body) != "a" {
		t.Fatalf("pop = %q", m.body)
	}
	q.requeue(m)
	m2, _, _ := q.pop()
	if string(m2.body) != "a" {
		t.Errorf("requeue not at front: %q", m2.body)
	}
}
