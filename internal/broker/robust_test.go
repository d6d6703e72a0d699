package broker

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"gostats/internal/telemetry"
)

// TestBreakerHalfOpenProbe drives the breaker state machine with an
// injected clock: open after the threshold, one probe per window, and
// a failed probe doubles the window.
func TestBreakerHalfOpenProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(Policy{
		BreakerThreshold: 2,
		BreakerWindow:    100 * time.Millisecond,
		BreakerMaxWindow: 400 * time.Millisecond,
	}, nil)
	b.now = func() time.Time { return now }

	b.Failure()
	if !b.Allow() {
		t.Fatal("one failure below threshold opened the circuit")
	}
	b.Failure()
	if b.Allow() {
		t.Fatal("threshold failures did not open the circuit")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v", b.State())
	}

	now = now.Add(150 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("no probe admitted after the window elapsed")
	}
	if b.Allow() {
		t.Fatal("second probe admitted while one is in flight")
	}

	// The probe fails: reopen with a doubled (200ms) window.
	b.Failure()
	now = now.Add(150 * time.Millisecond)
	if b.Allow() {
		t.Fatal("probe admitted before the doubled window elapsed")
	}
	now = now.Add(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("no probe after the doubled window")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe did not close the circuit")
	}
}

// TestServerIdleTimeoutDropsSilentProducer pins the satellite deadline
// plumbing: a producer that goes silent past IdleTimeout is dropped
// instead of pinning a handler goroutine forever, while an active
// producer keeps working.
func TestServerIdleTimeoutDropsSilentProducer(t *testing.T) {
	srv := NewServer()
	srv.Metrics = telemetry.NewRegistry()
	srv.IdleTimeout = 50 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("silent conn read = %v, want EOF from server drop", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("server took %s to drop an idle producer", el)
	}

	// An active producer is unaffected.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PublishConfirmedSeq("q", []byte("alive"), "", 0); err != nil {
		t.Fatalf("active producer rejected: %v", err)
	}
}

// TestServerAckTimeoutRequeues pins the consumer-side deadline: a
// consumer that never acks loses its connection and the message is
// redelivered to the next consumer.
func TestServerAckTimeoutRequeues(t *testing.T) {
	srv := NewServer()
	srv.Metrics = telemetry.NewRegistry()
	srv.AckTimeout = 50 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PublishConfirmedSeq("q", []byte("m1"), "", 0); err != nil {
		t.Fatal(err)
	}

	stalled, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if b, err := stalled.NextNoAck(); err != nil || string(b) != "m1" {
		t.Fatalf("NextNoAck = %q, %v", b, err)
	}
	// Never ack; the server must give up on us.
	time.Sleep(150 * time.Millisecond)

	healthy, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	done := make(chan []byte, 1)
	go func() {
		if b, err := nextAcked(healthy); err == nil {
			done <- b
		}
	}()
	select {
	case b := <-done:
		if string(b) != "m1" {
			t.Fatalf("redelivered %q", b)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("message never redelivered after ack timeout")
	}
	if qc := srv.QueueCounts("q"); qc.Redelivered < 1 {
		t.Errorf("redelivered count = %d", qc.Redelivered)
	}
}
