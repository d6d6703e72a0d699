package broker

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"testing"
	"time"

	"gostats/internal/framelog"
	"gostats/internal/telemetry"
)

// publishN confirm-publishes bodies "from".."to"-1 to queue q.
func publishN(t *testing.T, addr, q string, from, to int) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := from; i < to; i++ {
		if err := c.PublishConfirmedSeq(q, []byte(strconv.Itoa(i)), "", 0); err != nil {
			t.Fatal(err)
		}
	}
}

// waitCounts polls q's counters until ok accepts them.
func waitCounts(t *testing.T, s *Server, q string, ok func(QueueStats) bool) QueueStats {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	qs := s.QueueCounts(q)
	for !ok(qs) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		qs = s.QueueCounts(q)
	}
	if !ok(qs) {
		t.Fatalf("queue %s counters never settled: %+v", q, qs)
	}
	return qs
}

// expectBodies reads deliveries from c, acking each, and checks they
// are the bodies publishN wrote for from..to-1, in order.
func expectBodies(t *testing.T, c *Consumer, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		b, err := nextAcked(c)
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		if string(b) != strconv.Itoa(i) {
			t.Fatalf("delivery %d = %q: redelivery out of publish order", i, b)
		}
	}
}

// A consumer that dies holding a full window, part of it acked, hands
// exactly the unacked part to the next consumer — first, in publish
// order — and then the rest of the queue.
func TestConsumerDeathRequeuesWindowInOrder(t *testing.T) {
	s, addr := startServer(t)
	const total, acked = 100, 20
	publishN(t, addr, "q", 0, acked)
	c1, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	expectBodies(t, c1, 0, acked) // the last ack is written: nothing follows it
	waitCounts(t, s, "q", func(qs QueueStats) bool { return qs.Acked == acked })

	publishN(t, addr, "q", acked, total)
	for i := acked; i < acked+consumerWindow; i++ {
		if _, err := c1.NextNoAck(); err != nil {
			t.Fatal(err)
		}
	}
	qs := waitCounts(t, s, "q", func(qs QueueStats) bool { return qs.Delivered == acked+consumerWindow })
	if qs.InFlight != consumerWindow {
		t.Fatalf("in flight = %d, want a full window of %d", qs.InFlight, consumerWindow)
	}
	c1.Close()
	waitCounts(t, s, "q", func(qs QueueStats) bool { return qs.Redelivered == consumerWindow })

	c2, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	expectBodies(t, c2, acked, total)
	qs = waitCounts(t, s, "q", func(qs QueueStats) bool { return qs.Acked == total })
	want := QueueStats{Published: total, Delivered: total + consumerWindow,
		Redelivered: consumerWindow, Acked: total}
	if qs != want || s.QueueDepth("q") != 0 {
		t.Errorf("counts = %+v depth %d, want %+v depth 0", qs, s.QueueDepth("q"), want)
	}
}

// With AckTimeout set, a consumer that stops acking mid-window is
// dropped and its unacked deliveries go to the next consumer in order.
func TestAckTimeoutRedeliversWindowInOrder(t *testing.T) {
	s := NewServer()
	s.Metrics = telemetry.NewRegistry()
	s.AckTimeout = 100 * time.Millisecond
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	publishN(t, addr, "q", 0, 4)
	stalled, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	expectBodies(t, stalled, 0, 4)
	waitCounts(t, s, "q", func(qs QueueStats) bool { return qs.Acked == 4 })
	publishN(t, addr, "q", 4, 10)
	for i := 4; i < 10; i++ {
		if _, err := stalled.NextNoAck(); err != nil {
			t.Fatal(err)
		}
	}
	// Stop acking: the server must drop the connection and requeue.
	stalled.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := stalled.NextNoAck(); err != io.EOF {
		t.Fatalf("stalled consumer read = %v, want io.EOF from the server's drop", err)
	}
	waitCounts(t, s, "q", func(qs QueueStats) bool { return qs.Redelivered == 6 })

	healthy, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	expectBodies(t, healthy, 4, 10)
}

// rawConsumer subscribes over a bare connection, so a test can write
// frames no Consumer would.
func rawConsumer(t *testing.T, addr, queue string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	if err := clientHandshake(conn, r, appendSub(nil, queue)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	return conn, r
}

// A cumulative ack outside (acked, sent] is a protocol error: the
// server drops the connection and requeues the window.
func TestAckOutsideWindowDropsConnection(t *testing.T) {
	for _, ack := range []uint64{4, 0} {
		t.Run(fmt.Sprint("ack", ack), func(t *testing.T) {
			s, addr := startServer(t)
			publishN(t, addr, "q", 0, 3)
			conn, r := rawConsumer(t, addr, "q")
			for i := 0; i < 3; i++ {
				if typ, _, err := framelog.ReadFrame(r, nil, maxFramePayload); err != nil || typ != typeMsg {
					t.Fatalf("delivery %d: type %q, %v", i, typ, err)
				}
			}
			if _, err := conn.Write(appendAck(nil, ack)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := framelog.ReadFrame(r, nil, maxFramePayload); err != io.EOF {
				t.Fatalf("after ack %d of 3 sent: read = %v, want the server to hang up", ack, err)
			}
			waitCounts(t, s, "q", func(qs QueueStats) bool { return qs.Redelivered == 3 })
			c, err := DialConsumer(addr, "q")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			expectBodies(t, c, 0, 3)
		})
	}
}

// A client handshaking with a listener that hangs up at once gets the
// named protocol error from every constructor.
func TestHandshakeAgainstClosingListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	addr := ln.Addr().String()
	if _, err := Dial(addr); !errors.Is(err, ErrWireProtocol) {
		t.Errorf("Dial = %v, want ErrWireProtocol", err)
	}
	if _, err := DialConsumer(addr, "q"); !errors.Is(err, ErrWireProtocol) {
		t.Errorf("DialConsumer = %v, want ErrWireProtocol", err)
	}
}

// A server that answers with a foreign preamble is refused by name too.
func TestHandshakeAgainstForeignServer(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		io.ReadFull(b, make([]byte, len(preamble)))
		b.Write([]byte("HTTP/1.1 400 Bad Request\r\n"))
	}()
	if _, err := NewClientConn(a); !errors.Is(err, ErrWireProtocol) {
		t.Fatalf("NewClientConn = %v, want ErrWireProtocol", err)
	}
}

// On a quiesced queue with a consumer holding a full window, every
// published message is acked, queued or in flight — and the in-flight
// gauge shows the window.
func TestInFlightBalancesQueue(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer()
	s.Metrics = reg
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	publishN(t, addr, "q", 0, 10)
	c, err := DialConsumer(addr, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	expectBodies(t, c, 0, 10)
	waitCounts(t, s, "q", func(qs QueueStats) bool { return qs.Acked == 10 })
	publishN(t, addr, "q", 10, 100)
	qs := waitCounts(t, s, "q", func(qs QueueStats) bool { return qs.Delivered == 10+consumerWindow })
	depth := uint64(s.QueueDepth("q"))
	if qs.Published != qs.Acked+depth+qs.InFlight {
		t.Errorf("published %d != acked %d + depth %d + in flight %d", qs.Published, qs.Acked, depth, qs.InFlight)
	}
	if qs.InFlight != consumerWindow || depth != 100-10-consumerWindow {
		t.Errorf("in flight %d depth %d, want %d and %d", qs.InFlight, depth, consumerWindow, 100-10-consumerWindow)
	}
	vals := telemetry.ParseExposition(reg.Exposition())
	if got := vals[`gostats_broker_inflight{queue="q"}`]; got != consumerWindow {
		t.Errorf("inflight gauge = %g, want %d", got, consumerWindow)
	}
}

// Delivered bodies must not stay reachable from the queue's backing
// arrays once popped or handed to a waiter.
func TestQueuePopReleasesBodies(t *testing.T) {
	const n = 8
	q := &queue{}
	for i := 0; i < n; i++ {
		q.push(item{body: []byte{byte(i)}})
	}
	orig := q.items[:cap(q.items)]
	for i := 0; i < n; i++ {
		if _, _, ok := q.pop(); !ok {
			t.Fatal("pop failed")
		}
	}
	for i, it := range orig {
		if it.body != nil {
			t.Errorf("items slot %d still holds a delivered body", i)
		}
	}

	for i := 0; i < n; i++ {
		q.pop() // registers a waiter: the queue is empty
	}
	waiters := q.waiters[:cap(q.waiters)]
	for i := 0; i < n; i++ {
		q.push(item{body: []byte{byte(i)}})
	}
	for i, w := range waiters {
		if w != nil {
			t.Errorf("waiters slot %d still holds a served waiter", i)
		}
	}
}

// Requeueing a window splices it in front of the backlog in order.
func TestQueueRequeueWindowInOrder(t *testing.T) {
	q := &queue{}
	for _, b := range []string{"a", "b", "c", "d"} {
		q.push(item{body: []byte(b)})
	}
	var held []item
	for i := 0; i < 2; i++ {
		m, _, _ := q.pop()
		held = append(held, m)
	}
	q.requeue(held...)
	var got string
	for q.depth() > 0 {
		m, _, _ := q.pop()
		got += string(m.body)
	}
	if got != "abcd" {
		t.Errorf("order after requeue = %q, want abcd", got)
	}
}

// An ack deferred because the next delivery was already buffered is
// written by Close: a consumer that stops has acked on the wire
// everything it Acked.
func TestConsumerCloseWritesDeferredAck(t *testing.T) {
	cli, srv := net.Pipe()
	acks := make(chan uint64, 4)
	go func() {
		defer close(acks)
		defer srv.Close()
		r := bufio.NewReader(srv)
		if p, _, _ := readPreamble(r); p != framelog.PreambleOK {
			return
		}
		if typ, _, err := framelog.ReadFrame(r, nil, maxFramePayload); err != nil || typ != typeSub {
			return
		}
		// The preamble and three deliveries in one write: the consumer
		// reads them into its buffer at once.
		out := append([]byte(nil), preamble...)
		for i := 0; i < 3; i++ {
			m := Msg{Body: []byte{byte(i)}}
			out = framelog.Append(out, typeMsg, m.appendHead(nil), m.Body)
		}
		if _, err := srv.Write(out); err != nil {
			return
		}
		for {
			typ, p, err := framelog.ReadFrame(r, nil, maxFramePayload)
			if err != nil || typ != typeAck {
				return
			}
			n, err := parseUvarintPayload(p)
			if err != nil {
				return
			}
			acks <- n
		}
	}()
	c, err := NewConsumerConn(cli, "q")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := nextAcked(c); err != nil || len(b) != 1 || b[0] != 0 {
		t.Fatalf("Next = %v, %v", b, err)
	}
	c.Close()
	var got []uint64
	for n := range acks {
		got = append(got, n)
	}
	if len(got) == 0 || got[len(got)-1] != 1 {
		t.Fatalf("acks on the wire = %v, want the last to be 1", got)
	}
}
