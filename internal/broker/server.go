// Package broker implements the message transport of gostats' daemon
// mode: a small TCP message broker standing in for RabbitMQ, plus the
// client library the node daemons and the central consumer use.
//
// Semantics (the subset of AMQP the paper's pipeline needs):
//
//   - Named queues, created on first use.
//   - Producers publish frames to a queue.
//   - Consumers subscribe to a queue with a prefetch window: the server
//     keeps up to consumerWindow unacked messages in flight per
//     connection, and the consumer acks cumulatively (one ack covers
//     every delivery up to its number), like basic.qos with multiple
//     acks.
//   - A consumer that disconnects, fails an ack or stops acking holding
//     unacked messages causes their redelivery, in order and ahead of
//     the rest of the queue, to the next consumer — collections survive
//     consumer crashes, which is exactly why the deployment site asked
//     for a broker instead of the filesystem.
//
// The wire protocol is framelog frames over TCP (see wire.go).
package broker

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"gostats/internal/codec"
	"gostats/internal/framelog"
	"gostats/internal/telemetry"
)

// codeCodecMismatch marks the err frame a version-pinned server sends a
// producer publishing a different codec.
const codeCodecMismatch = "codec-mismatch"

// codeNoMap marks the err frame a broker without fabric membership sends
// back on a map request.
const codeNoMap = "no-map"

// ErrNoMap is returned by FetchMap against a broker that is not a
// fabric member.
var ErrNoMap = errors.New("broker: not a fabric member (no partition map)")

// ErrCodecMismatch is returned to a producer whose declared snapshot
// codec does not match the broker's pinned wire version.
var ErrCodecMismatch = errors.New("broker: producer codec does not match broker wire version")

// consumerWindow is how many unacked deliveries the server keeps in
// flight on one consumer connection.
const consumerWindow = 64

// flushBytes is how much delivery data the server buffers before
// writing it out even though more could follow.
const flushBytes = 64 << 10

// Read buffer sizes. A consumer's holds many deliveries, so that it can
// see the next one is already there and defer its ack; the server's,
// one per producer, holds a few publishes.
const (
	consumerReadBuf = 64 << 10
	serverReadBuf   = 16 << 10
)

// serverMetrics are the broker-wide telemetry series.
type serverMetrics struct {
	conns  *telemetry.Gauge
	encode *telemetry.Histogram
	decode *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	return &serverMetrics{
		conns: reg.Gauge("gostats_broker_connections",
			"Open broker connections (producers and consumers)."),
		encode: reg.Histogram("gostats_broker_frame_encode_seconds",
			"Time to frame one delivery into its connection's write buffer.",
			telemetry.LatencyBuckets),
		decode: reg.Histogram("gostats_broker_frame_decode_seconds",
			"Time from a producer frame's first byte arriving to its decode completing.",
			telemetry.LatencyBuckets),
	}
}

// Server is the broker daemon.
type Server struct {
	// Metrics selects the registry broker telemetry lands in; set before
	// Listen. Nil uses telemetry.Default().
	Metrics *telemetry.Registry

	// IdleTimeout, when > 0, bounds how long a producer connection may
	// sit silent between frames before the server drops it. A client
	// that hangs mid-frame (half-open TCP, blackholed route) otherwise
	// pins a handler goroutine and a connection slot forever.
	IdleTimeout time.Duration

	// AckTimeout, when > 0, bounds how long a consumer may make no ack
	// progress while deliveries are in flight to it. On timeout its
	// unacked deliveries are requeued, in order, for the next consumer
	// and the stalled connection dropped.
	AckTimeout time.Duration

	// WriteTimeout, when > 0, bounds writing one frame to a client.
	WriteTimeout time.Duration

	// WireVersion, when non-zero, pins the snapshot codec this broker
	// accepts: a publish declaring any other codec (including none) is
	// rejected with a codec-mismatch error frame and the connection
	// dropped. Zero accepts everything — mixed fleets negotiate per
	// message instead.
	WireVersion codec.Version

	// MapProvider, when set, makes this broker a fabric member: "map"
	// frames are answered with the provider's current partition map
	// payload, and every publish ack carries the map version so
	// publishers notice membership changes without a separate probe.
	// The payload is opaque to the broker (internal/fabric owns the
	// encoding), keeping the dependency pointing fabric -> broker.
	MapProvider func() (version uint64, payload []byte)

	mu     sync.Mutex
	ln     net.Listener
	queues map[string]*queue
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	met    *serverMetrics
}

// NewServer returns an unstarted broker.
func NewServer() *Server {
	return &Server{
		queues: make(map[string]*queue),
		conns:  make(map[net.Conn]struct{}),
	}
}

// metrics resolves the telemetry registry (must hold s.mu or be
// pre-Listen single-threaded).
func (s *Server) metrics() *serverMetrics {
	if s.met == nil {
		reg := s.Metrics
		if reg == nil {
			reg = telemetry.Default()
		}
		s.met = newServerMetrics(reg)
	}
	return s.met
}

// metricsSnapshot is metrics() with locking, for connection handlers.
func (s *Server) metricsSnapshot() *serverMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics()
}

// registry returns the registry queues bind their series in.
func (s *Server) registry() *telemetry.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return telemetry.Default()
}

// Listen binds the broker to addr ("127.0.0.1:0" picks a free port) and
// starts serving in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts serving on an externally created listener in the
// background. This is how fault-injection tests interpose a faulty
// listener between clients and the broker.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.metrics()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		met := s.metrics()
		s.mu.Unlock()
		met.conns.Add(1)
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	_, tracked := s.conns[conn]
	delete(s.conns, conn)
	met := s.met
	s.mu.Unlock()
	if tracked && met != nil {
		met.conns.Add(-1)
	}
	conn.Close()
}

// getQueue returns (creating if needed) the named queue.
func (s *Server) getQueue(name string) *queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		// Close closes the queues it finds. A subscribe already decoded
		// when Close ran can still ask for a queue that did not exist;
		// created open, its consumer would wait on it forever and Close
		// would wait on that consumer.
		q = &queue{met: newQueueMetrics(s.registry(), name), closed: s.closed}
		s.queues[name] = q
	}
	return q
}

// firstByteTimer stamps the arrival of the first byte of each frame so
// decode latency measures wire + decode work, not the idle wait between
// frames (the server blocks in Read until a client sends). lap resets
// the stamp for the next frame; a frame whose bytes were already
// buffered by the decoder reads as ~0, which is the truth: it cost no
// wall-clock wait.
type firstByteTimer struct {
	r     io.Reader
	armed bool
	start time.Time
}

func (t *firstByteTimer) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 && !t.armed {
		t.armed = true
		t.start = time.Now()
	}
	return n, err
}

func (t *firstByteTimer) lap() time.Duration {
	if !t.armed {
		return 0
	}
	t.armed = false
	return time.Since(t.start)
}

// armRead sets (or clears, d<=0) the connection's read deadline.
func armRead(conn net.Conn, d time.Duration) {
	if d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	} else {
		conn.SetReadDeadline(time.Time{})
	}
}

// armWrite sets (or clears, d<=0) the connection's write deadline.
func armWrite(conn net.Conn, d time.Duration) {
	if d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	} else {
		conn.SetWriteDeadline(time.Time{})
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	fbt := &firstByteTimer{r: conn}
	r := bufio.NewReaderSize(fbt, serverReadBuf)
	armRead(conn, s.IdleTimeout)
	if !s.acceptPreamble(conn, r) {
		return
	}
	fbt.lap() // the preamble is not a frame
	met := s.metricsSnapshot()
	for {
		// A producer silent past IdleTimeout is dropped; it redials.
		armRead(conn, s.IdleTimeout)
		// Each frame gets its own buffer: a published body is queued as
		// it was read, never aliasing a buffer the next read reuses.
		typ, p, err := framelog.ReadFrame(r, nil, maxFramePayload)
		if err != nil {
			return
		}
		switch typ {
		case typePub:
			f, err := parsePub(p)
			met.decode.Observe(fbt.lap().Seconds())
			switch {
			case err != nil:
				s.reply(conn, appendErr(nil, "", err.Error()))
				return
			case f.Queue == "":
				s.reply(conn, appendErr(nil, "", "publish without queue"))
				return
			case s.WireVersion != 0 && f.Codec != s.WireVersion:
				s.reply(conn, appendErr(nil, codeCodecMismatch,
					fmt.Sprintf("producer codec %s, broker pinned to %s", f.Codec, s.WireVersion)))
				return
			}
			s.getQueue(f.Queue).push(item{body: f.Body, host: f.Host, seq: f.Seq})
			if f.Confirm && s.reply(conn, appendAck(nil, s.mapVersion())) != nil {
				return
			}
		case typeMap:
			_, _, err := parseMap(p)
			met.decode.Observe(fbt.lap().Seconds())
			var out []byte
			switch {
			case err != nil:
				s.reply(conn, appendErr(nil, "", err.Error()))
				return
			case s.MapProvider == nil:
				out = appendErr(nil, codeNoMap, "broker is not a fabric member (no partition map)")
			default:
				v, payload := s.MapProvider()
				out = appendMap(nil, v, payload)
			}
			if s.reply(conn, out) != nil {
				return
			}
		case typeSub:
			q, err := parseStrings(p, 1)
			met.decode.Observe(fbt.lap().Seconds())
			if err == nil && q[0] == "" {
				err = fmt.Errorf("subscribe without queue")
			}
			if err != nil {
				s.reply(conn, appendErr(nil, "", err.Error()))
				return
			}
			// Consumers legitimately idle while the queue is empty; the
			// ack wait is the bounded part.
			armRead(conn, 0)
			s.consumerLoop(conn, r, s.getQueue(q[0]))
			return
		default:
			s.reply(conn, appendErr(nil, "", fmt.Sprintf("unexpected frame type %q", typ)))
			return
		}
	}
}

// acceptPreamble reads the client's preamble and answers with the
// server's. A connection that opens with anything else — an old gob
// client included — is refused, logged and counted by reason; one that
// closes or idles out before sending a byte is just dropped.
func (s *Server) acceptPreamble(conn net.Conn, r *bufio.Reader) bool {
	p, heard, _ := readPreamble(r)
	if p == framelog.PreambleOK {
		return s.reply(conn, preamble) == nil
	}
	if heard {
		log.Printf("broker: refused connection from %s: %s preamble", conn.RemoteAddr(), p)
		s.registry().Counter("gostats_broker_handshake_refused_total",
			"Connections refused because they did not open with the broker wire preamble, by reason.",
			"reason", p.String()).Inc()
	}
	return false
}

// reply writes one or more whole frames to a connection.
func (s *Server) reply(conn net.Conn, b []byte) error {
	armWrite(conn, s.WriteTimeout)
	_, err := conn.Write(b)
	return err
}

// mapVersion returns the fabric map version to stamp on acks (0 when
// the broker is not a fabric member).
func (s *Server) mapVersion() uint64 {
	if s.MapProvider == nil {
		return 0
	}
	v, _ := s.MapProvider()
	return v
}

// window is one consumer connection's unacked deliveries. Deliveries
// are numbered from 1; slot n%consumerWindow holds delivery n while it
// is in flight, for acked < n <= sent.
type window struct {
	mu    sync.Mutex
	ring  [consumerWindow]item
	acked uint64
	sent  uint64

	// space is signalled when an ack frees room; done is closed when
	// the ack reader exits, which ends the connection.
	space chan struct{}
	done  chan struct{}
}

func (w *window) full() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sent-w.acked == consumerWindow
}

// unacked returns the in-flight deliveries in delivery order.
func (w *window) unacked() []item {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]item, 0, w.sent-w.acked)
	for n := w.acked + 1; n <= w.sent; n++ {
		out = append(out, w.ring[n%consumerWindow])
	}
	return out
}

// consumerLoop serves one subscribed connection: it writes deliveries
// while the window has room, and a second goroutine reads the
// cumulative acks. Writes are buffered, but flushed before the loop
// blocks on an empty queue or a full window, so a delivery never waits
// in the buffer while nothing follows it. When either side fails — the
// connection drops, an ack is malformed or out of range, or no ack
// progress is made for AckTimeout while deliveries are in flight — the
// connection is closed and every unacked delivery is requeued at the
// front of the queue, in order.
func (s *Server) consumerLoop(conn net.Conn, r *bufio.Reader, q *queue) {
	met := s.metricsSnapshot()
	w := &window{space: make(chan struct{}, 1), done: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.readAcks(conn, r, q, w)
	}()
	defer func() {
		conn.Close() // stops the ack reader
		wg.Wait()
		if un := w.unacked(); len(un) > 0 {
			q.requeue(un...)
		}
	}()

	var out []byte
	var hb [64]byte
	flush := func() bool {
		if len(out) == 0 {
			return true
		}
		armWrite(conn, s.WriteTimeout)
		_, err := conn.Write(out)
		out = out[:0]
		return err == nil
	}
	for {
		for w.full() {
			if !flush() {
				return
			}
			select {
			case <-w.space:
			case <-w.done:
				return
			}
		}
		msg, waiter, ok := q.pop()
		if !ok {
			return // queue closed
		}
		if waiter != nil {
			if !flush() {
				q.cancel(waiter)
				return
			}
			select {
			case m, open := <-waiter:
				if !open {
					return // queue closed while waiting
				}
				msg = m
			case <-w.done:
				q.cancel(waiter)
				return
			}
		}
		w.mu.Lock()
		w.sent++
		w.ring[w.sent%consumerWindow] = msg
		if w.sent-w.acked == 1 && s.AckTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.AckTimeout))
		}
		w.mu.Unlock()
		t := met.encode.Start()
		m := Msg{Host: msg.host, Seq: msg.seq}
		out = framelog.Append(out, typeMsg, m.appendHead(hb[:0]), msg.body)
		t.Stop()
		if len(out) >= flushBytes && !flush() {
			return
		}
	}
}

// readAcks applies a consumer's cumulative acks to w until the
// connection fails or the consumer breaks the protocol; either way it
// closes the connection, so that the delivery loop stops too.
func (s *Server) readAcks(conn net.Conn, r *bufio.Reader, q *queue, w *window) {
	defer close(w.done)
	defer conn.Close()
	var buf []byte
	for {
		// An ack payload is one uvarint; anything longer is refused
		// before it is allocated.
		typ, p, err := framelog.ReadFrame(r, buf, binary.MaxVarintLen64)
		if err != nil {
			return
		}
		buf = p
		if typ != typeAck {
			return
		}
		n, err := parseUvarintPayload(p)
		if err != nil || !s.applyAck(conn, q, w, n) {
			return
		}
	}
}

// applyAck acks deliveries up to n, which must lie in (acked, sent].
func (s *Server) applyAck(conn net.Conn, q *queue, w *window, n uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n <= w.acked || n > w.sent {
		return false
	}
	for k := w.acked + 1; k <= n; k++ {
		w.ring[k%consumerWindow] = item{} // release the body
	}
	q.ack(int(n - w.acked))
	w.acked = n
	if s.AckTimeout > 0 {
		if w.sent > w.acked {
			conn.SetReadDeadline(time.Now().Add(s.AckTimeout))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
	}
	select {
	case w.space <- struct{}{}:
	default:
	}
	return true
}

// QueueDepth reports the backlog of a queue (0 for unknown queues).
func (s *Server) QueueDepth(name string) int {
	s.mu.Lock()
	q := s.queues[name]
	s.mu.Unlock()
	if q == nil {
		return 0
	}
	return q.depth()
}

// QueueStats are the lifetime counters of one queue. Delivered counts
// every hand-off to a consumer, so a message redelivered once appears in
// Delivered twice; Acked counts confirmed processing. InFlight is the
// number of messages delivered and not yet acked or requeued, so on a
// quiesced queue Published == Acked + depth + InFlight.
type QueueStats struct {
	Published   uint64
	Delivered   uint64
	Redelivered uint64
	Acked       uint64
	InFlight    uint64
}

// QueueCounts reports a queue's lifetime counters (zero for unknown
// queues).
func (s *Server) QueueCounts(name string) QueueStats {
	s.mu.Lock()
	q := s.queues[name]
	s.mu.Unlock()
	if q == nil {
		return QueueStats{}
	}
	return q.counts()
}

// Close shuts the broker down: stops accepting, closes every queue and
// connection, and waits for handlers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for _, q := range s.queues {
		q.close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}
