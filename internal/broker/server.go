// Package broker implements the message transport of gostats' daemon
// mode: a small TCP message broker standing in for RabbitMQ, plus the
// client library the node daemons and the central consumer use.
//
// Semantics (the subset of AMQP the paper's pipeline needs):
//
//   - Named queues, created on first use.
//   - Producers publish frames to a queue.
//   - Consumers subscribe to a queue with prefetch 1: the server sends
//     one message and waits for an ack before sending the next.
//   - A consumer that disconnects holding an unacked message causes
//     redelivery to the next consumer — collections survive consumer
//     crashes, which is exactly why the deployment site asked for a
//     broker instead of the filesystem.
//
// The wire protocol is length-delimited gob frames over TCP.
package broker

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gostats/internal/codec"
	"gostats/internal/telemetry"
)

// frame is the single wire message type.
type frame struct {
	Op    string // "pub", "sub", "msg", "ack", "err", "map"
	Queue string
	Body  []byte
	Err   string

	// Code is a machine-readable error discriminator on "err" frames so
	// clients can map server rejections to named errors.
	Code string

	// Codec declares the snapshot codec version of a publish's Body
	// (codec.Version). Legacy producers gob-encode frames without the
	// field, which decodes as 0 (unknown) — a server pinned to a wire
	// version rejects those instead of misframing the queue.
	Codec uint8

	// Confirm asks the server to ack a publish once the message is
	// enqueued. Fire-and-forget publishes can be torn mid-frame by a
	// connection reset without the producer ever learning; a confirmed
	// publish turns that silent loss into a retryable error (at the cost
	// of possible duplicates — consumers must tolerate at-least-once).
	Confirm bool

	// Host and Seq identify the snapshot a publish carries for
	// replicated-delivery dedup: a fabric publisher writes the same
	// (Host, Seq) to every replica broker, and partition-group consumers
	// drop all but the first delivery. Both ride the queue and come back
	// on "msg" frames. Zero values mean "no dedup identity" (legacy
	// single-broker publishes).
	Host string
	Seq  uint64

	// MapV is the sender's fabric partition-map version. The server
	// stamps it on publish acks and "map" replies so clients learn about
	// membership changes on the paths they already exercise — the same
	// piggyback pattern the codec handshake uses.
	MapV uint64
}

// codeCodecMismatch marks the err frame a version-pinned server sends a
// producer publishing a different codec.
const codeCodecMismatch = "codec-mismatch"

// codeNoMap marks the err frame a broker without fabric membership sends
// back on a "map" request.
const codeNoMap = "no-map"

// ErrNoMap is returned by FetchMap against a broker that is not a
// fabric member.
var ErrNoMap = errors.New("broker: not a fabric member (no partition map)")

// ErrCodecMismatch is returned to a producer whose declared snapshot
// codec does not match the broker's pinned wire version.
var ErrCodecMismatch = errors.New("broker: producer codec does not match broker wire version")

// Frame op codes.
const (
	opPub = "pub"
	opSub = "sub"
	opMsg = "msg"
	opAck = "ack"
	opErr = "err"
	opMap = "map"
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
			"Time to gob-encode and write one frame to a connection.",
			telemetry.LatencyBuckets),
		decode: reg.Histogram("gostats_broker_frame_decode_seconds",
			"Time from a frame's first byte arriving to its gob decode completing.",
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

	// AckTimeout, when > 0, bounds how long the server waits for a
	// consumer to ack a delivered message. On timeout the message is
	// requeued for the next consumer and the stalled connection dropped.
	AckTimeout time.Duration

	// WriteTimeout, when > 0, bounds writing one frame to a client.
	WriteTimeout time.Duration

	// WireVersion, when non-zero, pins the snapshot codec this broker
	// accepts: a publish declaring any other codec (including legacy
	// producers that declare none) is rejected with a codec-mismatch
	// error frame and the connection dropped. Zero accepts everything —
	// mixed fleets negotiate per message instead.
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
	dec := gob.NewDecoder(fbt)
	enc := gob.NewEncoder(conn)
	met := s.metricsSnapshot()
	for {
		// A producer silent past IdleTimeout is dropped; it redials.
		armRead(conn, s.IdleTimeout)
		var f frame
		if err := dec.Decode(&f); err != nil {
			return
		}
		met.decode.Observe(fbt.lap().Seconds())
		switch f.Op {
		case opPub:
			if f.Queue == "" {
				armWrite(conn, s.WriteTimeout)
				enc.Encode(frame{Op: opErr, Err: "publish without queue"})
				return
			}
			if s.WireVersion != 0 && codec.Version(f.Codec) != s.WireVersion {
				armWrite(conn, s.WriteTimeout)
				enc.Encode(frame{Op: opErr, Code: codeCodecMismatch,
					Err: fmt.Sprintf("producer codec %s, broker pinned to %s",
						codec.Version(f.Codec), s.WireVersion)})
				return
			}
			s.getQueue(f.Queue).push(item{body: f.Body, host: f.Host, seq: f.Seq})
			if f.Confirm {
				armWrite(conn, s.WriteTimeout)
				if err := enc.Encode(frame{Op: opAck, MapV: s.mapVersion()}); err != nil {
					return
				}
			}
		case opMap:
			armWrite(conn, s.WriteTimeout)
			if s.MapProvider == nil {
				if enc.Encode(frame{Op: opErr, Code: codeNoMap,
					Err: "broker is not a fabric member (no partition map)"}) != nil {
					return
				}
				continue
			}
			v, payload := s.MapProvider()
			if err := enc.Encode(frame{Op: opMap, MapV: v, Body: payload}); err != nil {
				return
			}
		case opSub:
			if f.Queue == "" {
				armWrite(conn, s.WriteTimeout)
				enc.Encode(frame{Op: opErr, Err: "subscribe without queue"})
				return
			}
			// Consumers legitimately idle while the queue is empty; the
			// ack wait below is the bounded part.
			armRead(conn, 0)
			s.consumerLoop(conn, enc, dec, s.getQueue(f.Queue))
			return
		default:
			armWrite(conn, s.WriteTimeout)
			enc.Encode(frame{Op: opErr, Err: fmt.Sprintf("unexpected op %q", f.Op)})
			return
		}
	}
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

// consumerLoop serves one subscribed connection with prefetch 1.
func (s *Server) consumerLoop(conn net.Conn, enc *gob.Encoder, dec *gob.Decoder, q *queue) {
	met := s.metricsSnapshot()
	for {
		msg, waiter, ok := q.pop()
		if !ok {
			return // queue closed
		}
		if waiter != nil {
			m, open := <-waiter
			if !open {
				return // queue closed while waiting
			}
			msg = m
		}
		armWrite(conn, s.WriteTimeout)
		t := met.encode.Start()
		if err := enc.Encode(frame{Op: opMsg, Body: msg.body, Host: msg.host, Seq: msg.seq}); err != nil {
			q.requeue(msg)
			return
		}
		t.Stop()
		// A consumer that never acks would pin the message forever under
		// prefetch 1; past AckTimeout it is requeued and the connection
		// dropped (the deadline error poisons the decoder below).
		armRead(conn, s.AckTimeout)
		var ack frame
		if err := dec.Decode(&ack); err != nil || ack.Op != opAck {
			q.requeue(msg)
			return
		}
		q.ack()
	}
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
// Delivered twice; Acked counts confirmed processing, so
// Delivered - Acked is the in-flight (or lost-to-crash) balance.
type QueueStats struct {
	Published   uint64
	Delivered   uint64
	Redelivered uint64
	Acked       uint64
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

// ErrClosed is returned by client operations on a closed connection.
var ErrClosed = errors.New("broker: connection closed")

// Client is a broker connection for publishing.
type Client struct {
	// WriteTimeout, when > 0, bounds writing one publish frame.
	WriteTimeout time.Duration
	// AckTimeout, when > 0, bounds waiting for a PublishConfirmed ack.
	AckTimeout time.Duration
	// Codec declares the snapshot codec of published bodies in the
	// handshake; a server pinned to a different WireVersion rejects the
	// publish with ErrCodecMismatch. Zero declares "legacy" (gob).
	Codec codec.Version

	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder

	// lastMapV is the newest fabric map version seen on an ack or map
	// reply from this broker; fabric publishers compare it against their
	// own view to decide when to refetch the partition map.
	lastMapV uint64
}

// Dial connects to a broker for publishing.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClientConn(conn), nil
}

// DialTimeout is Dial with a bounded connection attempt.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		return Dial(addr)
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClientConn(conn), nil
}

// NewClientConn wraps an established connection (possibly a fault-
// injecting one) as a publishing client.
func NewClientConn(conn net.Conn) *Client {
	return &Client{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

// Publish sends one message to the named queue, fire-and-forget: a
// success return means the frame entered the local socket buffer, not
// that the broker enqueued it. Use PublishConfirmed when that window
// matters.
func (c *Client) Publish(queueName string, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return ErrClosed
	}
	armWrite(c.conn, c.WriteTimeout)
	if err := c.enc.Encode(frame{Op: opPub, Queue: queueName, Body: body, Codec: uint8(c.Codec)}); err != nil {
		return fmt.Errorf("broker: publish: %w", err)
	}
	return nil
}

// PublishConfirmed sends one message and blocks until the broker
// acknowledges enqueueing it. A reset mid-frame therefore surfaces as an
// error the caller can retry instead of silent loss; the retry may
// duplicate the message, so consumers must dedup or tolerate repeats.
func (c *Client) PublishConfirmed(queueName string, body []byte) error {
	return c.PublishConfirmedSeq(queueName, body, "", 0)
}

// PublishConfirmedSeq is PublishConfirmed with a (host, seq) dedup
// identity attached to the message — the replicated-publish primitive:
// a fabric publisher writes the same identity to every replica broker
// and partition-group consumers keep only the first delivery.
func (c *Client) PublishConfirmedSeq(queueName string, body []byte, host string, seq uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return ErrClosed
	}
	armWrite(c.conn, c.WriteTimeout)
	if err := c.enc.Encode(frame{Op: opPub, Queue: queueName, Body: body,
		Codec: uint8(c.Codec), Confirm: true, Host: host, Seq: seq}); err != nil {
		return fmt.Errorf("broker: publish: %w", err)
	}
	armRead(c.conn, c.AckTimeout)
	var f frame
	if err := c.dec.Decode(&f); err != nil {
		return fmt.Errorf("broker: publish confirm: %w", err)
	}
	switch f.Op {
	case opAck:
		if f.MapV > c.lastMapV {
			c.lastMapV = f.MapV
		}
		return nil
	case opErr:
		if f.Code == codeCodecMismatch {
			return fmt.Errorf("%w: %s", ErrCodecMismatch, f.Err)
		}
		return fmt.Errorf("broker: server error: %s", f.Err)
	default:
		return fmt.Errorf("broker: unexpected confirm frame %q", f.Op)
	}
}

// MapVersion reports the newest fabric partition-map version this
// client has seen on an ack or map reply (0 before any).
func (c *Client) MapVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastMapV
}

// FetchMap asks the broker for its current fabric partition map. The
// payload is the opaque fabric encoding (internal/fabric decodes it);
// ErrNoMap means the broker is not a fabric member.
func (c *Client) FetchMap() (version uint64, payload []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return 0, nil, ErrClosed
	}
	armWrite(c.conn, c.WriteTimeout)
	if err := c.enc.Encode(frame{Op: opMap}); err != nil {
		return 0, nil, fmt.Errorf("broker: fetch map: %w", err)
	}
	armRead(c.conn, c.AckTimeout)
	var f frame
	if err := c.dec.Decode(&f); err != nil {
		return 0, nil, fmt.Errorf("broker: fetch map: %w", err)
	}
	switch f.Op {
	case opMap:
		if f.MapV > c.lastMapV {
			c.lastMapV = f.MapV
		}
		return f.MapV, f.Body, nil
	case opErr:
		if f.Code == codeNoMap {
			return 0, nil, ErrNoMap
		}
		return 0, nil, fmt.Errorf("broker: server error: %s", f.Err)
	default:
		return 0, nil, fmt.Errorf("broker: unexpected map frame %q", f.Op)
	}
}

// Close closes the publishing connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Consumer is a subscribed broker connection.
type Consumer struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// DialConsumer connects to a broker and subscribes to a queue.
func DialConsumer(addr, queueName string) (*Consumer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConsumerConn(conn, queueName)
}

// NewConsumerConn subscribes an established connection (possibly a
// fault-injecting one) to a queue.
func NewConsumerConn(conn net.Conn, queueName string) (*Consumer, error) {
	c := &Consumer{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	if err := c.enc.Encode(frame{Op: opSub, Queue: queueName}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("broker: subscribe: %w", err)
	}
	return c, nil
}

// Next blocks for the next message and acknowledges it. It returns
// io.EOF when the broker or connection shuts down cleanly; transport
// faults surface as errors rather than being mistaken for shutdown.
func (c *Consumer) Next() ([]byte, error) {
	var f frame
	if err := c.dec.Decode(&f); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || isConnReset(err) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("broker: consume: %w", err)
	}
	switch f.Op {
	case opMsg:
		if err := c.enc.Encode(frame{Op: opAck}); err != nil {
			return nil, fmt.Errorf("broker: ack: %w", err)
		}
		return f.Body, nil
	case opErr:
		return nil, fmt.Errorf("broker: server error: %s", f.Err)
	default:
		return nil, fmt.Errorf("broker: unexpected frame %q", f.Op)
	}
}

// NextNoAck blocks for the next message WITHOUT acknowledging; the
// caller must Ack (or disconnect, causing redelivery). This exposes the
// at-least-once semantics for tests and crash-tolerant consumers.
func (c *Consumer) NextNoAck() ([]byte, error) {
	m, err := c.NextMsgNoAck()
	return m.Body, err
}

// Msg is one delivered message with its replication-dedup identity.
// Host/Seq are zero for messages published without one.
type Msg struct {
	Body []byte
	Host string
	Seq  uint64
}

// NextMsgNoAck is NextNoAck returning the full message envelope,
// including the (host, seq) identity partition-group consumers dedup
// replicated deliveries by.
func (c *Consumer) NextMsgNoAck() (Msg, error) {
	var f frame
	if err := c.dec.Decode(&f); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || isConnReset(err) {
			return Msg{}, io.EOF
		}
		return Msg{}, fmt.Errorf("broker: consume: %w", err)
	}
	switch f.Op {
	case opMsg:
		return Msg{Body: f.Body, Host: f.Host, Seq: f.Seq}, nil
	case opErr:
		return Msg{}, fmt.Errorf("broker: server error: %s", f.Err)
	default:
		return Msg{}, fmt.Errorf("broker: unexpected frame %q", f.Op)
	}
}

// Ack acknowledges the message most recently returned by NextNoAck.
func (c *Consumer) Ack() error {
	if err := c.enc.Encode(frame{Op: opAck}); err != nil {
		return fmt.Errorf("broker: ack: %w", err)
	}
	return nil
}

// Close closes the consumer connection. An unacked in-flight message is
// redelivered to another consumer.
func (c *Consumer) Close() error { return c.conn.Close() }

// isConnReset reports whether the error is a peer reset/abort — the
// normal signature of the broker (or the OS) tearing the socket down.
func isConnReset(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe)
}
