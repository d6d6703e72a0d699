package broker

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gostats/internal/codec"
	"gostats/internal/framelog"
)

// ErrClosed is returned by client operations on a closed connection.
var ErrClosed = errors.New("broker: connection closed")

// Client is a broker connection for publishing.
type Client struct {
	// WriteTimeout, when > 0, bounds writing one publish frame.
	WriteTimeout time.Duration
	// AckTimeout, when > 0, bounds waiting for a PublishConfirmedSeq ack.
	AckTimeout time.Duration
	// Codec declares the snapshot codec of published bodies; a server
	// pinned to a different WireVersion rejects the publish with
	// ErrCodecMismatch. Zero declares none.
	Codec codec.Version

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	wbuf []byte // the frame being written, reused
	rbuf []byte // the reply being read, reused

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
	return NewClientConn(conn)
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
	return NewClientConn(conn)
}

// NewClientConn wraps an established connection (possibly a fault-
// injecting one) as a publishing client, after the wire handshake. A
// peer that is not a broker of this wire version fails with
// ErrWireProtocol; the connection is closed on any error.
func NewClientConn(conn net.Conn) (*Client, error) {
	c := &Client{conn: conn, r: bufio.NewReader(conn)}
	if err := clientHandshake(conn, c.r, nil); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Publish sends one message to the named queue, fire-and-forget: a
// success return means the frame entered the local socket buffer, not
// that the broker enqueued it. Use PublishConfirmedSeq when that window
// matters.
func (c *Client) Publish(queueName string, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writePub(pubFrame{Queue: queueName, Codec: c.Codec, Body: body})
}

// writePub writes one publish frame in a single write; c.mu is held.
func (c *Client) writePub(f pubFrame) error {
	if c.conn == nil {
		return ErrClosed
	}
	var hb [64]byte
	c.wbuf = framelog.Append(c.wbuf[:0], typePub, f.appendHead(hb[:0]), f.Body)
	armWrite(c.conn, c.WriteTimeout)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return fmt.Errorf("broker: publish: %w", err)
	}
	return nil
}

// PublishConfirmedSeq sends one message and blocks until the broker
// acknowledges enqueueing it. A reset mid-frame therefore surfaces as an
// error the caller can retry instead of silent loss; the retry may
// duplicate the message, so consumers must dedup or tolerate repeats.
// The (host, seq) dedup identity travels with the message — the
// replicated-publish primitive: a fabric publisher writes the same
// identity to every replica broker and partition-group consumers keep
// only the first delivery. An empty host and zero seq publish without
// one.
func (c *Client) PublishConfirmedSeq(queueName string, body []byte, host string, seq uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writePub(pubFrame{Queue: queueName, Codec: c.Codec, Confirm: true,
		Host: host, Seq: seq, Body: body}); err != nil {
		return err
	}
	typ, p, err := c.readReply()
	if err != nil {
		return fmt.Errorf("broker: publish confirm: %w", err)
	}
	if typ != typeAck {
		return c.replyErr(typ, p, "confirm")
	}
	v, err := parseUvarintPayload(p)
	if err != nil {
		return fmt.Errorf("broker: publish confirm: %w", err)
	}
	c.lastMapV = max(c.lastMapV, v)
	return nil
}

// readReply reads the server's answer to a request; c.mu is held.
func (c *Client) readReply() (typ byte, p []byte, err error) {
	armRead(c.conn, c.AckTimeout)
	typ, p, err = framelog.ReadFrame(c.r, c.rbuf, maxFramePayload)
	c.rbuf = p
	return typ, p, err
}

// replyErr turns a reply that is not the expected one into an error.
func (c *Client) replyErr(typ byte, p []byte, what string) error {
	if typ != typeErr {
		return fmt.Errorf("%w: unexpected %s frame type %q", ErrWireProtocol, what, typ)
	}
	f, err := parseStrings(p, 2)
	if err != nil {
		return fmt.Errorf("broker: %s: %w", what, err)
	}
	switch f[0] {
	case codeCodecMismatch:
		return fmt.Errorf("%w: %s", ErrCodecMismatch, f[1])
	case codeNoMap:
		return ErrNoMap
	}
	return fmt.Errorf("broker: server error: %s", f[1])
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
	if _, err := c.conn.Write(appendMap(nil, 0, nil)); err != nil {
		return 0, nil, fmt.Errorf("broker: fetch map: %w", err)
	}
	typ, p, err := c.readReply()
	if err != nil {
		return 0, nil, fmt.Errorf("broker: fetch map: %w", err)
	}
	if typ != typeMap {
		return 0, nil, c.replyErr(typ, p, "map")
	}
	v, payload, err := parseMap(p)
	if err != nil {
		return 0, nil, fmt.Errorf("broker: fetch map: %w", err)
	}
	c.lastMapV = max(c.lastMapV, v)
	return v, bytes.Clone(payload), nil
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

// Consumer is a subscribed broker connection. The server keeps up to a
// window of deliveries in flight ahead of it; the consumer acks them
// cumulatively. An ack is written at once unless the next delivery is
// already buffered, so it costs no extra wake-up while deliveries keep
// coming: deferred acks are written before a read would block, once half
// a window is pending, and by Close. An idle consumer has therefore
// acked on the wire everything it Acked.
//
// Next, NextNoAck, NextMsgNoAck and Ack belong to one goroutine; Close
// may be called from another to unblock it.
type Consumer struct {
	conn      net.Conn
	r         *bufio.Reader
	delivered uint64 // deliveries read so far

	mu      sync.Mutex
	acked   uint64 // highest delivery the caller acked
	sentAck uint64 // highest ack written
	closed  bool
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
// fault-injecting one) to a queue. A peer that is not a broker of this
// wire version fails with ErrWireProtocol; the connection is closed on
// any error.
func NewConsumerConn(conn net.Conn, queueName string) (*Consumer, error) {
	c := &Consumer{conn: conn, r: bufio.NewReaderSize(conn, consumerReadBuf)}
	if err := clientHandshake(conn, c.r, appendSub(nil, queueName)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("broker: subscribe: %w", err)
	}
	return c, nil
}

// NextNoAck blocks for the next message WITHOUT acknowledging; the
// caller must Ack (or disconnect, causing redelivery), which gives
// consumers at-least-once delivery. It returns io.EOF when the broker or
// connection shuts down cleanly; transport faults surface as errors
// rather than being mistaken for shutdown.
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
// replicated deliveries by. The body is the caller's to keep.
func (c *Consumer) NextMsgNoAck() (Msg, error) {
	if !framelog.Buffered(c.r) {
		if err := c.flushAck(); err != nil {
			return Msg{}, consumeErr(err)
		}
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return Msg{}, io.EOF
	}
	// Each delivery gets its own buffer, so the body never aliases a
	// buffer a later read reuses.
	typ, p, err := framelog.ReadFrame(c.r, nil, maxFramePayload)
	if err != nil {
		return Msg{}, consumeErr(err)
	}
	switch typ {
	case typeMsg:
		m, err := parseMsg(p)
		if err != nil {
			return Msg{}, fmt.Errorf("broker: consume: %w", err)
		}
		c.delivered++
		return m, nil
	case typeErr:
		f, err := parseStrings(p, 2)
		if err != nil {
			return Msg{}, fmt.Errorf("broker: consume: %w", err)
		}
		return Msg{}, fmt.Errorf("broker: server error: %s", f[1])
	default:
		return Msg{}, fmt.Errorf("%w: unexpected delivery frame type %q", ErrWireProtocol, typ)
	}
}

// consumeErr maps a transport error to io.EOF when it is the broker or
// the connection shutting down.
func consumeErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || isConnReset(err) {
		return io.EOF
	}
	return fmt.Errorf("broker: consume: %w", err)
}

// Ack acknowledges every message returned so far by NextNoAck.
func (c *Consumer) Ack() error {
	c.mu.Lock()
	c.acked = c.delivered
	deferrable := c.acked-c.sentAck < consumerWindow/2
	c.mu.Unlock()
	if deferrable && framelog.Buffered(c.r) {
		return nil
	}
	if err := c.flushAck(); err != nil {
		return fmt.Errorf("broker: ack: %w", err)
	}
	return nil
}

// flushAck writes the pending cumulative ack, if any.
func (c *Consumer) flushAck() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acked == c.sentAck {
		return nil
	}
	if c.closed {
		return net.ErrClosed
	}
	var b [16]byte
	if _, err := c.conn.Write(appendAck(b[:0], c.acked)); err != nil {
		return err
	}
	c.sentAck = c.acked
	return nil
}

// Close writes any pending ack and closes the consumer connection.
// Messages delivered and not acked are redelivered to another consumer.
func (c *Consumer) Close() error {
	ackErr := c.flushAck()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if err := c.conn.Close(); err != nil {
		return err
	}
	return ackErr
}

// isConnReset reports whether the error is a peer reset/abort — the
// normal signature of the broker (or the OS) tearing the socket down.
func isConnReset(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe)
}
