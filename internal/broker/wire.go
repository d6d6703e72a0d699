package broker

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"gostats/internal/codec"
	"gostats/internal/framelog"
)

// The wire protocol is a framelog stream in each direction: a preamble
// (wireMagic, wireVersion), then one frame per operation. Every payload
// has a fixed layout; strings are uvarint-length-prefixed and a body is
// the rest of the payload:
//
//	pub 'P'  flags(1) | codec(1) | queue | host | uvarint seq | body
//	sub 'S'  queue
//	msg 'M'  host | uvarint seq | body
//	ack 'A'  uvarint n
//	err 'E'  code | text
//	map 'F'  uvarint version | payload
//
// An ack from a consumer carries the highest delivery number it has
// processed (deliveries are numbered from 1 per connection); an ack to
// a confirmed publish carries the broker's fabric map version. A map
// request is a map frame with version 0 and no payload.
//
// Every varint is minimally encoded, so a frame has exactly one
// encoding, and a type this version never wrote is damage.
const (
	typePub byte = 'P'
	typeSub byte = 'S'
	typeMsg byte = 'M'
	typeAck byte = 'A'
	typeErr byte = 'E'
	typeMap byte = 'F'
)

var wireMagic = [4]byte{'G', 'S', 'B', 'R'}

const wireVersion = 1

// maxFramePayload bounds one frame; ReadFrame refuses a longer one
// before allocating for it.
const maxFramePayload = 16 << 20

// pubConfirm is the flags bit of a publish that asks to be acked.
const pubConfirm = 1

// handshakeTimeout bounds a new client's wait for the server preamble.
const handshakeTimeout = 5 * time.Second

// ErrWireProtocol is returned when the peer does not speak this wire
// protocol: it closed during the handshake, answered with a foreign or
// unsupported preamble, or sent a frame the protocol does not allow.
var ErrWireProtocol = errors.New("broker: peer does not speak the broker wire protocol")

// pubFrame is one publish.
type pubFrame struct {
	Queue   string
	Codec   codec.Version
	Confirm bool
	Host    string
	Seq     uint64
	Body    []byte
}

// appendHead appends the payload fields that precede the body.
func (f *pubFrame) appendHead(b []byte) []byte {
	var flags byte
	if f.Confirm {
		flags = pubConfirm
	}
	b = append(b, flags, byte(f.Codec))
	b = framelog.AppendString(b, f.Queue)
	b = framelog.AppendString(b, f.Host)
	return binary.AppendUvarint(b, f.Seq)
}

func parsePub(p []byte) (pubFrame, error) {
	var f pubFrame
	if len(p) < 2 || p[0]&^pubConfirm != 0 {
		return f, fmt.Errorf("%w: malformed publish flags", ErrWireProtocol)
	}
	f.Confirm, f.Codec = p[0] == pubConfirm, codec.Version(p[1])
	c := framelog.Cursor{B: p, Off: 2}
	var err error
	if f.Queue, err = readStr(&c); err != nil {
		return f, err
	}
	if f.Host, err = readStr(&c); err != nil {
		return f, err
	}
	if f.Seq, err = readUvarint(&c); err != nil {
		return f, err
	}
	f.Body = p[c.Off:]
	return f, nil
}

// appendHead appends the payload fields of a delivery that precede its
// body.
func (m *Msg) appendHead(b []byte) []byte {
	return binary.AppendUvarint(framelog.AppendString(b, m.Host), m.Seq)
}

func parseMsg(p []byte) (Msg, error) {
	var m Msg
	c := framelog.Cursor{B: p}
	var err error
	if m.Host, err = readStr(&c); err != nil {
		return m, err
	}
	if m.Seq, err = readUvarint(&c); err != nil {
		return m, err
	}
	m.Body = p[c.Off:]
	return m, nil
}

// parseUvarintPayload decodes a payload holding exactly one uvarint
// (ack frames).
func parseUvarintPayload(p []byte) (uint64, error) {
	c := framelog.Cursor{B: p}
	v, err := readUvarint(&c)
	if err == nil && c.Len() != 0 {
		err = fmt.Errorf("%w: %d trailing bytes", ErrWireProtocol, c.Len())
	}
	return v, err
}

// parseStrings decodes a payload holding exactly n strings (sub and err
// frames).
func parseStrings(p []byte, n int) ([]string, error) {
	c := framelog.Cursor{B: p}
	out := make([]string, n)
	for i := range out {
		s, err := readStr(&c)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWireProtocol, c.Len())
	}
	return out, nil
}

func parseMap(p []byte) (version uint64, payload []byte, err error) {
	c := framelog.Cursor{B: p}
	if version, err = readUvarint(&c); err != nil {
		return 0, nil, err
	}
	return version, p[c.Off:], nil
}

// appendAck, appendErr, appendSub and appendMap append complete frames.
func appendAck(dst []byte, n uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return framelog.Append(dst, typeAck, binary.AppendUvarint(b[:0], n))
}

func appendErr(dst []byte, code, text string) []byte {
	return framelog.Append(dst, typeErr, framelog.AppendString(framelog.AppendString(nil, code), text))
}

func appendSub(dst []byte, queue string) []byte {
	return framelog.Append(dst, typeSub, framelog.AppendString(nil, queue))
}

func appendMap(dst []byte, version uint64, payload []byte) []byte {
	var b [binary.MaxVarintLen64]byte
	return framelog.Append(dst, typeMap, binary.AppendUvarint(b[:0], version), payload)
}

// readUvarint and readStr are framelog.Cursor reads that also refuse a
// varint no writer produces (a non-minimal encoding).
func readUvarint(c *framelog.Cursor) (uint64, error) {
	off := c.Off
	v, err := c.Uvarint()
	if err == nil && c.Off-off != framelog.UvarintLen(v) {
		err = fmt.Errorf("non-minimal varint at offset %d", off)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrWireProtocol, err)
	}
	return v, nil
}

func readStr(c *framelog.Cursor) (string, error) {
	off := c.Off
	s, err := c.Str()
	if err == nil && c.Off-off != framelog.UvarintLen(uint64(len(s)))+len(s) {
		err = fmt.Errorf("non-minimal string length at offset %d", off)
	}
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrWireProtocol, err)
	}
	return s, nil
}

// preamble is what each side writes first.
var preamble = framelog.AppendPreamble(nil, wireMagic, wireVersion)

// readPreamble consumes the peer's preamble from r. heard reports
// whether the peer sent anything at all before the read failed.
func readPreamble(r *bufio.Reader) (p framelog.Preamble, heard bool, err error) {
	b, err := r.Peek(len(preamble))
	_, p = framelog.CheckPreamble(b, wireMagic, wireVersion)
	if p == framelog.PreamblePartial && err == nil {
		// All of it arrived yet the version varint runs on: a version
		// this one cannot be.
		p = framelog.PreambleVersion
	}
	if p == framelog.PreambleOK {
		r.Discard(len(preamble))
		return p, true, nil
	}
	return p, len(b) > 0, err
}

// clientHandshake writes the preamble followed by first (frames the
// client sends before any reply) and reads the server's preamble, all
// under handshakeTimeout. Any failure is ErrWireProtocol.
func clientHandshake(conn net.Conn, r *bufio.Reader, first []byte) error {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(append(append([]byte(nil), preamble...), first...)); err != nil {
		return fmt.Errorf("%w: handshake: %w", ErrWireProtocol, err)
	}
	p, _, err := readPreamble(r)
	switch {
	case p == framelog.PreambleOK:
		return nil
	case err != nil:
		return fmt.Errorf("%w: handshake: %w", ErrWireProtocol, err)
	default:
		return fmt.Errorf("%w: %s server preamble", ErrWireProtocol, p)
	}
}
