// Package framelog is the one place that knows the frame format every
// framed gostats file and stream is built from: codec v2 snapshot
// streams, segstore segment files and the reldb job journal.
//
// A framed file is a preamble followed by frames:
//
//	preamble = magic(4) | uvarint version
//	frame    = type(1) | uvarint len | payload(len) | crc32c(payload)
//
// The checksum is CRC-32C (Castagnoli), little-endian, and covers the
// payload only — not the type byte and not the length. A damaged length
// surfaces as a torn, oversize or mis-checksummed frame; a damaged type
// byte can only be caught by the reader, so every reader treats a type
// its format version never wrote as damage, and a new frame type needs
// a new format version.
//
// Writers assemble each frame in memory and hand it to the OS in one
// write, so a crash leaves whole frames followed by at most one torn
// one. Scan returns that valid prefix and classifies the damage after
// it; what the damage costs (keep the prefix, truncate, quarantine) is
// each caller's policy.
package framelog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"

	"gostats/internal/fsutil"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C every frame carries over its payload.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Append appends one complete frame to dst. The payload is the
// concatenation of parts, so a caller can frame a small header and a
// large body without first copying them together.
func Append(dst []byte, typ byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(n))
	start := len(dst)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return binary.LittleEndian.AppendUint32(dst, Checksum(dst[start:]))
}

// UvarintLen is the length of v's minimal uvarint encoding, the only
// one writers produce.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Frame is one checksum-verified frame found by Scan.
type Frame struct {
	Type    byte
	Payload []byte // aliases the scanned data
	Off     int    // offset of the type byte
	End     int    // offset just past the checksum
}

// Kind classifies framing damage.
type Kind uint8

const (
	// TornLength: the length varint runs off the end of the data.
	TornLength Kind = iota + 1
	// BadLength: the length varint overflows or is not minimally
	// encoded, which no writer produces.
	BadLength
	// TornFrame: the frame's declared extent runs past the end.
	TornFrame
	// Oversize: the declared payload exceeds the caller's bound.
	Oversize
	// BadChecksum: the payload does not match its CRC.
	BadChecksum
)

var kindNames = [...]string{TornLength: "torn frame length", BadLength: "malformed frame length",
	TornFrame: "torn frame", Oversize: "oversize frame", BadChecksum: "frame checksum mismatch"}

func (k Kind) String() string { return kindNames[k] }

// Damage describes the first frame Scan could not verify.
type Damage struct {
	Off  int  // offset of the damaged frame's type byte
	Type byte // its (unverified) type byte
	Kind Kind
	// AtEOF reports that no data follows the damaged frame: its
	// declared extent reaches or passes the end of the data.
	AtEOF bool
}

func (d *Damage) Error() string {
	return fmt.Sprintf("framelog: %s at offset %d (type %q)", d.Kind, d.Off, d.Type)
}

// Scan walks the frames of data from offset start, calling fn for each
// checksum-verified frame in order. It stops at the first framing
// damage (returned as *Damage) or the first error fn returns (returned
// as is). good is the offset just past the last frame fn accepted: the
// valid prefix a caller keeps or truncates to.
func Scan(data []byte, start, maxPayload int, fn func(Frame) error) (good int, err error) {
	off := start
	for off < len(data) {
		typ := data[off]
		n, un, kind := parseLen(data[off+1:])
		if kind != 0 {
			return off, &Damage{Off: off, Type: typ, Kind: kind, AtEOF: kind == TornLength}
		}
		pos := off + 1 + un
		rest := uint64(len(data) - pos)
		if n > uint64(maxPayload) {
			return off, &Damage{Off: off, Type: typ, Kind: Oversize, AtEOF: rest < 4 || n >= rest-4}
		}
		if rest < n+4 {
			return off, &Damage{Off: off, Type: typ, Kind: TornFrame, AtEOF: true}
		}
		end := pos + int(n) + 4
		payload := data[pos : pos+int(n)]
		if Checksum(payload) != binary.LittleEndian.Uint32(data[end-4:end]) {
			return off, &Damage{Off: off, Type: typ, Kind: BadChecksum, AtEOF: end == len(data)}
		}
		if err := fn(Frame{Type: typ, Payload: payload, Off: off, End: end}); err != nil {
			return off, err
		}
		off = end
	}
	return off, nil
}

// parseLen reads a frame's length varint from the start of b, which
// must be minimally encoded so that a verified frame re-encodes to the
// same bytes.
func parseLen(b []byte) (n uint64, un int, bad Kind) {
	n, un = binary.Uvarint(b)
	switch {
	case un == 0:
		return 0, 0, TornLength
	case un < 0 || un != UvarintLen(n):
		return 0, 0, BadLength
	}
	return n, un, 0
}

// Decode verifies that buf holds exactly one frame and returns it.
func Decode(buf []byte) (typ byte, payload []byte, err error) {
	if len(buf) == 0 {
		return 0, nil, fmt.Errorf("framelog: empty frame")
	}
	n, un, kind := parseLen(buf[1:])
	if kind != 0 || uint64(len(buf)-1-un) != n+4 {
		return 0, nil, fmt.Errorf("framelog: frame length disagrees with its %d-byte extent", len(buf))
	}
	payload = buf[1+un : len(buf)-4]
	if Checksum(payload) != binary.LittleEndian.Uint32(buf[len(buf)-4:]) {
		return 0, nil, fmt.Errorf("framelog: %s", BadChecksum)
	}
	return buf[0], payload, nil
}

// ReadFrame reads one checksum-verified frame from r into buf, growing
// it when needed; the returned payload reuses buf's storage, so callers
// pass it back in to read the next frame. A clean end of stream at a
// frame boundary is io.EOF; a stream torn inside a frame is
// io.ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader, buf []byte, maxPayload int) (typ byte, payload []byte, err error) {
	typ, err = r.ReadByte()
	if err != nil {
		return 0, buf, err
	}
	// The length is read a byte at a time, never past its end: on a live
	// stream the bytes after a short frame may not have been sent yet.
	var lb [binary.MaxVarintLen64]byte
	un := 0
	for un == 0 || (lb[un-1] >= 0x80 && un < len(lb)) {
		b, err := r.ReadByte()
		if err != nil {
			return 0, buf, fmt.Errorf("framelog: %s: %w", TornLength, unexpected(err))
		}
		lb[un] = b
		un++
	}
	n, _, kind := parseLen(lb[:un])
	if kind != 0 {
		return 0, buf, fmt.Errorf("framelog: %s", BadLength)
	}
	if n > uint64(maxPayload) {
		return 0, buf, fmt.Errorf("framelog: %s: %d-byte payload", Oversize, n)
	}
	if uint64(cap(buf)) < n+4 {
		buf = make([]byte, n+4)
	}
	frame := buf[:n+4]
	if _, err := io.ReadFull(r, frame); err != nil {
		return 0, buf, fmt.Errorf("framelog: %s: %w", TornFrame, unexpected(err))
	}
	payload = frame[:n]
	if Checksum(payload) != binary.LittleEndian.Uint32(frame[n:]) {
		return 0, buf, fmt.Errorf("framelog: %s", BadChecksum)
	}
	return typ, payload, nil
}

// Buffered reports whether r already holds the whole of its next frame,
// so that reading it cannot block.
func Buffered(r *bufio.Reader) bool {
	b, _ := r.Peek(r.Buffered()) // never blocks: only what is buffered
	if len(b) < 2 {
		return false
	}
	n, un, kind := parseLen(b[1:])
	return kind == 0 && uint64(len(b)-1-un) >= n+4
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// AppendPreamble appends magic and the uvarint format version to dst.
func AppendPreamble(dst []byte, magic [4]byte, version uint64) []byte {
	return binary.AppendUvarint(append(dst, magic[:]...), version)
}

// Preamble classifies the first bytes of a framed file.
type Preamble uint8

func (p Preamble) String() string {
	return [...]string{"valid", "partial", "foreign", "unsupported-version"}[p]
}

const (
	// PreambleOK: magic and version match.
	PreambleOK Preamble = iota
	// PreamblePartial: the data is a strict prefix of a preamble — what
	// a crash between creating a file and its preamble reaching disk
	// leaves (an empty file included).
	PreamblePartial
	// PreambleForeign: the data does not start with the magic.
	PreambleForeign
	// PreambleVersion: the magic matches but the version does not.
	PreambleVersion
)

// CheckPreamble classifies data's preamble and, when it is PreambleOK,
// returns its length (the offset of the first frame).
func CheckPreamble(data []byte, magic [4]byte, version uint64) (int, Preamble) {
	m := min(len(data), len(magic))
	if string(data[:m]) != string(magic[:m]) {
		return 0, PreambleForeign
	}
	if len(data) <= len(magic) {
		return 0, PreamblePartial
	}
	v, n := binary.Uvarint(data[len(magic):])
	switch {
	case n == 0:
		return 0, PreamblePartial
	case n < 0 || v != version:
		return 0, PreambleVersion
	}
	return len(magic) + n, PreambleOK
}

// Create creates (or truncates) path and writes the preamble, returning
// the file positioned after it and the preamble's length. With sync
// set, the preamble and the new directory entry are fsynced before
// Create returns, so frames later fsynced into the file cannot vanish
// with the entry on power loss. On error nothing is left at path.
func Create(path string, magic [4]byte, version uint64, sync bool) (*os.File, int, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	pre := AppendPreamble(nil, magic, version)
	_, err = f.Write(pre)
	if err == nil && sync {
		if err = f.Sync(); err == nil {
			err = fsutil.SyncDir(filepath.Dir(path))
		}
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	return f, len(pre), nil
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Cursor is a bounds-checked reader over a frame payload. Signed
// values are zigzag varints (encoding/binary's AppendVarint).
type Cursor struct {
	B   []byte
	Off int
}

// Len reports the bytes left to read.
func (c *Cursor) Len() int { return len(c.B) - c.Off }

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.B[c.Off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", c.Off)
	}
	c.Off += n
	return v, nil
}

// Varint reads a zigzag-encoded signed varint.
func (c *Cursor) Varint() (int64, error) {
	v, n := binary.Varint(c.B[c.Off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", c.Off)
	}
	c.Off += n
	return v, nil
}

// Count reads an element count and checks it against the bytes left
// (each element occupies at least minBytes), so a corrupt count cannot
// drive a huge allocation.
func (c *Cursor) Count(minBytes int) (int, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(c.Len())/uint64(minBytes)+1 {
		return 0, fmt.Errorf("count %d exceeds frame size", v)
	}
	return int(v), nil
}

// Str reads a uvarint-length-prefixed string.
func (c *Cursor) Str() (string, error) {
	b, err := c.Bytes()
	return string(b), err
}

// Bytes reads a uvarint-length-prefixed string as a view of the
// payload, so a caller that only compares it allocates nothing.
func (c *Cursor) Bytes() ([]byte, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.Len()) {
		return nil, fmt.Errorf("string length %d exceeds frame size", n)
	}
	b := c.B[c.Off : c.Off+int(n)]
	c.Off += int(n)
	return b, nil
}

// Float reads a little-endian IEEE-754 float64.
func (c *Cursor) Float() (float64, error) {
	if c.Len() < 8 {
		return 0, fmt.Errorf("truncated float at offset %d", c.Off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.B[c.Off:]))
	c.Off += 8
	return v, nil
}
