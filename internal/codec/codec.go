// Package codec implements the versioned snapshot encodings every layer
// of the gostats pipeline speaks: the line-oriented text format the
// original deployment used (codec v1, unchanged byte-for-byte) and a
// compact self-describing binary format (codec v2) for the daemon-mode
// write path.
//
// The codec is negotiated per-file and per-connection: streams are
// self-identifying (text starts with '$', binary with a magic prefix),
// so readers sniff the version and old spools and archives keep parsing
// while new producers switch to binary. A single SnapshotEncoder /
// SnapshotDecoder pair replaces the ad-hoc format plumbing that
// collection, the broker, the spool, the archiver, and the ETL each
// grew independently.
//
// A codec v2 stream is an internal/framelog file (magic "\x00GSB",
// version 2; DESIGN.md §10 has the full byte spec) with two frame
// types: 'H' (header: hostname, arch, schema lines — resets all decoder
// state, so appending to an existing file just writes a fresh header
// frame) and 'S' (snapshot: delta-of-millis timestamp,
// dictionary-encoded job ids and instances, class refs into the
// header's schema order, and per-(class,instance) delta-encoded varint
// value vectors). Frames are CRC-guarded, so crash recovery is exact at
// frame granularity: a torn tail never yields a partial snapshot.
package codec

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// Version identifies a snapshot encoding.
type Version uint8

const (
	// VersionUnknown is the zero Version; encoders reject it, and a
	// broker publish declaring it declares no codec.
	VersionUnknown Version = 0
	// V1Text is the original line-oriented raw stats file format.
	V1Text Version = 1
	// V2Binary is the framed, dictionary- and delta-encoded binary format.
	V2Binary Version = 2
)

// String implements fmt.Stringer.
func (v Version) String() string {
	switch v {
	case V1Text:
		return "v1-text"
	case V2Binary:
		return "v2-binary"
	default:
		return fmt.Sprintf("v%d-unknown", uint8(v))
	}
}

// ParseVersion maps the operator-facing names ("text", "binary") and
// numeric forms to a Version.
func ParseVersion(s string) (Version, error) {
	switch strings.ToLower(s) {
	case "text", "v1", "1", "v1-text":
		return V1Text, nil
	case "binary", "v2", "2", "v2-binary":
		return V2Binary, nil
	default:
		return VersionUnknown, fmt.Errorf("codec: unknown codec %q (want text or binary)", s)
	}
}

// Header carries the per-stream metadata and the schema registry needed
// to interpret snapshot records. It is shared by every codec version
// (rawfile.Header is an alias of this type).
type Header struct {
	Hostname string
	Arch     string
	Registry *schema.Registry
}

// SnapshotEncoder writes a stream of snapshots under one header.
type SnapshotEncoder interface {
	// WriteHeader emits the stream header; it is idempotent and called
	// automatically by the first WriteSnapshot.
	WriteHeader() error
	// WriteSnapshot appends one snapshot frame.
	WriteSnapshot(model.Snapshot) error
	// Flush pushes buffered output to the underlying writer.
	Flush() error
}

// SnapshotDecoder reads a stream of snapshots.
type SnapshotDecoder interface {
	// Version reports the negotiated codec version of the stream.
	Version() Version
	// Header returns the stream header (for binary streams, the most
	// recently seen header frame).
	Header() Header
	// Next returns the next snapshot, or io.EOF at a clean end of
	// stream.
	Next() (model.Snapshot, error)
}

// Stream is a fully decoded snapshot stream.
type Stream struct {
	Version   Version
	Header    Header
	Snapshots []model.Snapshot
}

// NewEncoder returns an encoder writing version v to w under header h.
func NewEncoder(w io.Writer, h Header, v Version) (SnapshotEncoder, error) {
	switch v {
	case V1Text:
		return newTextEncoder(w, h), nil
	case V2Binary:
		return newBinaryEncoder(w, h, false)
	default:
		return nil, fmt.Errorf("codec: cannot encode version %s", v)
	}
}

// NewContinuation returns an encoder for appending to an existing
// non-empty stream of version v: the text codec suppresses its (already
// present) header, while the binary codec skips the magic and emits a
// fresh header frame, which resets decoder state at that point in the
// file.
func NewContinuation(w io.Writer, h Header, v Version) (SnapshotEncoder, error) {
	switch v {
	case V1Text:
		e := newTextEncoder(w, h)
		e.wroteHeader = true
		return e, nil
	case V2Binary:
		return newBinaryEncoder(w, h, true)
	default:
		return nil, fmt.Errorf("codec: cannot encode version %s", v)
	}
}

// Sniff reports the codec version of a stream from its first bytes
// without consuming them. An empty or unrecognizable prefix is an error.
func Sniff(prefix []byte) (Version, error) {
	if len(prefix) == 0 {
		return VersionUnknown, fmt.Errorf("codec: empty stream")
	}
	if prefix[0] == '$' {
		return V1Text, nil
	}
	if len(prefix) >= len(binMagic) && bytes.Equal(prefix[:len(binMagic)], binMagic[:]) {
		return V2Binary, nil
	}
	return VersionUnknown, fmt.Errorf("codec: unrecognized stream prefix % x", prefix[:min(len(prefix), 4)])
}

// NewDecoder sniffs the stream version and returns the matching decoder.
// The header is consumed eagerly, so Header() is valid immediately.
func NewDecoder(r io.Reader) (SnapshotDecoder, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	prefix, err := br.Peek(len(binMagic))
	if err != nil && len(prefix) == 0 {
		if err == io.EOF {
			return nil, fmt.Errorf("codec: empty stream")
		}
		return nil, err
	}
	v, err := Sniff(prefix)
	if err != nil {
		return nil, err
	}
	switch v {
	case V1Text:
		return newTextDecoder(br)
	default:
		return newBinaryDecoder(br)
	}
}

// DecodeAll reads an entire stream of any version.
func DecodeAll(r io.Reader) (*Stream, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	st := &Stream{Version: d.Version()}
	for {
		s, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		st.Snapshots = append(st.Snapshots, s)
	}
	st.Header = d.Header()
	return st, nil
}

// RecoverPrefix parses as much of a damaged stream as possible: the
// intact prefix, the torn tail bytes that were discarded (nil for an
// undamaged stream), and the error describing the damage. For text
// streams the last snapshot may be partial (its complete record lines
// survive); binary frames are atomic, so recovered snapshots are always
// whole.
func RecoverPrefix(data []byte) (*Stream, []byte, error) {
	v, err := Sniff(data)
	if err != nil {
		return nil, data, err
	}
	if v == V1Text {
		return recoverText(data)
	}
	return recoverBinary(data)
}

// RecoverFrames is RecoverPrefix with frame-granularity guarantees for
// every version: a snapshot whose own block was torn mid-write is
// dropped whole rather than returned partially, and the returned tail
// is everything after the last whole snapshot. This is the recovery
// the write-ahead spool and the archive's append path use — an append
// that never returned must not replay a truncated snapshot downstream,
// and new appends must follow the last whole one.
func RecoverFrames(data []byte) (*Stream, []byte, error) {
	st, tail, err := RecoverPrefix(data)
	if st == nil || err == nil {
		return st, tail, err
	}
	if st.Version == V1Text && len(st.Snapshots) > 0 && textTornInsideLastFrame(tail) {
		// The tear sits inside the last snapshot's own block: its write
		// never completed, so it was never acknowledged.
		st.Snapshots = st.Snapshots[:len(st.Snapshots)-1]
		tail = data[textLastBlockStart(data[:len(data)-len(tail)]):]
	}
	return st, tail, err
}
