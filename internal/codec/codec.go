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
// value vectors). Frames are CRC-guarded; Recover states the one crash
// recovery rule both codecs follow.
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
	// WriteSnapshotLines appends s given its v1 text record lines as
	// DecodeWireLines certified them (nil when it certified none). The
	// text codec writes the block head it encodes from s, then lines
	// as they are; the binary codec encodes s and ignores lines.
	WriteSnapshotLines(s model.Snapshot, lines []byte) error
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

// Recover is the one recovery rule for a damaged snapshot stream of
// either codec. It returns the whole snapshots before the first damage,
// the byte length keep of the prefix that holds them (header included),
// and the damage: nil for an intact stream, whose keep is len(data). A
// stream damaged in or before its header keeps nothing: st is nil and
// keep is 0. Cutting the stream to keep and appending is always safe.
//
// A binary snapshot is one CRC-guarded frame. A text snapshot is a
// block of lines with no end marker, so it is whole unless the damage
// lies inside it: damage on the line that starts the next block (a torn
// timestamp line begins with a digit) keeps the block before it. The
// streaming decoders yield exactly these snapshots before they return
// the damage.
func Recover(data []byte) (st *Stream, keep int, damage error) {
	v, err := Sniff(data)
	if err != nil {
		return nil, 0, err
	}
	if v == V1Text {
		return recoverText(data)
	}
	return recoverBinary(data)
}
