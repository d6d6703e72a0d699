// Package rawfile is the on-disk raw stats archive layer: node loggers,
// the central store, and the archiver that the daemon-mode consumer
// writes through.
//
// The snapshot encodings themselves live in internal/codec — the
// line-oriented text format this package originally implemented is
// codec v1 there (byte-identical), alongside the framed binary codec
// v2. This package re-exports the v1-era API (Writer, Parse,
// ParseRecover) as thin wrappers so existing callers and archived files
// keep working; readers sniff the codec per file, so text and binary
// archives coexist in one store.
package rawfile

import (
	"io"

	"gostats/internal/codec"
	"gostats/internal/model"
)

// Version is the text file format version this package reads and writes.
const Version = codec.TextVersion

// Header carries the per-file metadata and the schema registry needed to
// interpret record lines.
type Header = codec.Header

// Writer emits raw stats files in the v1 text codec.
type Writer struct {
	enc codec.SnapshotEncoder
}

// NewWriter wraps w for text raw stats output with the given header.
func NewWriter(w io.Writer, h Header) *Writer {
	enc, err := codec.NewEncoder(w, h, codec.V1Text)
	if err != nil {
		// The text encoder has no failing constructions.
		panic(err)
	}
	return &Writer{enc: enc}
}

// WriteHeader emits the file header. It is called automatically by the
// first WriteSnapshot if not called explicitly.
func (w *Writer) WriteHeader() error { return w.enc.WriteHeader() }

// WriteSnapshot appends one collection block.
func (w *Writer) WriteSnapshot(s model.Snapshot) error { return w.enc.WriteSnapshot(s) }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.enc.Flush() }

// File is a fully parsed raw stats file.
type File struct {
	Header    Header
	Snapshots []model.Snapshot
}

func fromStream(st *codec.Stream) *File {
	if st == nil {
		return nil
	}
	return &File{Header: st.Header, Snapshots: st.Snapshots}
}

// Parse reads a complete raw stats file in either codec (sniffed from
// the first bytes). Records whose class is absent from the header
// registry are rejected: a schema mismatch means the file and the
// reader disagree about layout and silently guessing would corrupt
// every downstream metric.
func Parse(r io.Reader) (*File, error) {
	st, err := codec.DecodeAll(r)
	if err != nil {
		return nil, err
	}
	return fromStream(st), nil
}

// ParseLenient parses as much of a raw stats file as possible: a file
// cut off mid-write (the node lost power between a timestamp line and
// its records, or mid-record) yields every complete snapshot before the
// damage plus the error describing it. Cron mode hits this whenever a
// node dies with a partially flushed log; recovering the intact prefix
// beats discarding the day.
func ParseLenient(r io.Reader) (*File, error) {
	f, _, err := ParseRecover(r)
	return f, err
}

// ParseRecover is ParseLenient exposing the damage itself: alongside the
// intact-prefix parse it returns the torn tail bytes that were discarded
// (nil for an undamaged file). Callers that need frame-granularity
// durability (the daemon-mode write-ahead spool) inspect the tail to
// decide whether the final recovered snapshot was itself mid-write when
// the node died: for text files a tail starting with a timestamp means
// the tear sits at the NEXT frame's boundary; binary frames are atomic,
// so recovered snapshots are always whole.
func ParseRecover(r io.Reader) (*File, []byte, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	st, tail, perr := codec.RecoverPrefix(data)
	return fromStream(st), tail, perr
}
