// Package rawfile is the on-disk raw stats archive layer: node loggers,
// the central store, and the archiver that the daemon-mode consumer
// writes through. Every raw-stream file — these and the daemon spool's
// segments — is written by one Appender, which owns opening, appending,
// failing and closing it.
//
// The snapshot encodings themselves live in internal/codec: the
// line-oriented text format (codec v1) and the framed binary codec v2.
// Readers sniff the codec per file, so text and binary archives coexist
// in one store, and every reader and writer of a raw file recovers it
// by codec.Recover's one rule (see Trim).
package rawfile

import (
	"os"

	"gostats/internal/codec"
)

// Header carries the per-file metadata and the schema registry needed to
// interpret records.
type Header = codec.Header

// Trim cuts the raw snapshot file at path back to its whole snapshots
// before the first damage (codec.Recover) and fsyncs the cut. It returns
// those snapshots, nil when the header is damaged (the file is then
// emptied), and whether anything was cut. A missing file, and a file in
// no known codec, are left as they are, with a nil stream.
func Trim(path string) (st *codec.Stream, cut bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	if _, err := codec.Sniff(data); err != nil {
		return nil, false, nil
	}
	st, keep, _ := codec.Recover(data)
	if keep == len(data) {
		return st, false, nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, false, err
	}
	err = f.Truncate(int64(keep))
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return st, true, err
}
