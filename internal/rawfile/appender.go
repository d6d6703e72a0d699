package rawfile

import (
	"fmt"
	"io"
	"os"
	"sync"

	"gostats/internal/codec"
	"gostats/internal/model"
)

// Files is the set of raw-stream files one writer has opened. The
// first open of a path trims a torn tail (Trim). A failed append never
// leaves torn bytes behind (see Appender.Append), so only a crash tears
// a file, and a crash ends the process that was writing: each file is
// scanned at most once per process however often a bounded cache
// reopens it. The zero value is ready to use.
type Files struct {
	mu   sync.Mutex
	done map[string]bool
}

// Open opens path for appending under header h. A non-empty file
// continues in the codec it already holds (sniffed from its first
// bytes), so mixed-version archives stay consistent; a new or empty
// file starts in v.
func (fs *Files) Open(path string, h Header, v codec.Version) (*Appender, error) {
	a := &Appender{files: fs, path: path, h: h, v: v}
	if err := a.open(); err != nil {
		return nil, err
	}
	return a, nil
}

// trimOnce trims path the first time this set opens it: a crash
// mid-append leaves part of a snapshot on disk, and every snapshot
// appended after it would be unreadable.
func (fs *Files) trimOnce(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.done[path] {
		return nil
	}
	if _, _, err := Trim(path); err != nil {
		return err
	}
	if fs.done == nil {
		fs.done = make(map[string]bool)
	}
	fs.done[path] = true
	return nil
}

// forget makes the next open of path trim it again.
func (fs *Files) forget(path string) {
	fs.mu.Lock()
	delete(fs.done, path)
	fs.mu.Unlock()
}

// Appender appends whole snapshots to one raw-stream file: a node log
// day file, a central archive day file, or a spool segment. Writes are
// unbuffered, so an appended snapshot is in the OS when Append returns.
// An Appender is not safe for concurrent use.
type Appender struct {
	files *Files
	path  string
	h     Header
	v     codec.Version // the file's codec
	w     sink          // zero-valued while the file is closed
	enc   codec.SnapshotEncoder
}

// sink is the encoder's writer: the open file, counting what reaches it.
type sink struct {
	f *os.File
	n int64 // the file's length
}

func (w *sink) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += int64(n)
	return n, err
}

// open (re)opens the file, trimming it on this set's first open, and
// builds the encoder that continues it.
func (a *Appender) open() error {
	if err := a.files.trimOnce(a.path); err != nil {
		return err
	}
	// O_APPEND: after a failed append is truncated away, the next write
	// lands at the new end rather than past it.
	f, err := os.OpenFile(a.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil && size > 0 {
		a.v, err = sniff(f)
		if err != nil {
			err = fmt.Errorf("rawfile: %s: %w", a.path, err)
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	a.w = sink{f: f, n: size}
	if err := a.newEncoder(); err != nil {
		a.w = sink{}
		f.Close()
		return err
	}
	return nil
}

// sniff reports the codec of the stream in the non-empty file f.
func sniff(f *os.File) (codec.Version, error) {
	var prefix [8]byte
	n, err := f.ReadAt(prefix[:], 0)
	if err != nil && err != io.EOF {
		return codec.VersionUnknown, err
	}
	return codec.Sniff(prefix[:n])
}

// newEncoder starts the file's stream if it is empty, and otherwise
// continues it: the text codec writes no second header, the binary
// codec a fresh header frame that resets decoder state.
func (a *Appender) newEncoder() error {
	var err error
	if a.w.n == 0 {
		a.enc, err = codec.NewEncoder(&a.w, a.h, a.v)
	} else {
		a.enc, err = codec.NewContinuation(&a.w, a.h, a.v)
	}
	return err
}

// Append writes s, given the v1 record lines codec.DecodeWireLines
// certified for it (nil when there are none; see
// codec.SnapshotEncoder.WriteSnapshotLines).
//
// A failed append leaves the file as it was before the call: the file
// is truncated back to its previous length and the encoder is dropped,
// since it has already advanced its delta and dictionary state for the
// snapshot it never wrote; the next append builds a continuation
// encoder. If the truncate fails too, the file is closed and its path
// forgotten by the set, so the next append reopens and trims it.
func (a *Appender) Append(s model.Snapshot, lines []byte) error {
	if a.w.f == nil {
		if err := a.open(); err != nil {
			return err
		}
	} else if a.enc == nil {
		if err := a.newEncoder(); err != nil {
			return err
		}
	}
	before := a.w.n
	err := a.enc.WriteSnapshotLines(s, lines)
	if err == nil {
		return nil
	}
	a.enc = nil
	if terr := a.w.f.Truncate(before); terr != nil {
		a.files.forget(a.path)
		a.w.f.Close()
		a.w = sink{}
		return err
	}
	a.w.n = before
	return err
}

// Size reports the file's length after the last append.
func (a *Appender) Size() int64 { return a.w.n }

// Sync fsyncs the file.
func (a *Appender) Sync() error { return a.w.f.Sync() }

// Close closes the file.
func (a *Appender) Close() error {
	if a.w.f == nil {
		return nil
	}
	err := a.w.f.Close()
	a.w, a.enc = sink{}, nil
	return err
}
