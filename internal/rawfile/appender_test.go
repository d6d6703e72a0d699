package rawfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gostats/internal/codec"
	"gostats/internal/model"
)

var codecs = []codec.Version{codec.V1Text, codec.V2Binary}

// unknownClass is a snapshot the binary codec refuses: its record's
// class is not in the header's registry.
func unknownClass(t float64) model.Snapshot {
	s := testSnapshot(t)
	s.Records = append(s.Records, model.Record{Class: "nosuch", Instance: "0", Values: []uint64{1}})
	return s
}

// dayWriter is one open raw-file writer for host c401-101 under a
// store's root: append writes through its public API, and appender
// exposes the file's Appender once append has opened it.
type dayWriter struct {
	append   func(model.Snapshot) error
	appender func() *Appender
	close    func() error
}

var dayWriters = map[string]func(t *testing.T, st *Store) dayWriter{
	"Archiver": func(t *testing.T, st *Store) dayWriter {
		a := NewArchiver(st, 0)
		h := testHeader()
		return dayWriter{
			append: func(s model.Snapshot) error { return a.Append(h.Hostname, h, s) },
			appender: func() *Appender {
				app, _, err := a.files.Get(archKey{h.Hostname, 1451606400 / 86400}, nil)
				if err != nil {
					t.Fatal(err)
				}
				return app
			},
			close: a.Close,
		}
	},
	"NodeLogger": func(t *testing.T, st *Store) dayWriter {
		l, err := NewNodeLogger(filepath.Join(st.Root(), testHeader().Hostname), testHeader())
		if err != nil {
			t.Fatal(err)
		}
		l.SetCodec(st.Codec())
		return dayWriter{append: l.Log, appender: func() *Appender { return l.app }, close: l.Close}
	},
}

// readBack returns the snapshot times (relative to the day) that Walk
// and ReadHost each read from the store at dir, failing the test if
// either met damage.
func readBack(t *testing.T, dir string) []float64 {
	t.Helper()
	walked, recovered := walkTimes(t, dir)
	if recovered != 0 {
		t.Errorf("Walk recovered %d damaged files", recovered)
	}
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := st.ReadHost(testHeader().Hostname)
	if err != nil {
		t.Fatal(err)
	}
	var read []float64
	for _, s := range snaps {
		read = append(read, s.Time-1451606400)
	}
	if !slices.Equal(read, walked) {
		t.Errorf("ReadHost read %v, Walk walked %v", read, walked)
	}
	return walked
}

// cutWriter passes the first left bytes through and then fails, the way
// a write that hits a full disk lands part of its buffer.
type cutWriter struct {
	w    io.Writer
	left int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if len(p) <= c.left {
		n, err := c.w.Write(p)
		c.left -= n
		return n, err
	}
	n, _ := c.w.Write(p[:c.left])
	c.left = 0
	return n, errors.New("no space left on device")
}

// TestAppendCutShortLeavesFileWhole cuts one append short after some of
// its bytes reached the file. The failed append must leave the day file
// as it was, and the appends after it must continue the file, so readers
// see every snapshot whose append succeeded.
func TestAppendCutShortLeavesFileWhole(t *testing.T) {
	h := testHeader()
	for _, v := range codecs {
		// The failing append's bytes as a continuation encoder emits them.
		var full bytes.Buffer
		enc, err := codec.NewContinuation(&full, h, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteSnapshot(testSnapshot(1451606400 + 2*600)); err != nil {
			t.Fatal(err)
		}
		for name, open := range dayWriters {
			for _, frac := range []int{1, 50, 99} {
				st, err := NewStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				st.SetCodec(v)
				w := open(t, st)
				for _, i := range []int{0, 1} {
					if err := w.append(testSnapshot(float64(1451606400 + i*600))); err != nil {
						t.Fatal(err)
					}
				}
				app := w.appender()
				app.enc, err = codec.NewContinuation(&cutWriter{w: &app.w, left: full.Len() * frac / 100}, h, v)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.append(testSnapshot(1451606400 + 2*600)); err == nil {
					t.Fatalf("%v %s: cut append succeeded", v, name)
				}
				for _, i := range []int{3, 4} {
					if err := w.append(testSnapshot(float64(1451606400 + i*600))); err != nil {
						t.Fatalf("%v %s cut at %d%%: append after the failure: %v", v, name, frac, err)
					}
				}
				if err := w.close(); err != nil {
					t.Fatal(err)
				}
				if got, want := readBack(t, st.Root()), []float64{0, 600, 1800, 2400}; !slices.Equal(got, want) {
					t.Errorf("%v %s cut at %d%%: read %v, want %v", v, name, frac, got, want)
				}
			}
		}
	}
}

// TestAppendAfterFailedTruncate fails an append on a file that cannot be
// truncated either, with torn bytes already at its end. The path must
// leave the trimmed set, so the next append reopens the file and trims
// the torn bytes before it writes.
func TestAppendAfterFailedTruncate(t *testing.T) {
	for _, v := range codecs {
		for name, open := range dayWriters {
			st, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			st.SetCodec(v)
			w := open(t, st)
			if err := w.append(testSnapshot(1451606400)); err != nil {
				t.Fatal(err)
			}
			app := w.appender()
			f, err := os.OpenFile(app.path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("1451607000.000 ")); err != nil { // torn
				t.Fatal(err)
			}
			f.Close()
			app.w.f.Close() // the next write and truncate both fail
			if err := w.append(testSnapshot(1451606400 + 600)); err == nil {
				t.Fatalf("%v %s: append to a closed file succeeded", v, name)
			}
			if err := w.append(testSnapshot(1451606400 + 1200)); err != nil {
				t.Fatalf("%v %s: append after the failed truncate: %v", v, name, err)
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			if got, want := readBack(t, st.Root()), []float64{0, 1200}; !slices.Equal(got, want) {
				t.Errorf("%v %s: read %v, want %v", v, name, got, want)
			}
		}
	}
}

// TestUnencodableSnapshotDoesNotWedge gives each binary writer a
// snapshot its codec cannot encode, on a new file and mid-file: that
// append fails, and the writer keeps taking the good snapshots after it.
func TestUnencodableSnapshotDoesNotWedge(t *testing.T) {
	for name, open := range dayWriters {
		st, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.SetCodec(codec.V2Binary)
		w := open(t, st)
		for i, s := range []model.Snapshot{
			unknownClass(1451606400), testSnapshot(1451606400 + 600),
			unknownClass(1451606400 + 1200), testSnapshot(1451606400 + 1800),
		} {
			err := w.append(s)
			if bad := i%2 == 0; bad != (err != nil) {
				t.Fatalf("%s: append %d: err %v", name, i, err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if got, want := readBack(t, st.Root()), []float64{600, 1800}; !slices.Equal(got, want) {
			t.Errorf("%s: read %v, want %v", name, got, want)
		}
	}
}

// TestTextRefusesUnreadableRecords gives each text writer snapshots
// that no text reader accepts: a record of a class missing from the
// header's registry, and a record with the wrong value count. Each such
// append must fail without writing a byte, so the day file stays whole
// and the snapshot after it is read back.
func TestTextRefusesUnreadableRecords(t *testing.T) {
	short := testSnapshot(1451606400 + 900)
	short.Records[2].Values = short.Records[2].Values[:1]
	for name, open := range dayWriters {
		st, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.SetCodec(codec.V1Text)
		w := open(t, st)
		for i, s := range []model.Snapshot{
			testSnapshot(1451606400), unknownClass(1451606400 + 600), short, testSnapshot(1451606400 + 1200),
		} {
			err := w.append(s)
			if bad := i == 1 || i == 2; bad != (err != nil) {
				t.Fatalf("%s: append %d: err %v", name, i, err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if got, want := readBack(t, st.Root()), []float64{0, 1200}; !slices.Equal(got, want) {
			t.Errorf("%s: read %v, want %v", name, got, want)
		}
	}
}

// TestNodeLogAndArchiveWriteSameBytes writes the same snapshots through
// a node log (cron mode) and the central archiver (daemon mode): the day
// files must be byte-identical in both codecs.
func TestNodeLogAndArchiveWriteSameBytes(t *testing.T) {
	snaps := []model.Snapshot{testSnapshot(1451606400, "4001"), testSnapshot(1451607000, "4001", "4002")}
	snaps[1].Mark = "end 4002"
	snaps = append(snaps, testSnapshot(1451606400+86400+30, "4001"))
	for _, v := range codecs {
		var trees [2]map[string][]byte
		for i, name := range []string{"NodeLogger", "Archiver"} {
			st, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			st.SetCodec(v)
			w := dayWriters[name](t, st)
			for _, s := range snaps {
				if err := w.append(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			files, err := st.hostFiles(testHeader().Hostname)
			if err != nil {
				t.Fatal(err)
			}
			trees[i] = make(map[string][]byte)
			for _, path := range files {
				if trees[i][filepath.Base(path)], err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(trees[0]) != 2 {
			t.Fatalf("%v: node log wrote %d day files, want 2", v, len(trees[0]))
		}
		for day, nodeLog := range trees[0] {
			if !bytes.Equal(nodeLog, trees[1][day]) {
				t.Errorf("%v day file %s: node log wrote %d bytes, archiver %d, not identical", v, day, len(nodeLog), len(trees[1][day]))
			}
		}
	}
}
