package rawfile

import (
	"container/heap"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gostats/internal/codec"
	"gostats/internal/lru"
	"gostats/internal/model"
)

// NodeLogger is the cron-mode node-local log: snapshots append to a file
// named by the day it was rotated in, under a per-node spool directory.
// This reproduces the Fig 1 pipeline stage where data lives only on the
// compute node until the daily rsync.
type NodeLogger struct {
	dir    string
	header Header
	codec  codec.Version
	day    int64     // the open file's day (unix days)
	app    *Appender // nil until the first Log, and after Close
	files  Files
}

// NewNodeLogger creates (if needed) the spool directory and returns a
// logger for it, writing the v1 text codec.
func NewNodeLogger(dir string, h Header) (*NodeLogger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &NodeLogger{dir: dir, header: h, codec: codec.V1Text}, nil
}

// SetCodec selects the codec for files the logger creates. Files that
// already exist are continued in their own codec regardless.
func (l *NodeLogger) SetCodec(v codec.Version) { l.codec = v }

// Dir returns the logger's spool directory.
func (l *NodeLogger) Dir() string { return l.dir }

// Log appends a snapshot, rotating to a new file when the simulated day
// changes (cron's daily logrotate). Reopening an existing day file — a
// collector restart mid-day — continues it rather than writing a second
// header into the middle.
func (l *NodeLogger) Log(s model.Snapshot) error {
	day := int64(s.Time) / 86400
	if l.app == nil || day != l.day {
		if err := l.Close(); err != nil {
			return err
		}
		app, err := l.files.Open(dayFile(l.dir, day), l.header, l.codec)
		if err != nil {
			return err
		}
		l.app, l.day = app, day
	}
	return l.app.Append(s, nil)
}

// Close closes the current log file.
func (l *NodeLogger) Close() error {
	if l.app == nil {
		return nil
	}
	err := l.app.Close()
	l.app = nil
	return err
}

// Store is the central shared-filesystem archive: one subdirectory per
// host containing that host's rsync'd raw files.
type Store struct {
	root  string
	codec codec.Version
	files Files
}

// NewStore creates (if needed) and opens a central store rooted at dir.
// New archive files default to the v1 text codec; see SetCodec.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{root: dir, codec: codec.V1Text}, nil
}

// SetCodec selects the codec for archive files the store creates.
// Existing files are always continued in their own codec, and reads
// sniff per file, so mixed-version archives are fine.
func (s *Store) SetCodec(v codec.Version) { s.codec = v }

// Codec reports the codec new archive files are created with.
func (s *Store) Codec() codec.Version { return s.codec }

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// HostDir returns (creating if needed) the archive directory for a host.
func (s *Store) HostDir(host string) (string, error) {
	d := filepath.Join(s.root, host)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	return d, nil
}

// SyncFrom copies every raw file in the node spool dir into the central
// store for the host — the once-a-day rsync of cron mode. Already-copied
// files are re-copied in full (rsync of append-only files).
func (s *Store) SyncFrom(host, spoolDir string) error {
	entries, err := os.ReadDir(spoolDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // node spool gone (node death): nothing to sync
		}
		return err
	}
	dst, err := s.HostDir(host)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(spoolDir, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Hosts lists the hosts present in the store.
func (s *Store) Hosts() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var hosts []string
	for _, e := range entries {
		if e.IsDir() {
			hosts = append(hosts, e.Name())
		}
	}
	sort.Strings(hosts)
	return hosts, nil
}

// dayFile names the raw file holding the snapshots of one unix day
// under dir: the day's first second, so names sort by day.
func dayFile(dir string, day int64) string {
	return filepath.Join(dir, fmt.Sprintf("%d.raw", day*86400))
}

// hostFiles lists a host's archive files in day order (file names are
// the rotation day's unix seconds, so they sort numerically).
func (s *Store) hostFiles(host string) ([]string, error) {
	dir := filepath.Join(s.root, host)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type nf struct {
		n    int64
		path string
	}
	var files []nf
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSuffix(e.Name(), ".raw"), 10, 64)
		files = append(files, nf{n: n, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].n < files[j].n })
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.path
	}
	return out, nil
}

// ReadHost reads every raw file archived for a host, returning all
// snapshots in time order. Like Walk, it keeps each file's whole
// snapshots before its first damage (codec.Recover).
func (s *Store) ReadHost(host string) ([]model.Snapshot, error) {
	files, err := s.hostFiles(host)
	if err != nil {
		return nil, err
	}
	it := &hostIter{host: host, files: files}
	defer it.closeFile()
	var snaps []model.Snapshot
	for {
		ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		snaps = append(snaps, it.cur)
	}
	sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].Time < snaps[j].Time })
	return snaps, nil
}

// hostIter streams one host's archive in file order, holding one
// decoded snapshot at a time. A file's decoder stops at its first
// damage, having yielded the whole snapshots before it
// (codec.Recover's rule).
type hostIter struct {
	host      string
	files     []string
	fi        int
	f         *os.File
	dec       codec.SnapshotDecoder
	recovered int // files cut short by damage
	cur       model.Snapshot
}

func (it *hostIter) closeFile() {
	if it.f != nil {
		it.f.Close()
		it.f = nil
	}
	it.dec = nil
}

// next advances to the following snapshot; ok reports whether one is
// available in it.cur.
func (it *hostIter) next() (ok bool, err error) {
	for {
		if it.dec == nil {
			if it.fi >= len(it.files) {
				return false, nil
			}
			f, err := os.Open(it.files[it.fi])
			it.fi++
			if err != nil {
				return false, err
			}
			dec, err := codec.NewDecoder(f)
			if err != nil {
				f.Close()
				it.recovered++
				continue
			}
			it.f, it.dec = f, dec
		}
		s, err := it.dec.Next()
		if err == nil {
			it.cur = s
			return true, nil
		}
		if err != io.EOF {
			it.recovered++
		}
		it.closeFile()
	}
}

// walkHeap merges per-host iterators by snapshot time (host name breaks
// ties) so Walk yields the whole store in global time order.
type walkHeap []*hostIter

func (h walkHeap) Len() int { return len(h) }
func (h walkHeap) Less(i, j int) bool {
	if h[i].cur.Time != h[j].cur.Time {
		return h[i].cur.Time < h[j].cur.Time
	}
	return h[i].host < h[j].host
}
func (h walkHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *walkHeap) Push(x interface{}) { *h = append(*h, x.(*hostIter)) }
func (h *walkHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Walk streams every snapshot in the store to fn in global time order
// (a k-way merge across hosts), decoding incrementally instead of
// materializing whole hosts. A damaged file yields its whole snapshots
// before the damage instead of failing the walk, and recovered reports
// how many files were cut short so. A non-nil error from fn aborts the
// walk.
func (s *Store) Walk(fn func(model.Snapshot) error) (recovered int, err error) {
	hosts, err := s.Hosts()
	if err != nil {
		return 0, err
	}
	its := make([]*hostIter, 0, len(hosts))
	defer func() { // on every return, after the return values are set
		for _, it := range its {
			it.closeFile()
			recovered += it.recovered
		}
	}()
	h := make(walkHeap, 0, len(hosts))
	for _, host := range hosts {
		files, err := s.hostFiles(host)
		if err != nil {
			return 0, err
		}
		it := &hostIter{host: host, files: files}
		its = append(its, it)
		ok, err := it.next()
		if err != nil {
			return 0, err
		}
		if ok {
			h = append(h, it)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		it := h[0]
		if err := fn(it.cur); err != nil {
			return 0, err
		}
		ok, err := it.next()
		if err != nil {
			return 0, err
		}
		if ok {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return 0, nil
}

// Archiver appends snapshots to the store through a bounded cache of
// open per-(host, day) appenders, so a streaming consumer (listend)
// archives each snapshot without reopening its file — and, for the
// binary codec, without restarting delta/dictionary state — on every
// append. Appends reach the OS before returning, matching the
// durability of an open-write-close path.
type Archiver struct {
	st *Store

	// mu serializes appends. The cache evicts (closes) a file only while
	// opening another inside Append, so a file is never closed while it
	// is being written.
	mu    sync.Mutex
	files *lru.Cache[archKey, *Appender]
}

type archKey struct {
	host string
	day  int64
}

// NewArchiver returns an archiver over st holding at most maxOpen files
// open (≤ 0 means a default of 64), closing the least recently used.
func NewArchiver(st *Store, maxOpen int) *Archiver {
	if maxOpen <= 0 {
		maxOpen = 64
	}
	return &Archiver{st: st, files: lru.New(int64(maxOpen), nil,
		func(_ archKey, app *Appender) { app.Close() })}
}

// Append archives one snapshot under the host's header.
func (a *Archiver) Append(host string, h Header, s model.Snapshot) error {
	return a.AppendLines(host, h, s, nil)
}

// AppendLines is Append for a snapshot decoded from a wire message,
// given the record lines codec.DecodeWireLines certified (nil when it
// certified none). A v1 text file gets those received bytes after a
// block head encoded from s, byte for byte what Append writes; a
// binary file encodes s.
func (a *Archiver) AppendLines(host string, h Header, s model.Snapshot, lines []byte) error {
	day := int64(s.Time) / 86400

	a.mu.Lock()
	defer a.mu.Unlock()
	app, _, err := a.files.Get(archKey{host, day}, func() (*Appender, error) {
		dir, err := a.st.HostDir(host)
		if err != nil {
			return nil, err
		}
		return a.st.files.Open(dayFile(dir, day), h, a.st.codec)
	})
	if err != nil {
		return err
	}
	return app.Append(s, lines)
}

// Close closes every cached file, returning the first error.
func (a *Archiver) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var first error
	a.files.Drain(func(_ archKey, app *Appender) {
		if err := app.Close(); err != nil && first == nil {
			first = err
		}
	})
	return first
}
