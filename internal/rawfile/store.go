package rawfile

import (
	"container/heap"
	"fmt"
	"io"
	"math"
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

// trimmedFiles remembers the archive files a writer has opened. The
// first open of a file trims a torn tail; only a crash tears one, and
// a crash ends the process that was writing, so each file is scanned
// at most once per process however often a bounded cache reopens it.
type trimmedFiles struct {
	mu   sync.Mutex
	done map[string]bool
}

// openEncoder opens path for appending in version v: an existing
// non-empty file is continued in the codec it already holds (sniffed
// from its first bytes), so mixed-version archives stay consistent; a
// new file starts in v.
func (t *trimmedFiles) openEncoder(path string, h Header, v codec.Version) (*os.File, codec.SnapshotEncoder, error) {
	if err := t.trimOnce(path); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	var prefix [8]byte
	n, rerr := f.ReadAt(prefix[:], 0)
	if rerr != nil && rerr != io.EOF {
		f.Close()
		return nil, nil, rerr
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	var enc codec.SnapshotEncoder
	if n == 0 {
		enc, err = codec.NewEncoder(f, h, v)
	} else {
		existing, serr := codec.Sniff(prefix[:n])
		if serr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("rawfile: %s: %w", path, serr)
		}
		enc, err = codec.NewContinuation(f, h, existing)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, enc, nil
}

// trimOnce trims path (Trim) the first time this writer opens it: a
// crash mid-append leaves part of a snapshot on disk, and every
// snapshot appended after it would be unreadable.
func (t *trimmedFiles) trimOnce(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done[path] {
		return nil
	}
	if _, _, err := Trim(path); err != nil {
		return err
	}
	if t.done == nil {
		t.done = make(map[string]bool)
	}
	t.done[path] = true
	return nil
}

// NodeLogger is the cron-mode node-local log: snapshots append to a file
// named by the day it was rotated in, under a per-node spool directory.
// This reproduces the Fig 1 pipeline stage where data lives only on the
// compute node until the daily rsync.
type NodeLogger struct {
	dir    string
	header Header
	codec  codec.Version
	day    int64 // current rotation day (unix days)
	f      *os.File
	w      codec.SnapshotEncoder
	files  trimmedFiles
}

// NewNodeLogger creates (if needed) the spool directory and returns a
// logger for it, writing the v1 text codec.
func NewNodeLogger(dir string, h Header) (*NodeLogger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &NodeLogger{dir: dir, header: h, codec: codec.V1Text, day: math.MinInt64}, nil
}

// SetCodec selects the codec for files the logger creates. Files that
// already exist are continued in their own codec regardless.
func (l *NodeLogger) SetCodec(v codec.Version) { l.codec = v }

// Dir returns the logger's spool directory.
func (l *NodeLogger) Dir() string { return l.dir }

// fileForDay names the log file for a unix day.
func (l *NodeLogger) fileForDay(day int64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%d.raw", day*86400))
}

// Log appends a snapshot, rotating to a new file when the simulated day
// changes (cron's daily logrotate). Reopening an existing day file — a
// collector restart mid-day — continues it rather than writing a second
// header into the middle.
func (l *NodeLogger) Log(s model.Snapshot) error {
	day := int64(s.Time) / 86400
	if day != l.day {
		if err := l.Close(); err != nil {
			return err
		}
		f, enc, err := l.files.openEncoder(l.fileForDay(day), l.header, l.codec)
		if err != nil {
			return err
		}
		l.f = f
		l.w = enc
		l.day = day
	}
	return l.w.WriteSnapshot(s)
}

// Close flushes and closes the current log file.
func (l *NodeLogger) Close() error {
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	err := l.f.Close()
	l.f, l.w = nil, nil
	l.day = math.MinInt64
	return err
}

// Destroy removes the node's entire spool — the data-loss event when a
// node dies before its daily rsync (the failure mode the daemon mode was
// built to eliminate).
func (l *NodeLogger) Destroy() error {
	l.Close()
	return os.RemoveAll(l.dir)
}

// Store is the central shared-filesystem archive: one subdirectory per
// host containing that host's rsync'd raw files.
type Store struct {
	root  string
	codec codec.Version
	files trimmedFiles
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

// AppendHost appends snapshots directly into a host's archive file —
// the path the daemon-mode consumer uses (no node spool involved).
func (s *Store) AppendHost(host string, h Header, snaps ...model.Snapshot) error {
	dir, err := s.HostDir(host)
	if err != nil {
		return err
	}
	// Group by simulated day so each day's file gets exactly one header.
	byDay := map[int64][]model.Snapshot{}
	for _, snap := range snaps {
		day := int64(snap.Time) / 86400
		byDay[day] = append(byDay[day], snap)
	}
	for day, group := range byDay {
		path := filepath.Join(dir, fmt.Sprintf("%d.raw", day*86400))
		f, enc, err := s.files.openEncoder(path, h, s.codec)
		if err != nil {
			return err
		}
		for _, snap := range group {
			if err := enc.WriteSnapshot(snap); err != nil {
				f.Close()
				return err
			}
		}
		if err := enc.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
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
// open per-(host, day) encoders, so a streaming consumer (listend)
// archives each snapshot without reopening its file — and, for the
// binary codec, without restarting delta/dictionary state — on every
// append. Appends are flushed to the OS before returning, matching the
// durability of the open-write-close path it replaces.
type Archiver struct {
	st *Store

	// mu serializes appends. The cache evicts (flushes and closes) a
	// file only while opening another inside Append, so a file is never
	// closed while it is being written.
	mu    sync.Mutex
	files *lru.Cache[archKey, *archFile]
}

type archKey struct {
	host string
	day  int64
}

type archFile struct {
	f   *os.File
	enc codec.SnapshotEncoder
}

func (af *archFile) close() error {
	err := af.enc.Flush()
	if cerr := af.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// NewArchiver returns an archiver over st holding at most maxOpen files
// open (≤ 0 means a default of 64), closing the least recently used.
func NewArchiver(st *Store, maxOpen int) *Archiver {
	if maxOpen <= 0 {
		maxOpen = 64
	}
	return &Archiver{st: st, files: lru.New(int64(maxOpen), nil,
		func(_ archKey, af *archFile) { af.close() })}
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
	key := archKey{host, day}

	a.mu.Lock()
	defer a.mu.Unlock()
	af, _, err := a.files.Get(key, func() (*archFile, error) {
		dir, err := a.st.HostDir(host)
		if err != nil {
			return nil, err
		}
		f, enc, err := a.st.files.openEncoder(filepath.Join(dir, fmt.Sprintf("%d.raw", day*86400)), h, a.st.codec)
		if err != nil {
			return nil, err
		}
		return &archFile{f: f, enc: enc}, nil
	})
	if err != nil {
		return err
	}
	if err := af.enc.WriteSnapshotLines(s, lines); err != nil {
		af.f.Close() // before the eviction's flush: drop what the failed write buffered
		a.files.Remove(key)
		return err
	}
	return af.enc.Flush()
}

// Close flushes and closes every cached file, returning the first error.
func (a *Archiver) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var first error
	a.files.Drain(func(_ archKey, af *archFile) {
		if err := af.close(); err != nil && first == nil {
			first = err
		}
	})
	return first
}
