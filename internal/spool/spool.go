// Package spool implements the node-side write-ahead spool of daemon
// mode: a crash-safe, size- and age-capped on-disk buffer the node
// publisher falls back to when the broker is unreachable, so a
// collector-network outage costs nothing instead of a data point per
// interval.
//
// The design fuses the paper's own cron-mode node-local log into the
// daemon path: spool segments ARE raw stats streams (internal/codec
// framing, text or binary per Options.Codec), so they recover by the
// same rule as cron mode's files (rawfile.Trim), and in the worst case
// an operator can rsync a stuck spool into the central store by hand —
// exactly the Fig 1 escape hatch. Text segments stay human-inspectable; binary
// segments trade that for size and CRC-guarded frames.
//
// Layout and guarantees:
//
//   - A spool is a directory of segment files named wal-%08d.raw in
//     strictly increasing sequence order. Snapshots append to the active
//     (highest-seq) segment, which rotates at SegmentBytes.
//   - Every append is flushed to the OS before returning (optionally
//     fsync'd with Options.Sync), so a daemon crash loses at most the
//     snapshot being written, never an acknowledged one. A failed
//     append leaves the segment as it was and the next one continues
//     it (rawfile.Appender), so one bad write never wedges the spool.
//   - Open performs a recovery scan: each segment is cut back to its
//     whole snapshots before the first damage (rawfile.Trim), and a
//     segment left with none is dropped.
//   - Drain replays spooled snapshots strictly oldest-first. A segment
//     file is deleted only after every snapshot in it has replayed, so a
//     crash mid-drain redelivers the head segment on the next run:
//     at-least-once, never lost.
//   - Caps evict whole segments oldest-first (MaxBytes) and by snapshot
//     age (MaxAge against the newest appended snapshot time). Evicted
//     snapshots are counted — bounded loss under unbounded outage is the
//     documented trade, identical to cron mode's finite node disk.
package spool

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/telemetry"
)

// Defaults for Options zero values.
const (
	DefaultMaxBytes     = 64 << 20 // 64 MiB of node disk, ~days of snapshots
	DefaultSegmentBytes = 1 << 20  // rotate segments at 1 MiB
)

// Options tune a spool. The zero value gets the defaults above, no age
// cap, no fsync, and the default telemetry registry.
type Options struct {
	// MaxBytes caps total on-disk size; oldest closed segments are
	// evicted past it. <0 disables the cap, 0 means DefaultMaxBytes.
	MaxBytes int64

	// MaxAge, in snapshot-time seconds, evicts closed segments whose
	// newest snapshot is older than the newest appended snapshot by more
	// than this. 0 disables the age cap.
	MaxAge float64

	// SegmentBytes is the rotation threshold (0 = DefaultSegmentBytes).
	SegmentBytes int64

	// Sync fsyncs the active segment after every append. Durable against
	// power loss, not just process crash; costs one fsync per snapshot.
	Sync bool

	// Codec selects the segment encoding for new segments (zero =
	// codec.V1Text). Existing segments recover in whatever codec they
	// were written, so changing this across restarts is safe.
	Codec codec.Version

	// Metrics selects the registry spool telemetry lands in (nil =
	// telemetry.Default()). Series are labeled host=<header hostname>.
	Metrics *telemetry.Registry
}

// Stats is a point-in-time summary of spool activity.
type Stats struct {
	Appended  uint64 // snapshots ever appended
	Replayed  uint64 // snapshots handed to Drain callbacks successfully
	Skipped   uint64 // snapshots abandoned by ErrSkip during drain
	Evicted   uint64 // snapshots lost to size/age caps
	Truncated uint64 // torn tails cut during recovery scans
	Depth     int    // snapshots currently spooled and not yet replayed
	Bytes     int64  // on-disk size of all segments
	Segments  int    // segment files on disk
}

type spoolMetrics struct {
	depth     *telemetry.Gauge
	backlog   *telemetry.Gauge
	bytes     *telemetry.Gauge
	oldestAge *telemetry.Gauge
	appended  *telemetry.Counter
	replayed  *telemetry.Counter
	skipped   *telemetry.Counter
	evicted   *telemetry.Counter
	truncated *telemetry.Counter
}

func newSpoolMetrics(reg *telemetry.Registry, host string) *spoolMetrics {
	return &spoolMetrics{
		depth: reg.Gauge("gostats_spool_depth",
			"Snapshots in the node write-ahead spool awaiting replay.", "host", host),
		backlog: reg.Gauge("gostats_spool_replay_backlog",
			"Snapshots the replay drainer still has to deliver, updated live during each drain pass. A value stuck above zero means replay is stalled; sustained stalls precede eviction loss.", "host", host),
		bytes: reg.Gauge("gostats_spool_bytes",
			"On-disk size of the node write-ahead spool.", "host", host),
		oldestAge: reg.Gauge("gostats_spool_oldest_age_seconds",
			"Snapshot-time age of the oldest spooled snapshot.", "host", host),
		appended: reg.Counter("gostats_spool_appended_total",
			"Snapshots diverted into the spool when the broker was unreachable.", "host", host),
		replayed: reg.Counter("gostats_spool_replayed_total",
			"Spooled snapshots replayed to the broker after reconnect.", "host", host),
		skipped: reg.Counter("gostats_spool_skipped_total",
			"Spooled snapshots abandoned by the replayer (ErrSkip poison frames).", "host", host),
		evicted: reg.Counter("gostats_spool_evicted_total",
			"Spooled snapshots evicted by the size/age caps (data loss).", "host", host),
		truncated: reg.Counter("gostats_spool_torn_truncations_total",
			"Torn segment tails truncated during recovery scans.", "host", host),
	}
}

// segment is one spool file.
type segment struct {
	seq      int
	path     string
	snaps    int   // complete snapshots in the file
	replayed int   // replayed from the front (not persisted: at-least-once)
	bytes    int64 // on-disk size
	minTime  float64
	maxTime  float64
	cache    []model.Snapshot // loaded lazily when the segment becomes replay head
	draining bool             // under a Drain callback; eviction must skip it
}

// Spool is a durable snapshot buffer. Safe for concurrent use; Append
// and Drain may run from different goroutines.
type Spool struct {
	dir    string
	header rawfile.Header
	opts   Options

	mu      sync.Mutex
	segs    []*segment        // ascending seq; the active segment, if open, is last
	active  *rawfile.Appender // the active segment's file, nil when none is open
	files   rawfile.Files
	nextSeq int
	newest  float64 // newest snapshot time ever appended
	closed  bool

	met                                        *spoolMetrics
	appended, replayed, skipped, evicted, torn uint64
}

func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.raw", seq))
}

// Open creates (if needed) the spool directory, runs the recovery scan —
// torn tails truncated, unparseable segments dropped, complete frames
// preserved — and returns the spool ready to append and drain.
func Open(dir string, h rawfile.Header, opts Options) (*Spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Codec == codec.VersionUnknown {
		opts.Codec = codec.V1Text
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	s := &Spool{dir: dir, header: h, opts: opts, met: newSpoolMetrics(reg, h.Hostname)}
	if err := s.recoverScan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.updateGaugesLocked()
	s.mu.Unlock()
	return s, nil
}

// recoverScan loads existing segments, truncating torn tails.
func (s *Spool) recoverScan() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		n, err := fmt.Sscanf(e.Name(), "wal-%d.raw", &seq)
		// Only exact segPath names are segments ("wal-N.raw.tmp" is not).
		if n == 1 && err == nil && e.Name() == filepath.Base(segPath(s.dir, seq)) {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		path := segPath(s.dir, seq)
		// A snapshot whose own frame was torn mid-write never had its
		// Append return, so it was never acknowledged: Trim drops it
		// whole rather than replaying part of it downstream.
		st, cut, err := rawfile.Trim(path)
		if err != nil {
			return err
		}
		if cut || st == nil {
			s.torn++
			s.met.truncated.Inc()
		}
		if st == nil || len(st.Snapshots) == 0 {
			// Nothing recoverable (torn header or empty): drop the file.
			if err := os.Remove(path); err != nil {
				return err
			}
			continue
		}
		snaps := st.Snapshots
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		seg := &segment{seq: seq, path: path, snaps: len(snaps), bytes: fi.Size()}
		seg.minTime = snaps[0].Time
		seg.maxTime = snaps[len(snaps)-1].Time
		if seg.maxTime > s.newest {
			s.newest = seg.maxTime
		}
		s.segs = append(s.segs, seg)
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	return nil
}

// Dir returns the spool directory.
func (s *Spool) Dir() string { return s.dir }

// openActiveLocked starts a fresh active segment.
func (s *Spool) openActiveLocked() error {
	seg := &segment{seq: s.nextSeq, path: segPath(s.dir, s.nextSeq)}
	a, err := s.files.Open(seg.path, s.header, s.opts.Codec)
	if err != nil {
		return err
	}
	s.nextSeq++
	s.active = a
	s.segs = append(s.segs, seg)
	return nil
}

// closeActiveLocked seals the active segment; it stays replayable. A
// segment that never took a snapshot (its appends all failed) is
// deleted instead.
func (s *Spool) closeActiveLocked() error {
	seg := s.activeLocked()
	if seg == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	if seg.snaps == 0 {
		os.Remove(seg.path)
		s.removeSegLocked(seg)
	}
	return err
}

// activeLocked returns the active segment, or nil when none is open.
func (s *Spool) activeLocked() *segment {
	if s.active == nil {
		return nil
	}
	return s.segs[len(s.segs)-1]
}

// ErrHostMismatch is returned by Append for a snapshot whose Host is
// not the spool header's Hostname. A spool belongs to exactly one host:
// its segments are codec streams under one header, so a replayed frame
// comes back stamped with the header's host, and a foreign snapshot
// would be filed — and deduplicated — under the wrong node.
var ErrHostMismatch = errors.New("spool: snapshot host differs from the spool's host")

// Append durably spools one snapshot of the spool's own host.
func (s *Spool) Append(snap model.Snapshot) error {
	if snap.Host != s.header.Hostname {
		return fmt.Errorf("%w: %q into the spool of %q", ErrHostMismatch, snap.Host, s.header.Hostname)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("spool: append to closed spool %s", s.dir)
	}
	if s.active == nil {
		if err := s.openActiveLocked(); err != nil {
			return err
		}
	}
	// A failed append leaves the segment as it was, so the next one
	// continues it (rawfile.Appender.Append).
	if err := s.active.Append(snap, nil); err != nil {
		return err
	}
	if s.opts.Sync {
		if err := s.active.Sync(); err != nil {
			return err
		}
	}
	seg := s.activeLocked()
	if seg.snaps == 0 {
		seg.minTime = snap.Time
	}
	seg.snaps++
	seg.maxTime = snap.Time
	seg.bytes = s.active.Size()
	seg.cache = nil // appended past any loaded view
	if snap.Time > s.newest {
		s.newest = snap.Time
	}
	s.appended++
	s.met.appended.Inc()
	if seg.bytes >= s.opts.SegmentBytes {
		if err := s.closeActiveLocked(); err != nil {
			return err
		}
	}
	s.enforceCapsLocked()
	s.updateGaugesLocked()
	return nil
}

// enforceCapsLocked evicts oldest closed segments past the size cap and
// closed segments entirely older than the age cap.
func (s *Spool) enforceCapsLocked() {
	evictable := func() *segment {
		if len(s.segs) == 0 {
			return nil
		}
		seg := s.segs[0]
		if seg.draining || seg == s.activeLocked() {
			return nil
		}
		return seg
	}
	if s.opts.MaxBytes > 0 {
		for s.totalBytesLocked() > s.opts.MaxBytes {
			seg := evictable()
			if seg == nil {
				break
			}
			s.evictLocked(seg)
		}
	}
	if s.opts.MaxAge > 0 {
		for {
			seg := evictable()
			if seg == nil || seg.maxTime >= s.newest-s.opts.MaxAge {
				break
			}
			s.evictLocked(seg)
		}
	}
}

func (s *Spool) totalBytesLocked() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.bytes
	}
	return n
}

func (s *Spool) evictLocked(seg *segment) {
	lost := uint64(seg.snaps - seg.replayed)
	s.evicted += lost
	s.met.evicted.Add(lost)
	os.Remove(seg.path)
	s.removeSegLocked(seg)
}

func (s *Spool) removeSegLocked(seg *segment) {
	for i, x := range s.segs {
		if x == seg {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			return
		}
	}
}

func (s *Spool) depthLocked() int {
	depth := 0
	for _, seg := range s.segs {
		depth += seg.snaps - seg.replayed
	}
	return depth
}

func (s *Spool) updateGaugesLocked() {
	s.met.depth.Set(float64(s.depthLocked()))
	s.met.bytes.Set(float64(s.totalBytesLocked()))
	age := 0.0
	for _, seg := range s.segs {
		if seg.snaps > seg.replayed {
			age = s.newest - seg.minTime
			break
		}
	}
	s.met.oldestAge.Set(age)
}

// Depth reports the number of spooled, not-yet-replayed snapshots.
func (s *Spool) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depthLocked()
}

// Stats returns a snapshot of spool counters.
func (s *Spool) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Appended:  s.appended,
		Replayed:  s.replayed,
		Skipped:   s.skipped,
		Evicted:   s.evicted,
		Truncated: s.torn,
		Depth:     s.depthLocked(),
		Bytes:     s.totalBytesLocked(),
		Segments:  len(s.segs),
	}
}

// ErrSkip, returned by a Drain callback, abandons the offending
// snapshot and continues the drain instead of stopping it.
var ErrSkip = errors.New("spool: skip this snapshot")

// headLocked returns the oldest segment with unreplayed snapshots.
func (s *Spool) headLocked() *segment {
	for _, seg := range s.segs {
		if seg.snaps > seg.replayed {
			return seg
		}
	}
	return nil
}

// Drain replays spooled snapshots oldest-first through fn until the
// spool is empty or fn fails, returning the number replayed. The spool
// lock is NOT held across fn, so appends may interleave (they land
// behind the replay point and are picked up in order). A segment file is
// deleted only once fully replayed, so a crash mid-drain redelivers from
// the head segment's start: at-least-once.
//
// fn returning ErrSkip discards that one snapshot (counted as skipped,
// not replayed) and continues — the poison-frame escape hatch for
// replayers whose delivery path cannot accept the snapshot (e.g. it no
// longer encodes under the current registry). Without it, one bad frame
// at the head would wedge the entire backlog behind it forever.
func (s *Spool) Drain(fn func(model.Snapshot) error) (int, error) {
	n := 0
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return n, fmt.Errorf("spool: drain on closed spool %s", s.dir)
		}
		seg := s.headLocked()
		if seg == nil {
			s.met.backlog.Set(0)
			s.mu.Unlock()
			return n, nil
		}
		if seg == s.activeLocked() {
			// Seal it so replay only ever reads immutable files; the next
			// append opens a fresh segment behind the replay point.
			if err := s.closeActiveLocked(); err != nil {
				s.mu.Unlock()
				return n, err
			}
		}
		if seg.cache == nil {
			data, err := os.ReadFile(seg.path)
			if err != nil {
				s.mu.Unlock()
				return n, err
			}
			parsed, _, perr := codec.Recover(data)
			if parsed == nil {
				// Unreadable on disk now despite the recovery scan; count
				// the remainder lost rather than wedging the drain forever.
				s.evictLocked(seg)
				s.updateGaugesLocked()
				s.mu.Unlock()
				return n, fmt.Errorf("spool: segment %s unreadable: %w", seg.path, perr)
			}
			seg.cache = parsed.Snapshots
			seg.snaps = len(parsed.Snapshots)
			if seg.replayed > seg.snaps {
				seg.replayed = seg.snaps
			}
		}
		if seg.replayed >= len(seg.cache) {
			// Fully replayed (possibly via a stale count): retire it.
			os.Remove(seg.path)
			s.removeSegLocked(seg)
			s.updateGaugesLocked()
			s.mu.Unlock()
			continue
		}
		snap := seg.cache[seg.replayed]
		seg.draining = true
		// The snapshot handed to fn has not been counted replayed yet, so
		// it is still part of the backlog; a failed fn leaves the gauge
		// stuck at the remaining count, which is exactly the stall signal.
		s.met.backlog.Set(float64(s.depthLocked()))
		s.mu.Unlock()

		err := fn(snap)

		s.mu.Lock()
		seg.draining = false
		if err != nil && !errors.Is(err, ErrSkip) {
			s.mu.Unlock()
			return n, err
		}
		if errors.Is(err, ErrSkip) {
			s.skipped++
			s.met.skipped.Inc()
			seg.replayed++ // past it either way; the frame is abandoned
			if seg.replayed >= seg.snaps {
				os.Remove(seg.path)
				s.removeSegLocked(seg)
			}
			s.updateGaugesLocked()
			s.mu.Unlock()
			continue
		}
		seg.replayed++
		s.replayed++
		s.met.replayed.Inc()
		if seg.replayed >= seg.snaps {
			os.Remove(seg.path)
			s.removeSegLocked(seg)
		}
		s.updateGaugesLocked()
		s.mu.Unlock()
		n++
	}
}

// Close seals the active segment and stops the spool. Spooled data stays
// on disk for the next Open.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.closeActiveLocked()
}
