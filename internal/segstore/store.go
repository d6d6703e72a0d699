// Store: the durable, host-sharded segment store. Each shard owns a
// directory of sealed segments plus one write-ahead active segment;
// appends buffer into the active segment's pending frame, Commit hands
// complete frames to the OS (and fsyncs under Options.Sync), and a full
// active segment is sealed by flush + fsync + rename — after which its
// contents can never be lost to a crash. Reopen recovers everything:
// sealed segments are verified end to end (quarantined as .bad on any
// damage), the active segment is truncated to its last valid frame and
// sealed, leftover compaction temporaries are discarded, and interrupted
// compactions are completed via cover-range bookkeeping (compact.go).
package segstore

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gostats/internal/framelog"
	"gostats/internal/fsutil"
	"gostats/internal/lru"
	"gostats/internal/telemetry"
)

const (
	tierRaw  = 0
	tierMid  = 1
	tierHour = 2
	numTiers = 3
)

// tierWidth is each tier's downsample bucket width in seconds.
var tierWidth = [numTiers]float64{0, 600, 3600}

// TierName labels tiers in telemetry and stats output.
func TierName(tier int) string {
	switch tier {
	case tierRaw:
		return "raw"
	case tierMid:
		return "10m"
	case tierHour:
		return "1h"
	}
	return "?"
}

// Point is one raw sample on the append path.
type Point struct {
	Labels
	Time  float64
	Value float64
}

// Filter selects series by exact tag match; empty fields match
// anything — the same wildcard semantics as tsdb.Query.
type Filter struct {
	Host    string
	DevType string
	Device  string
	Event   string
}

func (f Filter) match(l Labels) bool {
	return (f.Host == "" || f.Host == l.Host) &&
		(f.DevType == "" || f.DevType == l.DevType) &&
		(f.Device == "" || f.Device == l.Device) &&
		(f.Event == "" || f.Event == l.Event)
}

// SeriesChunk is one series' points within a scanned time range.
type SeriesChunk struct {
	Labels Labels
	Points []AggPoint
}

// SeriesRuns is one series' points within a scanned time range as
// consecutive runs: concatenated, they are the points sorted by time.
// The runs borrow the store's decoded frames, which other readers
// share, so they must never be written to.
type SeriesRuns struct {
	Labels Labels
	Runs   [][]AggPoint
}

// Options tunes a Store. The zero value is usable: 32 shards (matching
// tsdb's stripe width so host routing agrees), 1 MiB segments, raw
// segments compacted once older than 4 h, 10-minute tiers once older
// than 24 h, and no retention cutoffs (keep everything).
type Options struct {
	// Shards is the directory fan-out; must match the writer's host
	// sharding (tsdb uses 32).
	Shards int
	// SegmentBytes seals the active segment once it exceeds this size.
	SegmentBytes int64
	// FlushBytes caps the pending in-memory frame; a larger buffer means
	// fewer, bigger frames but a larger worst-case crash-loss tail.
	FlushBytes int
	// Sync fsyncs the active segment on every Commit. Off, a kill -9
	// loses at most the unsynced OS-buffered tail; on, only the pending
	// frame since the last Commit (at the cost of an fsync per commit).
	Sync bool
	// CompactAfter[t] is the age in seconds past which sealed tier-t
	// segments are downsampled into tier t+1 (0 = default; <0 = never).
	CompactRawAfter float64
	CompactMidAfter float64
	// Retain[t] drops tier-t segments wholly older than this many
	// seconds before the shard's newest point (0 = keep forever).
	RetainRaw  float64
	RetainMid  float64
	RetainHour float64
	// BlockCacheBytes bounds the decoded cold-frame cache shared by all
	// readers (0 = 64 MiB; <0 = a minimal 1-frame cache).
	BlockCacheBytes int64
	// Metrics receives gostats_segstore_* series (nil = telemetry.Default()).
	Metrics *telemetry.Registry
	// Logf receives recovery and quarantine diagnostics — which file was
	// damaged and why (default log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 32
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = 32 << 10
	}
	if o.CompactRawAfter == 0 {
		o.CompactRawAfter = 4 * 3600
	}
	if o.CompactMidAfter == 0 {
		o.CompactMidAfter = 24 * 3600
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 64 << 20
	} else if o.BlockCacheBytes < 0 {
		o.BlockCacheBytes = 1
	}
	if o.Metrics == nil {
		o.Metrics = telemetry.Default()
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

func (o Options) compactAfter(tier int) float64 {
	switch tier {
	case tierRaw:
		return o.CompactRawAfter
	case tierMid:
		return o.CompactMidAfter
	}
	return -1
}

func (o Options) retain(tier int) float64 {
	switch tier {
	case tierRaw:
		return o.RetainRaw
	case tierMid:
		return o.RetainMid
	case tierHour:
		return o.RetainHour
	}
	return 0
}

// segInfo describes one sealed segment.
type segInfo struct {
	path    string
	tier    int
	seq     uint64
	coverLo uint64
	coverHi uint64
	minT    float64
	maxT    float64
	bytes   int64
	// indexBytes is the on-disk size of the segment's index frame (0
	// when it has none, or one whose checksum fails).
	indexBytes int64
	entries    uint64
	count      uint64 // logical raw points represented
	// index is the decoded seal-time frame index, nil for segments
	// sealed by older binaries or whose index frame was damaged —
	// those are served by full scans instead.
	index *segIndex
}

// shardState is one shard's directory: sealed segments per tier plus
// the active writer. All fields are guarded by mu.
type shardState struct {
	mu      sync.Mutex
	dir     string
	id      int
	sealed  [numTiers][]*segInfo // each sorted by seq ascending
	w       *segWriter
	nextSeq uint64
	newest  float64 // newest point time ever appended/recovered
	werr    error   // sticky write error; surfaced by Commit
	// compactBefore caps compaction: it consumes only segments wholly
	// older than this time (+Inf unless LimitCompaction lowered it).
	compactBefore float64
}

type storeMetrics struct {
	activeBytes  *telemetry.Gauge
	tierBytes    [numTiers]*telemetry.Gauge
	tierIndex    [numTiers]*telemetry.Gauge
	tierSegments [numTiers]*telemetry.Gauge
	tierPoints   [numTiers]*telemetry.Gauge
	appended     *telemetry.Counter
	seals        *telemetry.Counter
	compactions  *telemetry.Counter
	compactFails *telemetry.Counter
	recovered    *telemetry.Counter
	truncated    *telemetry.Counter
	quarantined  *telemetry.Counter
	dropped      *telemetry.Counter
	idxHits      *telemetry.Counter
	idxFullscans *telemetry.Counter
	bcHits       *telemetry.Counter
	bcMisses     *telemetry.Counter
	bcEvicts     *telemetry.Counter
	openFiles    *telemetry.Gauge
	fileOpens    *telemetry.Counter
}

// Stats is a point-in-time snapshot of store state for audits and tests.
type Stats struct {
	ActiveBytes  int64
	ActivePoints uint64 // points in active segments (flushed + pending)
	TierBytes    [numTiers]int64
	// TierIndexBytes is the part of TierBytes in the sealed segments'
	// index frames.
	TierIndexBytes [numTiers]int64
	TierSegments   [numTiers]int
	TierPoints     [numTiers]uint64 // logical raw points per sealed tier
	Seals          uint64
	Compactions    uint64
	RecoveredPts   uint64 // points recovered from segments at Open
	TornTruncated  uint64 // active segments truncated at a torn tail
	Quarantined    uint64 // sealed segments renamed .bad at Open
	Dropped        uint64 // points dropped by retention
	// Loaded counts the sealed segments found intact at Open. With Seals
	// and Compactions it is every sealed segment the store has held.
	Loaded    uint64
	FileOpens uint64 // sealed segments opened for reading by scans
}

// Store is the crash-safe segment store. Safe for concurrent use;
// appends for different hosts never contend.
type Store struct {
	dir    string
	opts   Options
	shards []*shardState
	met    storeMetrics
	blocks *lru.Cache[blockKey, *decodedFrame]
	files  *lru.Cache[fileKey, *segFile]

	statMu sync.Mutex
	stats  Stats

	// bgStop and bgDone are background compaction's stop signal and
	// exit notice (StartBackground); nil when it is not running.
	bgStop, bgDone chan struct{}

	// sealFault, set only by tests, fails the named seal step.
	sealFault func(step string) error
}

// Open opens (creating if needed) the store rooted at dir and runs
// recovery: every sealed segment is verified, damaged ones are
// quarantined, the previous active segment's torn tail is truncated and
// the valid prefix sealed, and interrupted compactions are completed.
// After Open returns, every point the previous process sealed — or
// wrote into frames that reached the OS — is readable again.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	reg := opts.Metrics
	s.met.activeBytes = reg.Gauge("gostats_segstore_active_bytes",
		"Bytes in unsealed active segments across shards.")
	for t := 0; t < numTiers; t++ {
		s.met.tierBytes[t] = reg.Gauge("gostats_segstore_bytes",
			"On-disk bytes of sealed segments per tier.", "tier", TierName(t))
		s.met.tierIndex[t] = reg.Gauge("gostats_segstore_index_bytes",
			"On-disk bytes of sealed segments' index frames per tier (part of gostats_segstore_bytes).", "tier", TierName(t))
		s.met.tierSegments[t] = reg.Gauge("gostats_segstore_segments",
			"Sealed segment count per tier.", "tier", TierName(t))
		s.met.tierPoints[t] = reg.Gauge("gostats_segstore_points",
			"Raw points represented by sealed segments per tier.", "tier", TierName(t))
	}
	s.met.appended = reg.Counter("gostats_segstore_appended_total",
		"Points appended to the store.")
	s.met.seals = reg.Counter("gostats_segstore_seals_total",
		"Active segments sealed (rotation, recovery, or close).")
	s.met.compactions = reg.Counter("gostats_segstore_compactions_total",
		"Compaction passes that produced a downsampled segment.")
	s.met.compactFails = reg.Counter("gostats_segstore_compaction_failures_total",
		"Background compaction passes that returned an error.")
	s.met.recovered = reg.Counter("gostats_segstore_recovered_points_total",
		"Points recovered from existing segments at open.")
	s.met.truncated = reg.Counter("gostats_segstore_torn_truncations_total",
		"Active segments truncated at a torn tail during recovery.")
	s.met.quarantined = reg.Counter("gostats_segstore_quarantined_total",
		"Damaged sealed segments renamed aside at open.")
	s.met.dropped = reg.Counter("gostats_segstore_retention_dropped_total",
		"Points dropped by retention windows.")
	s.met.idxHits = reg.Counter("gostats_segstore_index_hits_total",
		"Segment scans served via a frame index: a sealed segment's, or the active segment's running one.")
	s.met.idxFullscans = reg.Counter("gostats_segstore_index_fullscans_total",
		"Sealed-segment scans that fell back to a whole-file decode.")
	s.met.bcHits = reg.Counter("gostats_segstore_blockcache_hits_total",
		"Cold-frame reads served from the decoded block cache.")
	s.met.bcMisses = reg.Counter("gostats_segstore_blockcache_misses_total",
		"Cold-frame reads that had to pread and decode the frame.")
	s.met.bcEvicts = reg.Counter("gostats_segstore_blockcache_evictions_total",
		"Decoded frames evicted from the block cache by its byte bound.")
	s.blocks = lru.New(opts.BlockCacheBytes,
		func(df *decodedFrame) int64 { return df.mem },
		func(blockKey, *decodedFrame) { s.met.bcEvicts.Inc() })
	s.met.openFiles = reg.Gauge("gostats_segstore_open_files",
		"Sealed-segment read handles resident in the file cache.")
	s.met.fileOpens = reg.Counter("gostats_segstore_file_opens_total",
		"Sealed segments opened for reading by scans (file-cache misses).")
	s.files = lru.New(maxOpenSegments, nil, s.dropHandle)

	s.shards = make([]*shardState, opts.Shards)
	for i := range s.shards {
		sh := &shardState{dir: filepath.Join(dir, fmt.Sprintf("shard-%02d", i)), id: i, compactBefore: math.Inf(1)}
		if err := os.MkdirAll(sh.dir, 0o755); err != nil {
			return nil, err
		}
		if err := s.recoverShard(sh); err != nil {
			return nil, fmt.Errorf("segstore: shard %d: %w", i, err)
		}
		s.shards[i] = sh
	}
	s.publishGauges()
	return s, nil
}

func sealedName(tier int, seq uint64) string {
	return fmt.Sprintf("t%d-%08d.seg", tier, seq)
}

func activeName(seq uint64) string {
	return fmt.Sprintf("active-%08d.seg", seq)
}

// parseSealedName inverts sealedName; ok=false for foreign files.
func parseSealedName(name string) (tier int, seq uint64, ok bool) {
	n, err := fmt.Sscanf(name, "t%d-%d.seg", &tier, &seq)
	if n != 2 || err != nil || !strings.HasSuffix(name, ".seg") {
		return 0, 0, false
	}
	return tier, seq, tier >= 0 && tier < numTiers
}

// recoverShard rebuilds one shard's in-memory index from disk,
// quarantining damage and sealing the previous active segment.
func (s *Store) recoverShard(sh *shardState) error {
	ents, err := os.ReadDir(sh.dir)
	if err != nil {
		return err
	}
	var activePaths []string
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "tmp-") || strings.Contains(name, ".tmp-"):
			// Compaction temporary that never reached its rename: the
			// inputs are still live, so the partial output is garbage.
			os.Remove(filepath.Join(sh.dir, name))
		case strings.HasSuffix(name, ".bad"):
			// Previously quarantined; leave for the operator.
		case strings.HasPrefix(name, "active-") && strings.HasSuffix(name, ".seg"):
			activePaths = append(activePaths, filepath.Join(sh.dir, name))
		case strings.HasSuffix(name, ".seg"):
			tier, seq, ok := parseSealedName(name)
			if !ok {
				continue
			}
			path := filepath.Join(sh.dir, name)
			info, qerr := s.loadSealed(path, tier, seq)
			if qerr != nil {
				s.quarantine(path, qerr)
				continue
			}
			sh.sealed[tier] = append(sh.sealed[tier], info)
			s.statMu.Lock()
			s.stats.Loaded++
			s.statMu.Unlock()
		}
	}
	for t := 0; t < numTiers; t++ {
		sort.Slice(sh.sealed[t], func(i, j int) bool { return sh.sealed[t][i].seq < sh.sealed[t][j].seq })
	}

	// Recover active segments (normally at most one): truncate to the
	// last valid frame and seal the remainder as an ordinary raw segment.
	for _, path := range activePaths {
		if err := s.recoverActive(sh, path); err != nil {
			return err
		}
	}
	sort.Slice(sh.sealed[tierRaw], func(i, j int) bool { return sh.sealed[tierRaw][i].seq < sh.sealed[tierRaw][j].seq })

	// Complete interrupted compactions: a live tier-t segment whose seq
	// falls inside a live tier-(t+1) segment's cover range was already
	// rewritten into that output — keeping it would double-count.
	for t := 0; t < numTiers-1; t++ {
		if len(sh.sealed[t]) == 0 || len(sh.sealed[t+1]) == 0 {
			continue
		}
		kept := sh.sealed[t][:0]
		for _, in := range sh.sealed[t] {
			covered := false
			for _, out := range sh.sealed[t+1] {
				if out.coverLo <= in.seq && in.seq <= out.coverHi {
					covered = true
					break
				}
			}
			if covered {
				os.Remove(in.path)
			} else {
				kept = append(kept, in)
			}
		}
		sh.sealed[t] = kept
	}

	for t := 0; t < numTiers; t++ {
		for _, info := range sh.sealed[t] {
			if info.seq >= sh.nextSeq {
				sh.nextSeq = info.seq + 1
			}
			if info.maxT > sh.newest {
				sh.newest = info.maxT
			}
		}
	}
	return fsutil.SyncDir(sh.dir)
}

// loadSealed strictly verifies one sealed segment end to end. Damage
// confined to a trailing index frame is not fatal: the data prefix is
// intact, so the segment is kept (index-less, served by full scans)
// instead of quarantining readable points.
func (s *Store) loadSealed(path string, tier int, seq uint64) (*segInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, good, derr := parseSegment(data)
	if derr == nil && good != len(data) {
		derr = fmt.Errorf("segstore: %d bytes of undecodable tail", len(data)-good)
	}
	if derr != nil {
		if d == nil || !d.indexTail {
			return nil, derr
		}
		s.opts.Logf("segstore: %s: index frame damaged (%v); serving segment via full scans", filepath.Base(path), derr)
		d.index = nil
	}
	if d.meta.Tier != tier || d.meta.Seq != seq {
		return nil, fmt.Errorf("segstore: meta (tier %d seq %d) disagrees with name %s",
			d.meta.Tier, d.meta.Seq, filepath.Base(path))
	}
	s.addRecovered(d.count)
	return &segInfo{
		path: path, tier: tier, seq: seq,
		coverLo: d.meta.CoverLo, coverHi: d.meta.CoverHi,
		minT: d.minT, maxT: d.maxT,
		bytes: int64(len(data)), indexBytes: d.indexBytes, entries: d.entries, count: d.count,
		index: d.index,
	}, nil
}

// recoverActive truncates path to its last valid frame and seals the
// prefix. An empty or unreadable active segment is removed: nothing in
// it was ever acknowledged as sealed.
func (s *Store) recoverActive(sh *shardState, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	d, good, derr := parseSegment(data)
	if d == nil || d.entries == 0 {
		os.Remove(path)
		if derr != nil && len(data) > 0 {
			s.bumpTruncated()
		}
		return nil
	}
	if derr != nil {
		// Torn tail: keep the valid prefix only.
		if err := os.Truncate(path, int64(good)); err != nil {
			return err
		}
		s.bumpTruncated()
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	// Give the recovered segment the index frame a normal seal would have
	// written (unless a completed one survived the crash), so recovered
	// segments serve the same pread fast path as cleanly sealed ones.
	sealedBytes, indexBytes := int64(good), d.indexBytes
	ix := d.index
	if ix == nil {
		ix = &segIndex{segDict: d.segDict, frames: d.frameStats}
		n, werr := f.Write(framelog.Append(nil, frameIndex, encodeIndexPayload(ix)))
		sealedBytes += int64(n)
		indexBytes = int64(n)
		err = werr
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sealed := filepath.Join(sh.dir, sealedName(d.meta.Tier, d.meta.Seq))
	if err := os.Rename(path, sealed); err != nil {
		return err
	}
	s.addRecovered(d.count)
	s.bumpSeals()
	sh.sealed[d.meta.Tier] = append(sh.sealed[d.meta.Tier], &segInfo{
		path: sealed, tier: d.meta.Tier, seq: d.meta.Seq,
		coverLo: d.meta.CoverLo, coverHi: d.meta.CoverHi,
		minT: d.minT, maxT: d.maxT,
		bytes: sealedBytes, indexBytes: indexBytes, entries: d.entries, count: d.count,
		index: ix,
	})
	return nil
}

// quarantine renames a damaged segment aside as .bad, recording which
// file and why so the operator can diagnose it. A failed rename leaves
// the segment in place (and uncounted — the next open retries it), but
// is still logged: silently losing track of damaged data is worse than
// a noisy log line.
func (s *Store) quarantine(path string, cause error) {
	if err := os.Rename(path, path+".bad"); err != nil {
		s.opts.Logf("segstore: segment %s damaged (%v) but quarantine rename failed: %v", path, cause, err)
		return
	}
	s.opts.Logf("segstore: quarantined damaged segment %s -> %s.bad: %v", path, filepath.Base(path), cause)
	s.met.quarantined.Inc()
	s.statMu.Lock()
	s.stats.Quarantined++
	s.statMu.Unlock()
}

func (s *Store) addRecovered(n uint64) {
	s.met.recovered.Add(n)
	s.statMu.Lock()
	s.stats.RecoveredPts += n
	s.statMu.Unlock()
}

func (s *Store) bumpTruncated() {
	s.met.truncated.Inc()
	s.statMu.Lock()
	s.stats.TornTruncated++
	s.statMu.Unlock()
}

func (s *Store) bumpFileOpens() {
	s.met.fileOpens.Inc()
	s.statMu.Lock()
	s.stats.FileOpens++
	s.statMu.Unlock()
}

// forget drops a sealed segment's read handle from the file cache once
// retention, compaction or quarantine has taken it out of the shard's
// directory. Scans that captured it keep their references and read on.
// Caller holds the shard lock.
func (s *Store) forget(sh *shardState, info *segInfo) {
	s.files.Remove(fileKey{shard: sh.id, seq: info.seq})
}

func (s *Store) bumpSeals() {
	s.met.seals.Inc()
	s.statMu.Lock()
	s.stats.Seals++
	s.statMu.Unlock()
}

// ShardFor returns the shard index AppendRow will route host to — the same
// FNV-1a mapping tsdb uses, so the hot and cold halves of a series
// always live in the same stripe number.
func (s *Store) ShardFor(host string) int {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= prime
	}
	return int(h % uint32(len(s.shards)))
}

// Append buffers one raw point into host's shard: a row of one.
func (s *Store) Append(p Point) {
	ref := Ref{Labels: p.Labels}
	s.AppendRow(p.Host, p.Time, []*Ref{&ref}, []float64{p.Value})
}

// AppendRow buffers one row of raw points — vals[i] for refs[i]'s
// series, every point at time t and of host — into host's shard under a
// single lock. Each Ref caches its series' dictionary ref in the active
// segment, so a caller that keeps its Refs across rows skips the label
// lookup for every series the active segment has already seen. Frame
// flushes and segment seals happen between points exactly as if the
// points were appended one by one, so the bytes on disk do not depend on
// how points are grouped into rows.
//
// A point is crash-durable only after the frame holding it reaches the
// OS (Commit or auto-flush) — and, against power loss, after an fsync
// (Options.Sync or seal). AppendRow never blocks on fsync; write errors
// stick to the shard and surface on the next Commit.
func (s *Store) AppendRow(host string, t float64, refs []*Ref, vals []float64) {
	sh := s.shards[s.ShardFor(host)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := 0
	for i, r := range refs {
		if sh.werr != nil {
			break
		}
		if sh.w == nil {
			if err := s.openActiveLocked(sh); err != nil {
				sh.werr = err
				break
			}
		}
		v := vals[i]
		sh.w.add(r, AggPoint{Time: t, Count: 1, Sum: v, Min: v, Max: v})
		n++
		if len(sh.w.pending) >= s.opts.FlushBytes {
			if err := sh.w.flushFrame(); err != nil {
				sh.werr = err
				break
			}
		}
		if sh.w.bytes+int64(len(sh.w.pending)) >= s.opts.SegmentBytes {
			s.sealActiveLocked(sh) // a failure sticks to the shard
		}
	}
	if n == 0 {
		return
	}
	if t > sh.newest {
		sh.newest = t
	}
	s.met.appended.Add(uint64(n))
}

func (s *Store) openActiveLocked(sh *shardState) error {
	seq := sh.nextSeq
	sh.nextSeq++
	w, err := newSegWriter(filepath.Join(sh.dir, activeName(seq)), Meta{
		Tier: tierRaw, Shard: sh.id, Seq: seq, CoverLo: seq, CoverHi: seq,
	}, s.opts.Sync)
	if err != nil {
		return err
	}
	sh.w = w
	return nil
}

// sealActiveLocked makes the active segment immutable and durable:
// flush, index, fsync, close, rename to its tier name, directory fsync.
// Until the rename lands the writer is the only way to its points, so a
// failed step leaves it the shard's active writer with its file closed
// and the error sticky: reads keep serving it through its frame index,
// and the next Open seals it. A failed directory fsync after the rename
// leaves the segment sealed.
func (s *Store) sealActiveLocked(sh *shardState) error {
	w := sh.w
	if w == nil {
		return nil
	}
	if w.entries == 0 {
		sh.w = nil
		w.close()
		os.Remove(w.path)
		return nil
	}
	ix, err := w.writeIndex()
	err = s.injected("index", err)
	if err == nil {
		err = s.injected("sync", w.sync())
	}
	if cerr := s.injected("close", w.f.Close()); err == nil {
		err = cerr
	}
	sealed := filepath.Join(sh.dir, sealedName(w.meta.Tier, w.meta.Seq))
	if err == nil {
		if err = s.injected("rename", nil); err == nil {
			err = os.Rename(w.path, sealed)
		}
	}
	if err == nil {
		sh.w = nil
		sh.sealed[w.meta.Tier] = append(sh.sealed[w.meta.Tier], &segInfo{
			path: sealed, tier: w.meta.Tier, seq: w.meta.Seq,
			coverLo: w.meta.CoverLo, coverHi: w.meta.CoverHi,
			minT: w.minT, maxT: w.maxT,
			bytes: w.bytes, indexBytes: w.indexBytes, entries: w.entries, count: w.count,
			index: ix,
		})
		s.bumpSeals()
		err = s.injected("syncdir", fsutil.SyncDir(sh.dir))
	}
	if err != nil && sh.werr == nil {
		sh.werr = err
	}
	return err
}

// injected returns err, or else the failure a test injects at the named
// seal step.
func (s *Store) injected(step string, err error) error {
	if err == nil && s.sealFault != nil {
		err = s.sealFault(step)
	}
	return err
}

// commitShardLocked flushes one shard's pending frame to the OS (and
// fsyncs when Options.Sync is set), returning the shard's sticky write
// error. Caller holds sh.mu.
func (s *Store) commitShardLocked(sh *shardState) error {
	if sh.werr == nil && sh.w != nil {
		if err := sh.w.flushFrame(); err != nil {
			sh.werr = err
		} else if s.opts.Sync {
			if err := sh.w.sync(); err != nil {
				sh.werr = err
			}
		}
	}
	return sh.werr
}

// Commit flushes every shard's pending frame to the OS (and fsyncs when
// Options.Sync is set), then reports any write error accumulated since
// the last Commit. After a nil return with Sync on, every appended
// point survives power loss; with Sync off, every point survives
// process death (kill -9) but the OS page cache still owns the tail.
func (s *Store) Commit() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if err := s.commitShardLocked(sh); err != nil && first == nil {
			first = err
		}
		sh.mu.Unlock()
	}
	s.publishGauges()
	return first
}

// CommitShard flushes a single shard's pending frame with the same
// durability semantics as Commit. A fronting hot store calls it inside
// its own stripe critical section, making flush-then-evict atomic with
// respect to that stripe's appends.
func (s *Store) CommitShard(shard int) error {
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.commitShardLocked(sh)
}

// LimitCompaction keeps compaction in one shard from consuming any
// segment that holds a point at or after t. A hot store that serves the
// times from some boundary on out of its own memory sets its limit no
// higher than that boundary, so no downsampled bucket below the
// boundary can absorb a point the hot store also serves, whatever the
// compaction ages.
func (s *Store) LimitCompaction(shard int, t float64) {
	sh := s.shards[shard]
	sh.mu.Lock()
	sh.compactBefore = t
	sh.mu.Unlock()
}

// Seal force-rotates every shard's active segment. Mostly for tests and
// clean shutdown; the normal path rotates on SegmentBytes.
func (s *Store) Seal() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if err := s.sealActiveLocked(sh); err != nil && first == nil {
			first = err
		}
		sh.mu.Unlock()
	}
	s.publishGauges()
	return first
}

// Scan returns every stored point matching f in the half-open window
// [start, end), one chunk per series, each chunk sorted by time and
// owned by the caller. Sealed segments are read back from disk through
// their indexes; the active segment is read through its writer's
// running index — flushed frames by pread, pending entries from a copy
// of the frame being built — so a standalone Store is always
// query-consistent with what was appended, even after a write error. A
// scan never flushes.
func (s *Store) Scan(f Filter, start, end float64) ([]SeriesChunk, error) {
	first, last := 0, len(s.shards)
	if f.Host != "" {
		first = s.ShardFor(f.Host)
		last = first + 1
	}
	var out []SeriesChunk
	for i := first; i < last; i++ {
		series, err := s.ScanShard(i, f, start, end)
		if err != nil {
			return nil, err
		}
		for _, r := range series {
			out = append(out, SeriesChunk{Labels: r.Labels, Points: slices.Concat(r.Runs...)})
		}
	}
	sortChunks(out)
	return out, nil
}

// NumShards reports the store's shard fan-out, so a fronting hot store
// can verify its own striping agrees before attaching.
func (s *Store) NumShards() int { return len(s.shards) }

func sortChunks(out []SeriesChunk) {
	slices.SortFunc(out, func(a, b SeriesChunk) int { return compareLabels(a.Labels, b.Labels) })
}

// compareLabels orders label tuples by host, device type, device, then
// event.
func compareLabels(a, b Labels) int {
	if c := strings.Compare(a.Host, b.Host); c != 0 {
		return c
	}
	if c := strings.Compare(a.DevType, b.DevType); c != 0 {
		return c
	}
	if c := strings.Compare(a.Device, b.Device); c != 0 {
		return c
	}
	return strings.Compare(a.Event, b.Event)
}

// Newest returns the newest point time the store has seen (0 if empty).
func (s *Store) Newest() float64 {
	var newest float64
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.newest > newest {
			newest = sh.newest
		}
		sh.mu.Unlock()
	}
	return newest
}

// Stats snapshots counters and per-tier totals.
func (s *Store) Stats() Stats {
	s.statMu.Lock()
	st := s.stats
	s.statMu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.w != nil {
			st.ActiveBytes += sh.w.bytes + int64(len(sh.w.pending))
			st.ActivePoints += sh.w.count
		}
		for t := 0; t < numTiers; t++ {
			st.TierSegments[t] += len(sh.sealed[t])
			for _, info := range sh.sealed[t] {
				st.TierBytes[t] += info.bytes
				st.TierIndexBytes[t] += info.indexBytes
				st.TierPoints[t] += info.count
			}
		}
		sh.mu.Unlock()
	}
	return st
}

func (s *Store) publishGauges() {
	st := s.Stats()
	s.met.activeBytes.Set(float64(st.ActiveBytes))
	for t := 0; t < numTiers; t++ {
		s.met.tierBytes[t].Set(float64(st.TierBytes[t]))
		s.met.tierIndex[t].Set(float64(st.TierIndexBytes[t]))
		s.met.tierSegments[t].Set(float64(st.TierSegments[t]))
		s.met.tierPoints[t].Set(float64(st.TierPoints[t]))
	}
}

// StartBackground runs compaction + retention every interval until
// Close. Safe to skip for batch workloads that call Compact directly.
// A pass longer than the interval is followed by at most one more
// right away, never a burst: the ticker drops the ticks its reader
// misses. A failed pass is logged and counted, and the loop goes on.
func (s *Store) StartBackground(interval time.Duration) {
	s.startCompaction(interval, s.Compact)
}

// startCompaction runs pass on a ticker in one goroutine until Close.
func (s *Store) startCompaction(interval time.Duration, pass func() error) {
	if s.bgStop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	s.bgStop, s.bgDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if err := pass(); err != nil {
				s.met.compactFails.Inc()
				s.opts.Logf("segstore: background compaction: %v", err)
			}
		}
	}()
}

// Close stops background compaction (waiting out any in-flight pass,
// so no compaction runs concurrently with the seal), flushes and seals
// every active segment, leaves the store fully durable on disk, and
// drops the file cache's handles: once no scan holds one, the store
// has no fd open.
func (s *Store) Close() error {
	if s.bgStop != nil {
		close(s.bgStop)
		<-s.bgDone
		s.bgStop, s.bgDone = nil, nil
	}
	err := s.Seal()
	s.files.Drain(s.dropHandle)
	return err
}
