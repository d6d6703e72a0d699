// The read path. ScanShard captures the segments overlapping a query
// under the shard lock, then decodes them outside it. A sealed segment
// is captured as a held reference on its read handle: the handle's fd
// lives in the store's file cache, one bounded LRU keyed by (shard,
// seq), so a cache-warm scan makes no open or close system call. The
// cache holds one reference while the handle is resident and each
// capturing scan holds one while it reads; the fd closes when the last
// is dropped. Eviction, and Remove when retention, compaction or
// quarantine takes a segment out of the directory, drop only the
// cache's reference, so a scan never loses a segment that is unlinked
// mid-read. The active segment is captured as its writer's running
// index: an fd on the file, opened per read, length-capped views of
// the dictionary, string tables and frame table (the writer only
// appends past their ends), and a copy of the pending frame's entries. A read never
// flushes, so the bytes on disk depend only on the write stream.
//
// The captured segments are decoded by a fixed set of workers pulling
// target indexes off an atomic counter: the calling goroutine plus at
// most scanParallelism−1 more, so a scan with one target starts no
// goroutine at all.
//
// Indexed segments take the fast path: the index selects only the
// frames whose time extent and series refs intersect the query, each
// selected frame is pread and decoded in isolation, and everything else
// on disk is never touched. Sealed frames are decoded whole into the
// shared block cache, and a scan borrows the wanted series' runs from
// the cached frame without copying them; the active segment's frames
// and its pending entries are decoded per read, keeping only the
// wanted series' in-window points. Every segment has an index (one
// rebuilt at open for a sealed segment without a usable index frame);
// an error on a sealed segment's indexed path degrades to a whole-file
// scan rather than failing the query.
package segstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"gostats/internal/framelog"
)

// blockKey names a sealed frame in the block cache. Sealed segments are
// immutable and sequence numbers never recycle within a store, so a
// key's bytes never change under a cached frame: seq is the generation.
type blockKey struct {
	shard int
	tier  int
	seq   uint64
	off   int64
}

// scanParallelism is the per-shard decode fan-out.
func scanParallelism(n int) int {
	k := runtime.GOMAXPROCS(0)
	if k > 8 {
		k = 8
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// maxOpenSegments bounds the file cache: the sealed-segment read
// handles kept open between scans, across every shard.
const maxOpenSegments = 256

// fileKey names a sealed segment in the file cache. Sequence numbers
// never recycle within a shard, so a key never names two files.
type fileKey struct {
	shard int
	seq   uint64
}

// segFile is a refcounted read handle on a segment file. Every holder
// owns one reference, and the last release closes the fd. Holders only
// ReadAt and Stat it, which are safe to share.
type segFile struct {
	f    *os.File
	refs atomic.Int32
}

// acquire takes one more reference unless the handle is already
// closed, which happens only once nothing held it.
func (h *segFile) acquire() bool {
	for {
		n := h.refs.Load()
		if n == 0 {
			return false
		}
		if h.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (h *segFile) release() {
	if h.refs.Add(-1) == 0 {
		h.f.Close()
	}
}

// dropHandle drops the file cache's reference on a handle leaving it.
func (s *Store) dropHandle(_ fileKey, h *segFile) {
	s.met.openFiles.Add(-1)
	h.release()
}

// openSealed returns a held reference on info's read handle, opening
// the file on a cache miss. Caller holds the shard lock, so retention,
// compaction and quarantine cannot take the segment away meanwhile.
func (s *Store) openSealed(shard int, info *segInfo) (*segFile, error) {
	k := fileKey{shard: shard, seq: info.seq}
	for {
		h, hit, err := s.files.Get(k, func() (*segFile, error) {
			f, err := os.Open(info.path)
			if err != nil {
				return nil, err
			}
			s.bumpFileOpens()
			s.met.openFiles.Add(1)
			h := &segFile{f: f}
			h.refs.Store(2) // the cache's and this caller's
			return h, nil
		})
		if err != nil {
			return nil, err
		}
		// A resident handle can be evicted, and closed, between Get and
		// acquire; the next Get then opens the file afresh.
		if !hit || h.acquire() {
			return h, nil
		}
	}
}

// scanTarget is one segment captured for reading outside the shard
// lock, holding a reference on its handle. For the active segment, info
// carries the writer's running index and pending holds the unflushed
// entries as a frame payload (entry count first) described by pfs.
type scanTarget struct {
	h       *segFile
	info    *segInfo
	active  bool
	pending []byte
	pfs     frameStat
}

// activeTarget captures what a read of [start, end) needs from the
// active segment, on a handle of its own. Caller holds the shard lock.
func activeTarget(w *segWriter, start, end float64) (scanTarget, error) {
	fh, err := os.Open(w.path)
	if err != nil {
		return scanTarget{}, err
	}
	h := &segFile{f: fh}
	h.refs.Store(1)
	ns, nf := len(w.series), len(w.frames)
	ix := &segIndex{segDict: segDict{version: segFormatVersion, series: w.series[:ns:ns]}, frames: w.frames[:nf:nf]}
	for f, tab := range w.codes.tables {
		ix.tables[f] = tab[:len(tab):len(tab)]
	}
	t := scanTarget{h: h, active: true, info: &segInfo{path: w.path, tier: w.meta.Tier, seq: w.meta.Seq, index: ix}}
	if w.nPend > 0 && w.fstat.overlaps(start, end) {
		t.pending = w.appendPayload(make([]byte, 0, binary.MaxVarintLen64+len(w.pending)))
		t.pfs = w.fstat
		t.pfs.refs = slices.Clone(w.frefs) // sorted outside the lock
	}
	return t, nil
}

// ScanShard scans one shard only — the entry point for a sharded hot
// store that merges its stripe i with cold stripe i under its own
// per-shard boundary. Safe for any number of concurrent callers.
//
// Each series comes back as runs that, concatenated, are its points in
// [start, end) sorted by time. The runs alias frames in the block
// cache, which other readers share: they are read-only. Store.Scan
// returns caller-owned copies.
func (s *Store) ScanShard(shard int, f Filter, start, end float64) ([]SeriesRuns, error) {
	sh := s.shards[shard]
	sh.mu.Lock()
	// Targets are taken coarsest tier first, by seq within a tier (each
	// sh.sealed list is seq-sorted), and joined in that order with the
	// active segment last. Compaction moves older data up the tiers, so
	// the join is usually already time-ordered, and points with equal
	// times always meet the stable sort below in the same order.
	var targets []scanTarget
	releaseAll := func() {
		for _, t := range targets {
			t.h.release()
		}
	}
	for t := numTiers - 1; t >= 0; t-- {
		for _, info := range sh.sealed[t] {
			if info.minT < end && info.maxT >= start {
				h, err := s.openSealed(shard, info)
				if err != nil {
					releaseAll()
					sh.mu.Unlock()
					return nil, err
				}
				targets = append(targets, scanTarget{h: h, info: info})
			}
		}
	}
	// A sticky write error does not hide the active segment: its
	// recorded frames reached the file and its pending entries are in
	// memory, so reads serve both; the error surfaces on Commit.
	if w := sh.w; w != nil && w.entries > 0 && w.minT < end && w.maxT >= start {
		t, err := activeTarget(w, start, end)
		if err != nil {
			releaseAll()
			sh.mu.Unlock()
			return nil, err
		}
		targets = append(targets, t)
	}
	sh.mu.Unlock()
	defer releaseAll()

	parts := make([]segRuns, len(targets))
	var (
		mu     sync.Mutex
		first  error
		failed atomic.Bool
		next   atomic.Int64
		wg     sync.WaitGroup
	)
	next.Store(-1)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1))
			if i >= len(targets) {
				return
			}
			part, err := s.scanSegment(shard, targets[i], f, start, end)
			if err != nil {
				failed.Store(true)
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
				return
			}
			parts[i] = part
		}
	}
	// The calling goroutine is one of the workers.
	k := scanParallelism(len(targets))
	wg.Add(k - 1)
	for w := 1; w < k; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return joinRuns(parts), nil
}

// joinRuns gathers each series' runs from the segments' parts in part
// order, frame order within a part. A series whose runs are not
// time-ordered end to end is flattened and stable-sorted into one run,
// so equal times keep their join order.
func joinRuns(parts []segRuns) []SeriesRuns {
	// Number the series in first-seen order and count their runs, so
	// every series' run list is carved from one backing array. Each
	// run's w is rewritten from its part's want position to that number.
	idOf := make(map[Labels]int32)
	var counts []int32
	total := 0
	for pi := range parts {
		p := &parts[pi]
		ids := make([]int32, len(p.want))
		for i := range ids {
			ids[i] = -1
		}
		for ri := range p.runs {
			r := &p.runs[ri]
			id := ids[r.w]
			if id < 0 {
				l := p.series[p.want[r.w]]
				var ok bool
				if id, ok = idOf[l]; !ok {
					id = int32(len(counts))
					idOf[l] = id
					counts = append(counts, 0)
				}
				ids[r.w] = id
			}
			r.w = id
			counts[id]++
			total++
		}
	}
	out := make([]SeriesRuns, len(counts))
	for l, id := range idOf {
		out[id].Labels = l
	}
	backing := make([][]AggPoint, total)
	off := int32(0)
	for id, n := range counts {
		out[id].Runs = backing[off : off : off+n]
		off += n
	}
	unordered := make([]bool, len(out))
	for pi := range parts {
		for _, r := range parts[pi].runs {
			o := &out[r.w]
			if n := len(o.Runs); !r.sorted || (n > 0 && r.pts[0].Time < o.Runs[n-1][len(o.Runs[n-1])-1].Time) {
				unordered[r.w] = true
			}
			o.Runs = append(o.Runs, r.pts)
		}
	}
	for id := range out {
		if !unordered[id] {
			continue
		}
		o := &out[id]
		pts := slices.Concat(o.Runs...)
		slices.SortStableFunc(pts, byTime)
		o.Runs = append(o.Runs[:0], pts)
	}
	slices.SortFunc(out, func(a, b SeriesRuns) int { return compareLabels(a.Labels, b.Labels) })
	return out
}

// byTime orders points by time, for the join's stable sort.
func byTime(a, b AggPoint) int { return cmp.Compare(a.Time, b.Time) }

// segRuns is one segment's share of a scan: the wanted series' runs in
// frame order. A run names its series by its position w in want, whose
// refs index series.
type segRuns struct {
	series []Labels
	want   []uint32
	runs   []wantRun
}

// wantRun is one wanted series' non-empty points in one frame (or in a
// whole segment, on the full-scan path), cut to the query window.
type wantRun struct {
	w      int32
	sorted bool
	pts    []AggPoint
}

// scanSegment reads one segment's matching points through its index,
// degrading to a whole-file scan of a sealed segment whose index fails
// at read time.
func (s *Store) scanSegment(shard int, t scanTarget, f Filter, start, end float64) (segRuns, error) {
	part, err := s.scanIndexed(shard, t, f, start, end)
	if err == nil {
		s.met.idxHits.Inc()
		return part, nil
	}
	if t.active {
		// The writer's index is the only way into the active segment.
		return segRuns{}, fmt.Errorf("segstore: active segment %s: %w", filepath.Base(t.info.path), err)
	}
	s.opts.Logf("segstore: %s: indexed read failed (%v); degrading to full scan", filepath.Base(t.info.path), err)
	s.met.idxFullscans.Inc()
	st, err := t.h.f.Stat()
	if err != nil {
		return segRuns{}, err
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(io.NewSectionReader(t.h.f, 0, st.Size()), data); err != nil {
		return segRuns{}, err
	}
	d, _, derr := parseSegment(data)
	if derr != nil && (d == nil || !d.indexTail) {
		return segRuns{}, fmt.Errorf("segstore: sealed segment %s unreadable mid-run: %w", filepath.Base(t.info.path), derr)
	}
	return segChunks(d, f, start, end), nil
}

// scanIndexed serves a query from index-selected frames — through the
// block cache for a sealed segment, decoded per read for the active
// one, whose pending entries count as one more frame after the flushed
// ones. An error means the index could not be used (a pread or decode
// failure); the partial result is discarded so nothing is
// double-counted.
//
// A cached frame's runs are handed out as sub-slices: whole when the
// frame lies inside the window, cut by binary search when a sorted run
// straddles an edge, and copied only when an unsorted one does. The
// active segment's frames are decoded selectively, keeping only the
// wanted series' in-window points.
func (s *Store) scanIndexed(shard int, t scanTarget, f Filter, start, end float64) (segRuns, error) {
	info, ix := t.info, t.info.index
	var want []uint32
	if t.active {
		// A postings list built for a dictionary that grows with every
		// write would serve one query; a linear match is cheaper.
		want = matchRefs(ix.series, f)
	} else {
		want = ix.refsFor(f)
	}
	out := segRuns{series: ix.series, want: want}
	if len(want) == 0 {
		return out, nil
	}
	expTyp := byte(framePoints)
	if info.tier != tierRaw {
		expTyp = frameBucket
	}
	nFrames := len(ix.frames)
	if t.pending != nil {
		slices.Sort(t.pfs.refs)
		nFrames++
	}
	sel := &frameSel{want: want, start: start, end: end}
	for fi := 0; fi < nFrames; fi++ {
		fs := &t.pfs
		if fi < len(ix.frames) {
			fs = &ix.frames[fi]
		}
		if !fs.overlaps(start, end) || !intersects(want, fs.refs) {
			continue
		}
		// whole marks a frame lying entirely inside the window, whose
		// runs need no cut; a selective decode has cut them already.
		whole := float64(fs.minMs)/1000 >= start && float64(fs.maxMs)/1000 < end
		var df *decodedFrame
		var err error
		switch {
		case !t.active:
			key := blockKey{shard: shard, tier: info.tier, seq: info.seq, off: fs.off}
			var hit bool
			df, hit, err = s.blocks.Get(key, func() (*decodedFrame, error) {
				return readFrameAt(t.h.f, expTyp, ix, *fs, nil)
			})
			if hit {
				s.met.bcHits.Inc()
			} else {
				s.met.bcMisses.Inc()
			}
		case fi == len(ix.frames):
			df, err = decodeFrameStandalone(t.pending, expTyp, *fs, &ix.segDict, sel)
			whole = true
		default:
			df, err = readFrameAt(t.h.f, expTyp, ix, *fs, sel)
			whole = true
		}
		if err != nil {
			return segRuns{}, err
		}
		for w, i, ok := nextCommon(want, df.refs, 0, 0); ok; w, i, ok = nextCommon(want, df.refs, w+1, i+1) {
			pts, sorted := df.run(i)
			if !whole {
				pts, sorted = cutRun(pts, sorted, start, end)
			}
			if len(pts) > 0 {
				out.runs = append(out.runs, wantRun{w: int32(w), sorted: sorted, pts: pts})
			}
		}
	}
	return out, nil
}

// cutRun returns the points of a run in [start, end): a sub-slice when
// the run is sorted, else a filtered copy in run order, with whether
// the result is sorted.
func cutRun(pts []AggPoint, sorted bool, start, end float64) ([]AggPoint, bool) {
	if sorted {
		lo, _ := slices.BinarySearchFunc(pts, start, timeCmp)
		hi, _ := slices.BinarySearchFunc(pts[lo:], end, timeCmp)
		return pts[lo : lo+hi], true
	}
	var out []AggPoint
	for _, p := range pts {
		if p.Time >= start && p.Time < end {
			out = append(out, p)
		}
	}
	return out, slices.IsSortedFunc(out, byTime)
}

// timeCmp orders a point against a time, for binary searches by time:
// the least index whose time is >= t.
func timeCmp(p AggPoint, t float64) int { return cmp.Compare(p.Time, t) }

// readFrameAt preads the frame fs of ix's segment and decodes it in
// isolation, verifying the framing and checksum against what the index
// claims; sel narrows the decode as decodeFrameStandalone describes.
func readFrameAt(f *os.File, expTyp byte, ix *segIndex, fs frameStat, sel *frameSel) (*decodedFrame, error) {
	if fs.size < 6 || fs.size > maxFramePayload+16 {
		return nil, fmt.Errorf("segstore: indexed frame size %d out of range", fs.size)
	}
	buf := make([]byte, fs.size)
	if _, err := f.ReadAt(buf, fs.off); err != nil {
		return nil, err
	}
	typ, payload, err := framelog.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("segstore: indexed frame at offset %d: %w", fs.off, err)
	}
	if typ != expTyp {
		return nil, fmt.Errorf("segstore: frame type %q at offset %d, want %q", typ, fs.off, expTyp)
	}
	return decodeFrameStandalone(payload, typ, fs, &ix.segDict, sel)
}

// segChunks filters a fully decoded segment: one run per matched series
// with points in the window.
func segChunks(d *segData, f Filter, start, end float64) segRuns {
	out := segRuns{series: d.series}
	for i, l := range d.series {
		if !f.match(l) {
			continue
		}
		var pts []AggPoint
		for _, p := range d.chunks[i] {
			if p.Time >= start && p.Time < end {
				pts = append(pts, p)
			}
		}
		if len(pts) > 0 {
			out.runs = append(out.runs, wantRun{w: int32(len(out.want)), sorted: slices.IsSortedFunc(pts, byTime), pts: pts})
			out.want = append(out.want, uint32(i))
		}
	}
	return out
}
