// The read path. ScanShard captures the segments overlapping a query
// under the shard lock, then decodes them outside it with K-way
// parallelism. A sealed segment is captured as an fd, so its bytes stay
// reachable even if compaction or retention unlinks the file mid-read.
// The active segment is captured as its writer's running index: an fd
// on the file, length-capped views of the dictionary and frame table
// (the writer only appends past their ends), and a copy of the pending
// frame's entries. A read never flushes, so the bytes on disk depend
// only on the write stream.
//
// Indexed segments take the fast path: the index selects only the
// frames whose time extent and series refs intersect the query, each
// selected frame is pread and decoded in isolation, and everything else
// on disk is never touched. Sealed frames go through the shared block
// cache; the active segment's frames and its pending entries are
// decoded per read. Sealed segments without a usable index (sealed by
// older binaries, or with a damaged index frame) fall back to the PR 8
// whole-file scan, and any error on a sealed segment's indexed path
// also degrades to the full scan rather than failing the query.
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

// scanTarget is one segment captured for reading outside the shard
// lock. For the active segment, info carries the writer's running index
// and pending holds the unflushed entries as a frame payload (entry
// count first) described by pfs.
type scanTarget struct {
	f       *os.File
	info    *segInfo
	active  bool
	pending []byte
	pfs     frameStat
}

// activeTarget captures what a read of [start, end) needs from the
// active segment. Caller holds the shard lock.
func activeTarget(w *segWriter, start, end float64) (scanTarget, error) {
	fh, err := os.Open(w.path)
	if err != nil {
		return scanTarget{}, err
	}
	ns, nf := len(w.series), len(w.frames)
	t := scanTarget{f: fh, active: true, info: &segInfo{
		path: w.path, tier: w.meta.Tier, seq: w.meta.Seq,
		index: &segIndex{series: w.series[:ns:ns], frames: w.frames[:nf:nf]},
	}}
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
func (s *Store) ScanShard(shard int, f Filter, start, end float64) ([]SeriesChunk, error) {
	sh := s.shards[shard]
	sh.mu.Lock()
	// Targets are taken coarsest tier first, by seq within a tier (each
	// sh.sealed list is seq-sorted), and joined in that order with the
	// active segment last. Compaction moves older data up the tiers, so
	// the join is usually already time-ordered, and points with equal
	// times always meet the stable sort below in the same order.
	var targets []scanTarget
	closeAll := func() {
		for _, t := range targets {
			t.f.Close()
		}
	}
	for t := numTiers - 1; t >= 0; t-- {
		for _, info := range sh.sealed[t] {
			if info.minT < end && info.maxT >= start {
				fh, err := os.Open(info.path)
				if err != nil {
					closeAll()
					sh.mu.Unlock()
					return nil, err
				}
				targets = append(targets, scanTarget{f: fh, info: info})
			}
		}
	}
	// A sticky write error does not hide the active segment: its
	// recorded frames reached the file and its pending entries are in
	// memory, so reads serve both; the error surfaces on Commit.
	if w := sh.w; w != nil && w.entries > 0 && w.minT < end && w.maxT >= start {
		t, err := activeTarget(w, start, end)
		if err != nil {
			closeAll()
			sh.mu.Unlock()
			return nil, err
		}
		targets = append(targets, t)
	}
	sh.mu.Unlock()
	defer closeAll()

	parts := make([][]SeriesChunk, len(targets))
	if len(targets) > 0 {
		var (
			mu     sync.Mutex
			first  error
			failed atomic.Bool
			next   atomic.Int64
			wg     sync.WaitGroup
		)
		next.Store(-1)
		k := scanParallelism(len(targets))
		wg.Add(k)
		for w := 0; w < k; w++ {
			go func() {
				defer wg.Done()
				for !failed.Load() {
					i := int(next.Add(1))
					if i >= len(targets) {
						break
					}
					part, err := s.scanSegment(shard, targets[i], f, start, end)
					if err != nil {
						failed.Store(true)
						mu.Lock()
						if first == nil {
							first = err
						}
						mu.Unlock()
						break
					}
					parts[i] = part
				}
			}()
		}
		wg.Wait()
		if first != nil {
			return nil, first
		}
	}

	// Join each series' parts once at the end — appending points across
	// segments into one growing slice re-copies the prefix on every
	// growth, which dominates a cache-warm scan.
	acc := make(map[Labels][][]AggPoint)
	for _, part := range parts {
		for _, c := range part {
			acc[c.Labels] = append(acc[c.Labels], c.Points)
		}
	}
	out := make([]SeriesChunk, 0, len(acc))
	for l, ps := range acc {
		// Every part is freshly allocated, so a lone part is used as is.
		pts := ps[0]
		if len(ps) > 1 {
			n := 0
			for _, p := range ps {
				n += len(p)
			}
			pts = make([]AggPoint, 0, n)
			for _, p := range ps {
				pts = append(pts, p...)
			}
		}
		if !slices.IsSortedFunc(pts, byTime) {
			slices.SortStableFunc(pts, byTime)
		}
		out = append(out, SeriesChunk{Labels: l, Points: pts})
	}
	sortChunks(out)
	return out, nil
}

// byTime orders points by time, for the join's sortedness check and
// stable sort.
func byTime(a, b AggPoint) int { return cmp.Compare(a.Time, b.Time) }

// scanSegment reads one segment's matching points: the indexed pread
// path when possible, the whole-file scan of a sealed segment otherwise.
func (s *Store) scanSegment(shard int, t scanTarget, f Filter, start, end float64) ([]SeriesChunk, error) {
	if t.info.index != nil {
		part, err := s.scanIndexed(shard, t, f, start, end)
		if err == nil {
			s.met.idxHits.Inc()
			return part, nil
		}
		if t.active {
			// The writer's index is the only way into the active segment.
			return nil, fmt.Errorf("segstore: active segment %s: %w", filepath.Base(t.info.path), err)
		}
		// Index unusable at read time: degrade to the full scan below.
		s.opts.Logf("segstore: %s: indexed read failed (%v); degrading to full scan", filepath.Base(t.info.path), err)
	}
	s.met.idxFullscans.Inc()
	st, err := t.f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(io.NewSectionReader(t.f, 0, st.Size()), data); err != nil {
		return nil, err
	}
	d, _, derr := parseSegment(data)
	if derr != nil && (d == nil || !d.indexTail) {
		return nil, fmt.Errorf("segstore: sealed segment %s unreadable mid-run: %w", filepath.Base(t.info.path), derr)
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
// The wanted refs and each frame's refs are both ascending, so one
// merge walk per frame finds the series-major runs to copy; the rest of
// the frame is never touched.
func (s *Store) scanIndexed(shard int, t scanTarget, f Filter, start, end float64) ([]SeriesChunk, error) {
	info, ix := t.info, t.info.index
	var want []uint32
	if t.active {
		// A postings list built for a dictionary that grows with every
		// write would serve one query; a linear match is cheaper.
		want = matchRefs(ix.series, f)
	} else {
		want = ix.refsFor(f)
	}
	if len(want) == 0 {
		return nil, nil
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
	// A run is one wanted series' points in one frame; whole marks a
	// frame lying entirely inside the window, whose runs need no
	// per-point test. Runs are counted first so every output slice is
	// allocated at exact capacity.
	type run struct {
		pts   []AggPoint
		w     int
		whole bool
	}
	var runs []run
	counts := make([]int, len(want))
	for fi := 0; fi < nFrames; fi++ {
		fs := &t.pfs
		if fi < len(ix.frames) {
			fs = &ix.frames[fi]
		}
		if !fs.overlaps(start, end) || !intersects(want, fs.refs) {
			continue
		}
		var df *decodedFrame
		var err error
		switch {
		case !t.active:
			key := blockKey{shard: shard, tier: info.tier, seq: info.seq, off: fs.off}
			var hit bool
			df, hit, err = s.blocks.Get(key, func() (*decodedFrame, error) {
				return readFrameAt(t.f, expTyp, *fs, ix.series)
			})
			if hit {
				s.met.bcHits.Inc()
			} else {
				s.met.bcMisses.Inc()
			}
		case fi == len(ix.frames):
			df, err = decodeFrameStandalone(t.pending, expTyp, *fs, ix.series)
		default:
			// Caching the active segment's frames saves no CPU and costs
			// resident memory, so they are decoded per read.
			df, err = readFrameAt(t.f, expTyp, *fs, ix.series)
		}
		if err != nil {
			return nil, err
		}
		whole := float64(fs.minMs)/1000 >= start && float64(fs.maxMs)/1000 < end
		for w, i := 0, 0; w < len(want) && i < len(df.refs); {
			switch {
			case want[w] < df.refs[i]:
				w++
			case want[w] > df.refs[i]:
				i++
			default:
				r := run{pts: df.run(i), w: w, whole: whole}
				n := len(r.pts)
				if !whole {
					n = 0
					for _, p := range r.pts {
						if p.Time >= start && p.Time < end {
							n++
						}
					}
				}
				if n > 0 {
					counts[w] += n
					runs = append(runs, r)
				}
				w++
				i++
			}
		}
	}
	byWant := make([][]AggPoint, len(want))
	nSeries := 0
	for w, n := range counts {
		if n > 0 {
			byWant[w] = make([]AggPoint, 0, n)
			nSeries++
		}
	}
	for _, r := range runs {
		if r.whole {
			byWant[r.w] = append(byWant[r.w], r.pts...)
			continue
		}
		for _, p := range r.pts {
			if p.Time >= start && p.Time < end {
				byWant[r.w] = append(byWant[r.w], p)
			}
		}
	}
	out := make([]SeriesChunk, 0, nSeries)
	for w, pts := range byWant {
		if len(pts) > 0 {
			out = append(out, SeriesChunk{Labels: ix.series[want[w]], Points: pts})
		}
	}
	return out, nil
}

// intersects reports whether the ascending ref lists share a ref.
func intersects(want []uint32, refs []uint64) bool {
	for w, i := 0, 0; w < len(want) && i < len(refs); {
		switch {
		case uint64(want[w]) < refs[i]:
			w++
		case uint64(want[w]) > refs[i]:
			i++
		default:
			return true
		}
	}
	return false
}

// readFrameAt preads one frame and decodes it in isolation, verifying
// the framing and checksum against what the index claims.
func readFrameAt(f *os.File, expTyp byte, fs frameStat, series []Labels) (*decodedFrame, error) {
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
	return decodeFrameStandalone(payload, typ, fs, series)
}

// segChunks filters a fully decoded segment, one chunk per matched
// series with points in the window.
func segChunks(d *segData, f Filter, start, end float64) []SeriesChunk {
	var out []SeriesChunk
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
			out = append(out, SeriesChunk{Labels: l, Points: pts})
		}
	}
	return out
}
