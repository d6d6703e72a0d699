// The read path. ScanShard snapshots the segments overlapping a query
// under the shard lock — opening an fd per sealed segment, so the bytes
// stay reachable even if compaction or retention unlinks a file mid-read
// — then decodes them outside the lock with K-way parallelism.
//
// Indexed segments take the fast path: the seal-time index selects only
// the frames whose time extent and series refs intersect the query,
// each selected frame is pread and decoded through the shared block
// cache, and everything else on disk is never touched. Segments without
// a usable index (sealed by older binaries, or with a damaged index
// frame) fall back to the PR 8 whole-file scan; any error on the
// indexed path also degrades to the full scan rather than failing the
// query.
package segstore

import (
	"cmp"
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

// scanTarget is one sealed segment captured for reading outside the
// shard lock.
type scanTarget struct {
	f    *os.File
	info *segInfo
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
	// The active segment is the one file that grows and gets renamed, so
	// its bytes are copied out under the lock; decode happens outside.
	var activeData []byte
	if sh.w != nil && sh.werr == nil {
		if err := sh.w.flushFrame(); err != nil {
			sh.werr = err
		} else if sh.w.minT < end && sh.w.maxT >= start && sh.w.entries > 0 {
			data, err := os.ReadFile(sh.w.path)
			if err != nil {
				closeAll()
				sh.mu.Unlock()
				return nil, err
			}
			activeData = data
		}
	}
	sh.mu.Unlock()
	defer closeAll()

	// parts[i] is target i's result; the last slot is the active
	// segment's.
	parts := make([][]SeriesChunk, len(targets)+1)
	if activeData != nil {
		// The active prefix is all complete frames (writes happen under
		// the shard lock we just held), so damage here is impossible; be
		// tolerant anyway, matching recovery's treatment of actives.
		if d, _, _ := parseSegment(activeData); d != nil {
			parts[len(targets)] = segChunks(d, f, start, end)
		}
	}

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

// scanSegment reads one sealed segment's matching points: the indexed
// pread path when possible, the whole-file scan otherwise.
func (s *Store) scanSegment(shard int, t scanTarget, f Filter, start, end float64) ([]SeriesChunk, error) {
	if t.info.index != nil {
		if part, ok := s.scanIndexed(shard, t, f, start, end); ok {
			s.met.idxHits.Inc()
			return part, nil
		}
		// Index unusable at read time: degrade to the full scan below.
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

// scanIndexed serves a query from index-selected frames through the
// block cache. ok=false means the index could not be used (a pread or
// decode failure) and the caller should fall back to a full scan; the
// partial result is discarded so nothing is double-counted.
//
// The wanted refs and each frame's refs are both ascending, so one
// merge walk per frame finds the series-major runs to copy; the rest of
// the frame is never touched.
func (s *Store) scanIndexed(shard int, t scanTarget, f Filter, start, end float64) ([]SeriesChunk, bool) {
	info, ix := t.info, t.info.index
	want := ix.refsFor(f)
	if len(want) == 0 {
		return nil, true
	}
	expTyp := byte(framePoints)
	if info.tier != tierRaw {
		expTyp = frameBucket
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
	for fi := range ix.frames {
		fs := &ix.frames[fi]
		if !fs.overlaps(start, end) || !intersects(want, fs.refs) {
			continue
		}
		key := blockKey{shard: shard, tier: info.tier, seq: info.seq, off: fs.off}
		df, err := s.blocks.get(key, func() (*decodedFrame, error) {
			return readFrameAt(t.f, expTyp, *fs, ix.series)
		})
		if err != nil {
			s.opts.Logf("segstore: %s: indexed read failed (%v); degrading to full scan", filepath.Base(info.path), err)
			return nil, false
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
	return out, true
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
