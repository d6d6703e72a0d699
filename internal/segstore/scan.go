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
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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
	var targets []scanTarget
	closeAll := func() {
		for _, t := range targets {
			t.f.Close()
		}
	}
	for t := 0; t < numTiers; t++ {
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

	// Accumulate per-series *parts* (one slice per contributing segment)
	// and concatenate exactly once at the end — appending points across
	// segments into a single growing slice re-copies the prefix on every
	// growth, which dominates a cache-warm scan.
	acc := make(map[Labels][][]AggPoint)
	if activeData != nil {
		// The active prefix is all complete frames (writes happen under
		// the shard lock we just held), so damage here is impossible; be
		// tolerant anyway, matching recovery's treatment of actives.
		if d, _, _ := parseSegment(activeData); d != nil {
			mergeSegData(acc, d, f, start, end)
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
				local := make(map[Labels][][]AggPoint)
				for !failed.Load() {
					i := int(next.Add(1))
					if i >= len(targets) {
						break
					}
					if err := s.scanSegment(shard, targets[i], f, start, end, local); err != nil {
						failed.Store(true)
						mu.Lock()
						if first == nil {
							first = err
						}
						mu.Unlock()
						break
					}
				}
				mu.Lock()
				for l, parts := range local {
					acc[l] = append(acc[l], parts...)
				}
				mu.Unlock()
			}()
		}
		wg.Wait()
		if first != nil {
			return nil, first
		}
	}

	out := make([]SeriesChunk, 0, len(acc))
	for l, parts := range acc {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		pts := make([]AggPoint, 0, n)
		for _, p := range parts {
			pts = append(pts, p...)
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Time < pts[j].Time })
		out = append(out, SeriesChunk{Labels: l, Points: pts})
	}
	sortChunks(out)
	return out, nil
}

// scanSegment decodes one sealed segment into acc: the indexed pread
// path when possible, the whole-file scan otherwise.
func (s *Store) scanSegment(shard int, t scanTarget, f Filter, start, end float64, acc map[Labels][][]AggPoint) error {
	if t.info.index != nil {
		if part, ok := s.scanIndexed(shard, t, f, start, end); ok {
			s.met.idxHits.Inc()
			for l, pts := range part {
				acc[l] = append(acc[l], pts)
			}
			return nil
		}
		// Index unusable at read time: degrade to the full scan below.
	}
	s.met.idxFullscans.Inc()
	st, err := t.f.Stat()
	if err != nil {
		return err
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(io.NewSectionReader(t.f, 0, st.Size()), data); err != nil {
		return err
	}
	d, _, derr := parseSegment(data)
	if derr != nil && (d == nil || !d.indexTail) {
		return fmt.Errorf("segstore: sealed segment %s unreadable mid-run: %w", filepath.Base(t.info.path), derr)
	}
	mergeSegData(acc, d, f, start, end)
	return nil
}

// scanIndexed serves a query from index-selected frames through the
// block cache. ok=false means the index could not be used (a pread or
// decode failure) and the caller should fall back to a full scan; the
// partial result is discarded so nothing is double-counted.
func (s *Store) scanIndexed(shard int, t scanTarget, f Filter, start, end float64) (map[Labels][]AggPoint, bool) {
	info, ix := t.info, t.info.index
	want := make([]bool, len(ix.series))
	any := false
	for i, l := range ix.series {
		if f.match(l) {
			want[i] = true
			any = true
		}
	}
	out := make(map[Labels][]AggPoint)
	if !any {
		return out, true
	}
	// Resolve the matching frames through the block cache first, then
	// count matches per series ref so the output slices are allocated at
	// exact capacity — append-doubling and per-point map hashing both
	// dominate a cache-warm scan otherwise.
	expTyp := byte(framePoints)
	if info.tier != tierRaw {
		expTyp = frameBucket
	}
	var dfs []*decodedFrame
	for fi := range ix.frames {
		fs := &ix.frames[fi]
		if !fs.overlaps(start, end) {
			continue
		}
		hit := false
		for _, r := range fs.refs {
			if r < uint64(len(want)) && want[r] {
				hit = true
				break
			}
		}
		if !hit {
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
		dfs = append(dfs, df)
	}
	counts := make([]int, len(ix.series))
	for _, df := range dfs {
		for j, ref := range df.refs {
			if int(ref) < len(want) && want[ref] {
				p := df.pts[j]
				if p.Time >= start && p.Time < end {
					counts[ref]++
				}
			}
		}
	}
	byRef := make([][]AggPoint, len(ix.series))
	for ref, n := range counts {
		if n > 0 {
			byRef[ref] = make([]AggPoint, 0, n)
		}
	}
	for _, df := range dfs {
		for j, ref := range df.refs {
			if int(ref) < len(want) && want[ref] {
				p := df.pts[j]
				if p.Time >= start && p.Time < end {
					byRef[ref] = append(byRef[ref], p)
				}
			}
		}
	}
	// Series refs are unique per label, so the accumulated slices can be
	// handed to the map without copying.
	for ref, pts := range byRef {
		if len(pts) > 0 {
			out[ix.series[ref]] = pts
		}
	}
	return out, true
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

// mergeSegData filters a fully decoded segment into acc, one part per
// matched series.
func mergeSegData(acc map[Labels][][]AggPoint, d *segData, f Filter, start, end float64) {
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
			acc[l] = append(acc[l], pts)
		}
	}
}
