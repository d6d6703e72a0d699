// Sparse per-segment index: the seal-time frame map that lets a query
// pread only the frames it needs instead of decoding whole segments.
//
// The index is one 'I' frame appended as the last frame of a sealed
// segment. It carries the segment's complete series dictionary plus a
// per-data-frame table: byte offset and size, the running timestamp
// base entering the frame, the frame's time extent, the dictionary
// size at frame start, and the distinct series refs the frame touches.
// That is exactly the state a frame needs to be decoded in isolation —
// a format-2 value repeat never reaches outside its frame — and the data
// frames do not depend on it, so segments written by older binaries (no
// index frame) stay readable via the full-scan path.
package segstore

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"gostats/internal/framelog"
)

// frameStat describes one data frame for the index: where it lives in
// the file and what it contains.
type frameStat struct {
	off      int64    // file offset of the frame's type byte
	size     int64    // total frame bytes: type + length varint + payload + crc
	firstMs  int64    // running delta base entering the frame
	minMs    int64    // earliest entry time in the frame
	maxMs    int64    // latest entry time in the frame
	dictBase uint64   // series table size at frame start
	refs     []uint64 // distinct series refs present, ascending
}

// segIndex is the decoded index of one segment: the full label
// dictionary plus the frame table, and a lazily built postings list.
type segIndex struct {
	series  []Labels
	frames  []frameStat
	version uint64 // the segment's format version, which its entries follow

	// postings maps (device type, event) to its series refs, built on
	// first use by refsFor.
	postOnce sync.Once
	postings map[devEvent][]uint32
}

// overlaps reports whether the frame may hold an entry in the half-open
// window [start, end) seconds. The comparison uses the same ms→float
// conversion the decoder uses for point times, so pruning is exact.
func (fs *frameStat) overlaps(start, end float64) bool {
	return float64(fs.minMs)/1000 < end && float64(fs.maxMs)/1000 >= start
}

// devEvent keys the postings list: one (device type, event) pair.
type devEvent struct{ devType, event string }

// refsFor returns the ascending refs of the series f matches. A filter
// naming both a device type and an event starts from that pair's
// postings list; any other filter matches the whole dictionary. The
// result may alias the postings list and must not be modified.
func (ix *segIndex) refsFor(f Filter) []uint32 {
	if f.DevType == "" || f.Event == "" {
		return matchRefs(ix.series, f)
	}
	ix.postOnce.Do(ix.buildPostings)
	cand := ix.postings[devEvent{f.DevType, f.Event}]
	if f.Host == "" && f.Device == "" {
		return cand
	}
	var out []uint32
	for _, r := range cand {
		if f.match(ix.series[r]) {
			out = append(out, r)
		}
	}
	return out
}

// matchRefs returns the ascending refs of the series in a dictionary
// that f matches.
func matchRefs(series []Labels, f Filter) []uint32 {
	var out []uint32
	for i, l := range series {
		if f.match(l) {
			out = append(out, uint32(i))
		}
	}
	return out
}

// buildPostings groups the dictionary's refs by (device type, event),
// each list ascending because refs are visited in order.
func (ix *segIndex) buildPostings() {
	ix.postings = make(map[devEvent][]uint32)
	for i, l := range ix.series {
		k := devEvent{l.DevType, l.Event}
		ix.postings[k] = append(ix.postings[k], uint32(i))
	}
}

// encodeIndexPayload renders the index frame payload.
func encodeIndexPayload(series []Labels, frames []frameStat) []byte {
	b := make([]byte, 0, 64+len(series)*32+len(frames)*24)
	b = binary.AppendUvarint(b, uint64(len(series)))
	for _, l := range series {
		b = appendLabels(b, l)
	}
	b = binary.AppendUvarint(b, uint64(len(frames)))
	for i := range frames {
		fs := &frames[i]
		b = binary.AppendUvarint(b, uint64(fs.off))
		b = binary.AppendUvarint(b, uint64(fs.size))
		b = binary.AppendVarint(b, fs.firstMs)
		b = binary.AppendVarint(b, fs.minMs)
		b = binary.AppendVarint(b, fs.maxMs)
		b = binary.AppendUvarint(b, fs.dictBase)
		b = binary.AppendUvarint(b, uint64(len(fs.refs)))
		prev := uint64(0)
		for _, r := range fs.refs {
			// Refs are ascending, so deltas stay small.
			b = binary.AppendUvarint(b, r-prev)
			prev = r
		}
	}
	return b
}

// parseIndexPayload decodes an index frame payload. Errors mean the
// payload is not a usable index (the caller degrades to a full scan);
// they never invalidate the segment's data frames.
func parseIndexPayload(payload []byte) (*segIndex, error) {
	c := framelog.Cursor{B: payload}
	nSeries, err := c.Count(4)
	if err != nil {
		return nil, fmt.Errorf("segstore: index series count: %w", err)
	}
	if nSeries > maxSeriesTable {
		return nil, fmt.Errorf("segstore: index series table overflow")
	}
	ix := &segIndex{series: make([]Labels, nSeries)}
	for i := range ix.series {
		if ix.series[i], err = readLabels(&c); err != nil {
			return nil, fmt.Errorf("segstore: index series: %w", err)
		}
	}
	nFrames, err := c.Count(7)
	if err != nil {
		return nil, fmt.Errorf("segstore: index frame count: %w", err)
	}
	ix.frames = make([]frameStat, nFrames)
	for i := 0; i < nFrames; i++ {
		fs := &ix.frames[i]
		var u uint64
		if u, err = c.Uvarint(); err == nil {
			fs.off = int64(u)
			u, err = c.Uvarint()
		}
		if err == nil {
			fs.size = int64(u)
			fs.firstMs, err = c.Varint()
		}
		if err == nil {
			fs.minMs, err = c.Varint()
		}
		if err == nil {
			fs.maxMs, err = c.Varint()
		}
		if err == nil {
			fs.dictBase, err = c.Uvarint()
		}
		if err != nil {
			return nil, fmt.Errorf("segstore: index frame %d: %w", i, err)
		}
		nRefs, err := c.Count(1)
		if err != nil {
			return nil, fmt.Errorf("segstore: index frame %d refs: %w", i, err)
		}
		fs.refs = make([]uint64, nRefs)
		prev := uint64(0)
		for j := 0; j < nRefs; j++ {
			d, err := c.Uvarint()
			if err != nil {
				return nil, fmt.Errorf("segstore: index frame %d refs: %w", i, err)
			}
			prev += d
			if prev >= uint64(nSeries) {
				return nil, fmt.Errorf("segstore: index frame %d ref %d exceeds series table %d", i, prev, nSeries)
			}
			fs.refs[j] = prev
		}
		if fs.dictBase > uint64(nSeries) {
			return nil, fmt.Errorf("segstore: index frame %d dict base %d exceeds series table %d", i, fs.dictBase, nSeries)
		}
	}
	return ix, nil
}

// decodedFrame is one data frame decoded in isolation and laid out
// series-major: refs holds the frame's distinct series refs ascending
// (the index's own list), and series refs[i]'s points are
// pts[start[i]:start[i+1]] in append order, time-sorted unless
// unsorted[i]. A scan hands out sub-slices of these runs and never
// touches the rest of the frame, so a frame in the block cache is
// shared by every reader and must never be written. mem is the
// footprint the block cache charges for it.
type decodedFrame struct {
	refs     []uint64
	start    []int32
	unsorted []bool
	pts      []AggPoint
	mem      int64
}

// run returns the points of series refs[i] and whether they are
// time-sorted.
func (df *decodedFrame) run(i int) ([]AggPoint, bool) {
	return df.pts[df.start[i]:df.start[i+1]], !df.unsorted[i]
}

// frameSel narrows a frame decode to the entries of the ascending refs
// in want whose times lie in [start, end). A nil *frameSel keeps every
// entry.
type frameSel struct {
	want       []uint32
	start, end float64
}

// decodeFrameStandalone decodes one data frame's payload of a format-ver
// segment without any surrounding file context, using the index's
// series table. dictBase is the table size when the frame was written:
// refs below it are plain back-references, the ref equal to the running
// table size introduces its four label strings inline (they are
// consumed and checked against the table), anything else is corruption.
// A value repeat is resolved against its series' previous entry in the
// frame, and one that opens its series' run is corruption. The kept
// entries are then stable counting-sorted into series-major order,
// keyed on the index's sorted, distinct refs for the frame; an entry
// whose series the index does not list, or a listed series with no
// entry, means the index disagrees with the frame.
//
// A non-nil sel keeps only the entries it selects, so a frame read once
// for one query is never laid out in full. Every entry is still parsed
// and checked (the time deltas chain through all of them), so a
// selective decode fails exactly when the full one does, and its runs
// are the full decode's runs cut to the window.
func decodeFrameStandalone(payload []byte, typ byte, ver uint64, fs frameStat, series []Labels, sel *frameSel) (*decodedFrame, error) {
	c := framelog.Cursor{B: payload}
	n, err := c.Count(1)
	if err != nil {
		return nil, fmt.Errorf("segstore: frame entry count: %w", err)
	}
	k := len(fs.refs)
	if k == 0 || k > n {
		return nil, fmt.Errorf("segstore: index lists %d series for a frame of %d entries", k, n)
	}
	// slotOf[ref-lo] is ±(1 + the ref's position in fs.refs), negated
	// once the frame has shown an entry of the ref, and 0 for a ref the
	// index does not list. Refs are bounded by the series table.
	lo, hi := fs.refs[0], fs.refs[k-1]
	if hi >= uint64(len(series)) {
		return nil, fmt.Errorf("segstore: index ref %d exceeds series table %d", hi, len(series))
	}
	slotOf := make([]int32, hi-lo+1)
	for i, r := range fs.refs {
		slotOf[r-lo] = int32(i + 1)
	}
	// keep marks the selected slots; nil keeps them all. Entries are
	// spread over a frame's series and its time extent about evenly, so
	// the kept share of both sizes the kept entries. With one slot kept
	// (only), the kept entries are its run as they stand.
	var keep []bool
	kept, only, size := k, 0, n
	if sel != nil {
		keep = make([]bool, k)
		kept = 0
		for w, i, ok := nextCommon(sel.want, fs.refs, 0, 0); ok; w, i, ok = nextCommon(sel.want, fs.refs, w+1, i+1) {
			keep[i] = true
			kept, only = kept+1, i
		}
		frac := 1.0
		if span := float64(fs.maxMs-fs.minMs) / 1000; span > 0 {
			frac = (min(sel.end, float64(fs.maxMs)/1000) - max(sel.start, float64(fs.minMs)/1000)) / span
		}
		size = min(n, int(float64(n*kept/k)*max(frac, 0))+kept)
	}
	ent := make([]AggPoint, 0, size)
	var slot []int32
	if kept > 1 {
		slot = make([]int32, 0, size)
	}
	start := make([]int32, k+1)
	last := make([]float64, k) // by slot: the value of its previous entry
	prevMs := fs.firstMs
	introduced := fs.dictBase
	for i := 0; i < n; i++ {
		ref, l, p, rep, err := readEntry(&c, typ, ver, introduced, &prevMs)
		if err != nil {
			return nil, fmt.Errorf("segstore: frame entry %w", err)
		}
		if l != nil {
			if ref >= uint64(len(series)) || *l != series[ref] {
				return nil, fmt.Errorf("segstore: frame inline series %d disagrees with index", ref)
			}
			introduced++
		}
		if ref < lo || ref > hi || slotOf[ref-lo] == 0 {
			return nil, fmt.Errorf("segstore: frame series %d missing from index", ref)
		}
		v := slotOf[ref-lo]
		opens := v > 0
		if opens {
			slotOf[ref-lo] = -v
		} else {
			v = -v
		}
		s := v - 1
		if rep {
			if opens {
				return nil, fmt.Errorf("segstore: frame entry %d repeats a value series %d has not had in the frame", i, ref)
			}
			p.Sum, p.Min, p.Max = last[s], last[s], last[s]
		}
		last[s] = p.Sum
		if keep != nil && (!keep[s] || p.Time < sel.start || p.Time >= sel.end) {
			continue
		}
		if kept > 1 {
			slot = append(slot, s)
		}
		ent = append(ent, p)
		start[s+1]++
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("segstore: %d trailing bytes in frame", c.Len())
	}
	df := &decodedFrame{refs: fs.refs, start: start, unsorted: make([]bool, k)}
	for i, r := range fs.refs {
		if slotOf[r-lo] > 0 {
			return nil, fmt.Errorf("segstore: index series %d absent from frame", r)
		}
		start[i+1] += start[i]
	}
	if kept == 1 {
		df.pts = ent
		df.unsorted[only] = !slices.IsSortedFunc(ent, byTime)
	} else {
		// Scatter in entry order, so each series keeps its append order.
		df.pts = make([]AggPoint, len(ent))
		next := make([]int32, k)
		copy(next, start)
		for i, p := range ent {
			s := slot[i]
			j := next[s]
			if j > start[s] && p.Time < df.pts[j-1].Time {
				df.unsorted[s] = true
			}
			df.pts[j] = p
			next[s]++
		}
	}
	df.mem = int64(cap(df.pts))*int64(unsafe.Sizeof(AggPoint{})) + int64(k+1)*4 + int64(k) + 96
	return df, nil
}

// gallop returns the least index i >= lo with s[i] >= x, or len(s),
// probing lo, lo+1, lo+3, lo+7, ... and then bisecting the last step:
// O(log d) for an answer d places on.
func gallop[T uint32 | uint64](s []T, lo int, x uint64) int {
	if lo >= len(s) || uint64(s[lo]) >= x {
		return lo
	}
	// Invariant: s[lo] < x, and hi == len(s) or s[hi] >= x.
	step := 1
	hi := lo + step
	for hi < len(s) && uint64(s[hi]) < x {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(s) {
		hi = len(s)
	}
	for lo+1 < hi {
		m := int(uint(lo+hi) >> 1)
		if uint64(s[m]) < x {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// nextCommon returns the first positions w' >= w, i' >= i of a ref both
// ascending lists hold, galloping in whichever list is behind, so a few
// wanted refs cost O(|want|·log|refs|) against a long frame list rather
// than a walk over it. ok is false when the lists share no further ref.
func nextCommon(want []uint32, refs []uint64, w, i int) (int, int, bool) {
	for w < len(want) && i < len(refs) {
		a, b := uint64(want[w]), refs[i]
		switch {
		case a < b:
			w = gallop(want, w+1, b)
		case a > b:
			i = gallop(refs, i+1, a)
		default:
			return w, i, true
		}
	}
	return w, i, false
}

// intersects reports whether the ascending ref lists share a ref.
func intersects(want []uint32, refs []uint64) bool {
	_, _, ok := nextCommon(want, refs, 0, 0)
	return ok
}
