// Sparse per-segment index: the seal-time frame map that lets a query
// pread only the frames it needs instead of decoding whole segments.
//
// The index is one 'I' frame appended as the last frame of a sealed
// segment. It carries the segment's complete series dictionary plus a
// per-data-frame table: byte offset and size, the running timestamp
// base entering the frame, the frame's time extent, the dictionary
// size at frame start, and the distinct series refs the frame touches.
// That is exactly the state a frame needs to be decoded in isolation —
// the data frames themselves are unchanged, so segments written by
// older binaries (no index frame) stay readable via the full-scan path.
package segstore

import (
	"encoding/binary"
	"fmt"
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
	series []Labels
	frames []frameStat

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
// series-major: refs holds the frame's distinct series refs ascending,
// and series refs[i]'s points are pts[start[i]:start[i+1]] in append
// order. A scan that wants a few series copies their runs and never
// touches the rest of the frame. mem is the footprint the block cache
// charges for it.
type decodedFrame struct {
	refs  []uint32
	start []int32
	pts   []AggPoint
	mem   int64
}

// run returns the points of series refs[i].
func (df *decodedFrame) run(i int) []AggPoint {
	return df.pts[df.start[i]:df.start[i+1]]
}

// decodeFrameStandalone decodes one data frame's payload without any
// surrounding file context, using the index's series table. dictBase is
// the table size when the frame was written: refs below it are plain
// back-references, the ref equal to the running table size introduces
// its four label strings inline (they are consumed and checked against
// the table), anything else is corruption. The entries are then stable
// counting-sorted into series-major order, keyed on the index's sorted,
// distinct refs for the frame; an entry whose series the index does not
// list, or a listed series with no entry, means the index disagrees
// with the frame.
func decodeFrameStandalone(payload []byte, typ byte, fs frameStat, series []Labels) (*decodedFrame, error) {
	c := framelog.Cursor{B: payload}
	n, err := c.Count(3)
	if err != nil {
		return nil, fmt.Errorf("segstore: frame entry count: %w", err)
	}
	k := len(fs.refs)
	if k == 0 || k > n {
		return nil, fmt.Errorf("segstore: index lists %d series for a frame of %d entries", k, n)
	}
	// slotOf[ref-lo] is 1 + the ref's position in fs.refs, 0 for a ref
	// the index does not list. Refs are bounded by the series table.
	lo, hi := fs.refs[0], fs.refs[k-1]
	if hi >= uint64(len(series)) {
		return nil, fmt.Errorf("segstore: index ref %d exceeds series table %d", hi, len(series))
	}
	slotOf := make([]int32, hi-lo+1)
	for i, r := range fs.refs {
		slotOf[r-lo] = int32(i + 1)
	}
	ent := make([]AggPoint, n)
	slot := make([]int32, n)
	start := make([]int32, k+1)
	prevMs := fs.firstMs
	introduced := fs.dictBase
	for i := 0; i < n; i++ {
		ref, l, p, err := readEntry(&c, typ, introduced, &prevMs)
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
		s := slotOf[ref-lo] - 1
		slot[i] = s
		ent[i] = p
		start[s+1]++
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("segstore: %d trailing bytes in frame", c.Len())
	}
	df := &decodedFrame{refs: make([]uint32, k), start: start, pts: make([]AggPoint, n)}
	for i, r := range fs.refs {
		df.refs[i] = uint32(r)
		if start[i+1] == 0 {
			return nil, fmt.Errorf("segstore: index series %d absent from frame", r)
		}
		start[i+1] += start[i]
	}
	// Scatter in entry order, so each series keeps its append order.
	next := make([]int32, k)
	copy(next, start)
	for i, p := range ent {
		s := slot[i]
		df.pts[next[s]] = p
		next[s]++
	}
	df.mem = int64(n)*int64(unsafe.Sizeof(AggPoint{})) + int64(2*k+1)*4 + 96
	return df, nil
}
