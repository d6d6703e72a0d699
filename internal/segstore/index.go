// Sparse per-segment index: the seal-time frame map that lets a query
// pread only the frames it needs instead of decoding whole segments.
//
// The index is one 'I' frame appended as the last frame of a sealed
// segment. It carries the segment's complete series dictionary plus a
// per-data-frame table: byte offset and size, the running timestamp
// base entering the frame, the frame's time extent, the dictionary
// size at frame start, and the distinct series refs the frame touches.
// That is exactly the state a frame needs to be decoded in isolation —
// a value repeat never reaches outside its frame — and the data frames
// do not depend on it, so segments written by older binaries (no index
// frame) stay readable via the full-scan path.
//
// A format-3 index payload is
//
//	4 × (uvarint n, n × string)      the host, device type, device and
//	                                 event tables, in introduction order
//	uvarint series, series × 4 × uvarint   each series' table positions
//	uvarint frames, then per frame:
//	  uvarint off − previous frame's end, uvarint size
//	  varint  firstMs − previous frame's maxMs, varint minMs − firstMs,
//	  uvarint maxMs − minMs
//	  uvarint dictBase − previous frame's dictBase
//	  uvarint runs, runs × (uvarint gap, uvarint length − 1)
//
// where a frame's ascending refs are runs of consecutive refs, each run
// starting gap refs past the previous run's end (past 0 for the first).
// Formats 1 and 2 write the dictionary as four strings per series, then
// per frame off, size, firstMs, minMs and maxMs absolute, dictBase, and
// the ref count and ref deltas.
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
// dictionary (with the segment's format and string tables) plus the
// frame table, and a lazily built postings list.
type segIndex struct {
	segDict
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

// encodeIndexPayload renders ix as an index frame payload in the
// format of ix's segment.
func encodeIndexPayload(ix *segIndex) []byte {
	if ix.version != segFormatVersion {
		return encodeIndexV2(ix.series, ix.frames)
	}
	b := make([]byte, 0, 64+len(ix.series)*5+len(ix.frames)*20)
	var pos [numFields]map[string]uint64
	for f, tab := range ix.tables {
		pos[f] = make(map[string]uint64, len(tab))
		b = binary.AppendUvarint(b, uint64(len(tab)))
		for i, s := range tab {
			pos[f][s] = uint64(i)
			b = framelog.AppendString(b, s)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(ix.series)))
	for i := range ix.series {
		for f := 0; f < numFields; f++ {
			b = binary.AppendUvarint(b, pos[f][ix.series[i].field(f)])
		}
	}
	b = binary.AppendUvarint(b, uint64(len(ix.frames)))
	var end, maxMs int64
	var base uint64
	for i := range ix.frames {
		fs := &ix.frames[i]
		b = binary.AppendUvarint(b, uint64(fs.off-end))
		b = binary.AppendUvarint(b, uint64(fs.size))
		b = binary.AppendVarint(b, fs.firstMs-maxMs)
		b = binary.AppendVarint(b, fs.minMs-fs.firstMs)
		b = binary.AppendUvarint(b, uint64(fs.maxMs-fs.minMs))
		b = binary.AppendUvarint(b, fs.dictBase-base)
		b = appendRuns(b, fs.refs)
		end, maxMs, base = fs.off+fs.size, fs.maxMs, fs.dictBase
	}
	return b
}

// appendRuns appends ascending, distinct refs as their count of runs of
// consecutive refs, then each run's gap from the previous run's end and
// its length − 1.
func appendRuns(b []byte, refs []uint64) []byte {
	runs := 0
	for i, r := range refs {
		if i == 0 || r != refs[i-1]+1 {
			runs++
		}
	}
	b = binary.AppendUvarint(b, uint64(runs))
	var end uint64
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && refs[j] == refs[j-1]+1 {
			j++
		}
		b = binary.AppendUvarint(b, refs[i]-end)
		b = binary.AppendUvarint(b, uint64(j-i-1))
		end = refs[j-1] + 1
		i = j
	}
	return b
}

// parseIndexPayload decodes an index frame payload of a format-ver
// segment whose data frames all end by byte limit (the index frame's
// offset). Errors mean the payload is not a usable index (the caller
// degrades to a full scan); they never invalidate the segment's data
// frames.
func parseIndexPayload(payload []byte, ver uint64, limit int64) (*segIndex, error) {
	if ver != segFormatVersion {
		ix, err := parseIndexV2(payload)
		if ix != nil {
			ix.version = ver
		}
		return ix, err
	}
	c := framelog.Cursor{B: payload}
	ix := &segIndex{segDict: segDict{version: ver}}
	for f := range ix.tables {
		n, err := c.Count(1)
		if err != nil {
			return nil, fmt.Errorf("segstore: index table %d size: %w", f, err)
		}
		tab := make([]string, n)
		for i := range tab {
			if tab[i], err = c.Str(); err != nil {
				return nil, fmt.Errorf("segstore: index table %d: %w", f, err)
			}
		}
		ix.tables[f] = tab
	}
	nSeries, err := c.Count(numFields)
	if err != nil {
		return nil, fmt.Errorf("segstore: index series count: %w", err)
	}
	if nSeries > maxSeriesTable {
		return nil, fmt.Errorf("segstore: index series table overflow")
	}
	// Every label is a string of the tables, so each distinct string is
	// held once however many series share it.
	ix.series = make([]Labels, nSeries)
	for i := range ix.series {
		for f, tab := range ix.tables {
			k, err := c.Uvarint()
			if err != nil {
				return nil, fmt.Errorf("segstore: index series %d: %w", i, err)
			}
			if k >= uint64(len(tab)) {
				return nil, fmt.Errorf("segstore: index series %d label %d index %d past the end of its table of %d", i, f, k, len(tab))
			}
			ix.series[i].setField(f, tab[k])
		}
	}
	nFrames, err := c.Count(7)
	if err != nil {
		return nil, fmt.Errorf("segstore: index frame count: %w", err)
	}
	ix.frames = make([]frameStat, nFrames)
	// runs holds every frame's (first ref, length) pairs, frame i's from
	// runs[2*at[i]]; they are expanded into one array of refs at the end.
	var runs []uint64
	at := make([]int, nFrames+1)
	var end, maxMs int64
	var base uint64
	total := 0
	for i := range ix.frames {
		fs := &ix.frames[i]
		var v [6]uint64
		for j := range v {
			if v[j], err = c.Uvarint(); err != nil {
				return nil, fmt.Errorf("segstore: index frame %d: %w", i, err)
			}
		}
		// A frame lies past the previous one and before the index, and a
		// frame of k refs holds at least k entries, each at least a byte:
		// the refs of every frame together never outnumber limit.
		if v[0] > uint64(limit-end) || v[1] > uint64(limit-end)-v[0] {
			return nil, fmt.Errorf("segstore: index frame %d extends past the data", i)
		}
		fs.off = end + int64(v[0])
		fs.size = int64(v[1])
		fs.firstMs = maxMs + unzigzag(v[2])
		fs.minMs = fs.firstMs + unzigzag(v[3])
		fs.maxMs = fs.minMs + int64(v[4])
		if v[5] > uint64(nSeries)-base {
			return nil, fmt.Errorf("segstore: index frame %d dict base exceeds series table %d", i, nSeries)
		}
		fs.dictBase = base + v[5]
		nRuns, err := c.Count(2)
		if err != nil {
			return nil, fmt.Errorf("segstore: index frame %d refs: %w", i, err)
		}
		var next uint64 // the end of the previous run
		refs := 0
		for j := 0; j < nRuns; j++ {
			gap, err := c.Uvarint()
			var n uint64
			if err == nil {
				n, err = c.Uvarint()
			}
			if err != nil {
				return nil, fmt.Errorf("segstore: index frame %d refs: %w", i, err)
			}
			if gap > uint64(nSeries)-next || n >= uint64(nSeries)-next-gap {
				return nil, fmt.Errorf("segstore: index frame %d ref run overruns series table %d", i, nSeries)
			}
			if refs += int(n + 1); int64(refs) > fs.size {
				return nil, fmt.Errorf("segstore: index frame %d lists more series than its %d bytes hold", i, fs.size)
			}
			runs = append(runs, next+gap, n+1)
			next += gap + n + 1
		}
		total += refs
		at[i+1] = len(runs) / 2
		end, maxMs, base = fs.off+fs.size, fs.maxMs, fs.dictBase
	}
	all := make([]uint64, 0, total)
	for i := range ix.frames {
		lo := len(all)
		for r := at[i]; r < at[i+1]; r++ {
			for ref, n := runs[2*r], runs[2*r+1]; n > 0; ref, n = ref+1, n-1 {
				all = append(all, ref)
			}
		}
		ix.frames[i].refs = all[lo:len(all):len(all)]
	}
	return ix, nil
}

// unzigzag decodes a zigzag varint read as a uvarint.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeIndexV2 renders a format-1 or format-2 index payload.
func encodeIndexV2(series []Labels, frames []frameStat) []byte {
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

// parseIndexV2 decodes a format-1 or format-2 index payload.
func parseIndexV2(payload []byte) (*segIndex, error) {
	c := framelog.Cursor{B: payload}
	nSeries, err := c.Count(4)
	if err != nil {
		return nil, fmt.Errorf("segstore: index series count: %w", err)
	}
	if nSeries > maxSeriesTable {
		return nil, fmt.Errorf("segstore: index series table overflow")
	}
	ix := &segIndex{segDict: segDict{series: make([]Labels, nSeries)}}
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

// decodeFrameStandalone decodes one data frame's payload without any
// surrounding file context, using the series and string tables of dict,
// which also gives the segment's format. dictBase is the series table
// size when the frame was written: refs below it are plain
// back-references, the ref equal to the running table size introduces
// its labels inline (they are consumed and checked against the series
// table), anything else is corruption.
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
func decodeFrameStandalone(payload []byte, typ byte, fs frameStat, dict *segDict, sel *frameSel) (*decodedFrame, error) {
	e := entryDecoder{c: framelog.Cursor{B: payload}, typ: typ, dict: dict, size: fs.dictBase, prevMs: fs.firstMs}
	n, err := e.c.Count(1)
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
	if hi >= uint64(len(dict.series)) {
		return nil, fmt.Errorf("segstore: index ref %d exceeds series table %d", hi, len(dict.series))
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
	for i := 0; i < n; i++ {
		ref, _, p, rep, err := e.next()
		if err != nil {
			return nil, fmt.Errorf("segstore: frame entry %w", err)
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
	if e.c.Len() != 0 {
		return nil, fmt.Errorf("segstore: %d trailing bytes in frame", e.c.Len())
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
