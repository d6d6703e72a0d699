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
// dictionary plus the frame table.
type segIndex struct {
	series []Labels
	frames []frameStat
}

// overlaps reports whether the frame may hold an entry in the half-open
// window [start, end) seconds. The comparison uses the same ms→float
// conversion the decoder uses for point times, so pruning is exact.
func (fs *frameStat) overlaps(start, end float64) bool {
	return float64(fs.minMs)/1000 < end && float64(fs.maxMs)/1000 >= start
}

// matchRefs returns the index refs whose labels match f (nil when none).
func (ix *segIndex) matchRefs(f Filter) []uint64 {
	var out []uint64
	for i, l := range ix.series {
		if f.match(l) {
			out = append(out, uint64(i))
		}
	}
	return out
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

// decodedFrame is one data frame decoded in isolation: parallel
// ref/point arrays plus an approximate memory footprint for the block
// cache's byte accounting.
type decodedFrame struct {
	refs []uint32
	pts  []AggPoint
	mem  int64
}

// decodeFrameStandalone decodes one data frame's payload without any
// surrounding file context, using the index's series table. dictBase is
// the table size when the frame was written: refs below it are plain
// back-references, the ref equal to the running table size introduces
// its four label strings inline (they are consumed and checked against
// the table), anything else is corruption.
func decodeFrameStandalone(payload []byte, typ byte, fs frameStat, series []Labels) (*decodedFrame, error) {
	c := framelog.Cursor{B: payload}
	n, err := c.Count(3)
	if err != nil {
		return nil, fmt.Errorf("segstore: frame entry count: %w", err)
	}
	df := &decodedFrame{
		refs: make([]uint32, 0, n),
		pts:  make([]AggPoint, 0, n),
	}
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
		df.refs = append(df.refs, uint32(ref))
		df.pts = append(df.pts, p)
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("segstore: %d trailing bytes in frame", c.Len())
	}
	df.mem = int64(len(df.pts))*44 + 64
	return df, nil
}
