package segstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"gostats/internal/framelog"
)

// FuzzSegmentDecode throws arbitrary bytes at the segment reader. The
// decoder must never panic, never allocate absurdly, and — the recovery
// contract — whatever prefix it accepts must reparse to the identical
// result (truncating to the good length is what torn-tail recovery does,
// so the accepted prefix has to be a fixed point).
func FuzzSegmentDecode(f *testing.F) {
	// Seed with a real segment plus mutations of its interesting offsets.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.seg")
	w, err := newSegWriter(path, Meta{Tier: tierRaw, Shard: 3, Seq: 42, CoverLo: 42, CoverHi: 42}, false)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v := float64(i) * 1.5
		w.add(&Ref{Labels: Labels{Host: "fuzz", DevType: "cpu", Device: "cpu0", Event: "user"}},
			AggPoint{Time: 100 + float64(i), Count: 1, Sum: v, Min: v, Max: v})
		if i%2 == 1 {
			if err := w.flushFrame(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := w.close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	for _, off := range []int{0, 4, 8, len(seed) / 3, len(seed) - 2} {
		mut := append([]byte(nil), seed...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	// A bucket-tier seed too, so tier>0 decode paths get coverage.
	bpath := filepath.Join(dir, "bucket.seg")
	bw, err := newSegWriter(bpath, Meta{Tier: tierMid, Shard: 0, Seq: 9, CoverLo: 1, CoverHi: 8, BucketMs: 600000}, false)
	if err != nil {
		f.Fatal(err)
	}
	bw.add(&Ref{Labels: Labels{Host: "fuzz", DevType: "ib", Device: "mlx0", Event: "rx"}},
		AggPoint{Time: 600, Count: 20, Sum: 40, Min: 1, Max: 3})
	if err := bw.close(); err != nil {
		f.Fatal(err)
	}
	bseed, err := os.ReadFile(bpath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bseed)
	f.Add([]byte{})
	f.Add([]byte{0x00, 'G', 'S', 'S', 1})
	f.Add([]byte{0x00, 'G', 'S', 'S', 2})
	// Format 1 and format 2 goldens, and crafted format-2 frames.
	for name := range goldenSegments() {
		seg, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
	}
	for _, c := range craftedFrames() {
		seg, _ := craftSegment(c.tier, c.entries...)
		f.Add(seg)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, good, _ := parseSegment(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good prefix %d out of range [0,%d]", good, len(data))
		}
		if d == nil {
			return
		}
		d2, good2, derr2 := parseSegment(data[:good])
		if derr2 != nil && d2 != nil && d2.entries != d.entries {
			t.Fatalf("accepted prefix is not a fixed point: %d entries, then %d (err %v)",
				d.entries, d2.entries, derr2)
		}
		if d2 != nil {
			if good2 != good || d2.entries != d.entries || d2.count != d.count {
				t.Fatalf("reparse mismatch: good %d->%d entries %d->%d count %d->%d",
					good, good2, d.entries, d2.entries, d.count, d2.count)
			}
		}
	})
}

// FuzzIndexedFrame throws arbitrary bytes at the index parser and the
// standalone frame decoder. Every data frame the sequential decode
// (parseSegment) accepted must also decode standalone from the context
// parseSegment recorded for it, and the frames' series runs, joined in
// file order, must be exactly the points parseSegment read. Then the
// segment's own index, and the second input parsed as an index
// payload, are applied to the segment's bytes: every frame they list is
// decoded in isolation. Nothing may panic, and a listed frame whose
// index entry matches the sequential decode's must decode identically.
// Every frame is also decoded selectively, for the refs whose bits are
// set in wantBits and the window [lo/10, hi/10) seconds: it must fail
// exactly when the full decode fails, and yield exactly the full
// decode's runs of those refs cut to the window.
func FuzzIndexedFrame(f *testing.F) {
	dir := f.TempDir()
	for i, m := range []Meta{
		{Tier: tierRaw, Shard: 1, Seq: 7, CoverLo: 7, CoverHi: 7},
		{Tier: tierMid, Shard: 0, Seq: 9, CoverLo: 1, CoverHi: 8, BucketMs: 600000},
	} {
		path := filepath.Join(dir, fmt.Sprint(i))
		w, err := newSegWriter(path, m, false)
		if err != nil {
			f.Fatal(err)
		}
		refs := make([]Ref, 4)
		for j := range refs {
			refs[j].Labels = Labels{Host: "fuzz", DevType: "cpu", Device: fmt.Sprint(j % 2), Event: fmt.Sprint("e", j/2)}
		}
		for j := 0; j < 24; j++ {
			// Series enter mid-frame; times step back and repeat.
			v := float64(j)
			w.add(&refs[(j*j)%(1+j%4)], AggPoint{Time: float64(600 + (j*7)%11), Count: 1, Sum: v, Min: v, Max: v})
			if j%5 == 4 {
				if err := w.flushFrame(); err != nil {
					f.Fatal(err)
				}
			}
		}
		ix, err := w.writeIndex()
		if err != nil {
			f.Fatal(err)
		}
		if err := w.close(); err != nil {
			f.Fatal(err)
		}
		seg, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		payload := encodeIndexPayload(ix.series, ix.frames)
		all, one := []byte{0xff}, []byte{0x04}
		f.Add(seg, payload, all, int16(0), int16(32000))
		f.Add(seg, payload, one, int16(6030), int16(6075))
		f.Add(seg, payload, []byte{0x09}, int16(6000), int16(6100))
		f.Add(seg, []byte{}, all, int16(6045), int16(6046))
		f.Add(seg[:len(seg)-len(payload)/2], payload, one, int16(0), int16(32000))
		for _, off := range []int{len(payload) / 3, len(payload) - 1} {
			mut := append([]byte(nil), payload...)
			mut[off] ^= 0x01
			f.Add(seg, mut, all, int16(6020), int16(6080))
		}
	}

	// Format-2 goldens with their own index frames, and crafted frames
	// with an index that lists them.
	for name, g := range goldenSegments() {
		if g.version != segFormatVersion {
			continue
		}
		seg, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		d, _, err := parseSegment(seg)
		if err != nil {
			f.Fatal(err)
		}
		payload := encodeIndexPayload(d.index.series, d.index.frames)
		f.Add(seg, payload, []byte{0xff}, int16(0), int16(32000))
		f.Add(seg, payload, []byte{0x02}, int16(0), int16(32000))
	}
	for _, c := range craftedFrames() {
		seg, payload := craftSegment(c.tier, c.entries...)
		f.Add(seg, payload, []byte{0x01}, int16(0), int16(32000))
	}

	f.Fuzz(func(t *testing.T, data, indexPayload, wantBits []byte, lo, hi int16) {
		sel := &frameSel{start: float64(lo) / 10, end: float64(hi) / 10}
		for r := 0; r < 8*len(wantBits); r++ {
			if wantBits[r/8]&(1<<(r%8)) != 0 {
				sel.want = append(sel.want, uint32(r))
			}
		}
		other, _ := parseIndexPayload(indexPayload)
		d, _, _ := parseSegment(data)
		if d == nil {
			return
		}
		if other != nil {
			other.version = d.version
		}
		// The sequential oracle: each accepted frame decoded standalone
		// from its recorded context, runs joined per series.
		seqFrames := make([]*decodedFrame, len(d.frameStats))
		atFrame := make(map[int64]int, len(d.frameStats))
		joined := make([][]AggPoint, len(d.series))
		for i, fs := range d.frameStats {
			df, err := decodeFrame(t, data, d.version, fs, d.series, sel)
			if err != nil {
				t.Fatalf("frame at %d decoded sequentially but not standalone: %v", fs.off, err)
			}
			seqFrames[i], atFrame[fs.off] = df, i
			for j, r := range df.refs {
				run, _ := df.run(j)
				joined[r] = append(joined[r], run...)
			}
		}
		for r, pts := range joined {
			// A damaged frame is not applied at all, so the accepted
			// frames hold every decoded point.
			if !samePoints(pts, d.chunks[r]) {
				t.Fatalf("series %d: standalone runs disagree with the sequential decode", r)
			}
		}
		for _, ix := range []*segIndex{d.index, other} {
			if ix == nil {
				continue
			}
			for _, fs := range ix.frames {
				df, err := decodeFrame(t, data, d.version, fs, ix.series, sel)
				if err != nil {
					continue
				}
				i, ok := atFrame[fs.off]
				if !ok || !reflect.DeepEqual(fs, d.frameStats[i]) {
					continue
				}
				want := seqFrames[i]
				if !reflect.DeepEqual(df.refs, want.refs) || !reflect.DeepEqual(df.start, want.start) || !samePoints(df.pts, want.pts) {
					t.Fatalf("frame at %d: indexed decode disagrees with the sequential one", fs.off)
				}
			}
		}
	})
}

// decodeFrame locates the frame fs describes in a segment's bytes and
// decodes it standalone in full. It also decodes it for sel and fails t
// unless that decode errs exactly when the full one does and keeps, of
// each series, the full run's in-window points if sel wants the series
// and none otherwise, flagged sorted exactly when they are.
func decodeFrame(t *testing.T, data []byte, ver uint64, fs frameStat, series []Labels, sel *frameSel) (*decodedFrame, error) {
	t.Helper()
	if fs.off < 0 || fs.size < 0 || fs.off > int64(len(data)) || fs.size > int64(len(data))-fs.off {
		return nil, fmt.Errorf("frame [%d,+%d) outside the segment", fs.off, fs.size)
	}
	typ, payload, err := framelog.Decode(data[fs.off : fs.off+fs.size])
	if err != nil {
		return nil, err
	}
	if typ != framePoints && typ != frameBucket {
		return nil, fmt.Errorf("frame type %q", typ)
	}
	df, err := decodeFrameStandalone(payload, typ, ver, fs, series, nil)
	part, perr := decodeFrameStandalone(payload, typ, ver, fs, series, sel)
	if (err == nil) != (perr == nil) {
		t.Fatalf("frame at %d: full decode error %v, selective decode error %v", fs.off, err, perr)
	}
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(part.refs, df.refs) {
		t.Fatalf("frame at %d: selective refs %v, full %v", fs.off, part.refs, df.refs)
	}
	for i, r := range df.refs {
		full, _ := df.run(i)
		var want []AggPoint
		if slices.Contains(sel.want, uint32(r)) {
			for _, p := range full {
				if p.Time >= sel.start && p.Time < sel.end {
					want = append(want, p)
				}
			}
		}
		got, sorted := part.run(i)
		if !samePoints(got, want) || sorted != slices.IsSortedFunc(got, byTime) {
			t.Fatalf("frame at %d: series %d selective run %v (sorted %v), want %v", fs.off, r, got, sorted, want)
		}
	}
	return df, nil
}

// samePoints compares points bit for bit, so NaN values compare equal.
func samePoints(a, b []AggPoint) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		p, q := a[i], b[i]
		if bits(p.Time) != bits(q.Time) || p.Count != q.Count || bits(p.Sum) != bits(q.Sum) ||
			bits(p.Min) != bits(q.Min) || bits(p.Max) != bits(q.Max) {
			return false
		}
	}
	return true
}

// craftedFrame is a format-2 data frame built entry by entry, for seeds
// the writer never produces.
type craftedFrame struct {
	tier    int
	entries [][]byte
}

// craftedLabels is the one series of every crafted frame.
var craftedLabels = Labels{Host: "fuzz", DevType: "cpu", Device: "0", Event: "user"}

// v2Entry encodes one format-2 entry of series ref: the header, the
// label strings when introduce is set, the Δms when flags has entTime,
// and the value unless a value flag is set.
func v2Entry(ref, flags uint64, introduce bool, dt int64, v float64) []byte {
	b := binary.AppendUvarint(nil, ref<<entFlagBits|flags)
	if introduce {
		b = appendLabels(b, craftedLabels)
	}
	if flags&entTime != 0 {
		b = binary.AppendVarint(b, dt)
	}
	if flags&(entZero|entRepeat) == 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// craftedFrames are format-2 frames at the edges of the entry header: a
// first entry with no time bit, −0.0 stored as a value and a NaN payload
// repeated (valid), then a repeat opening its series' run in the frame,
// both value flags set, and a value flag on a bucket entry (damage).
func craftedFrames() []craftedFrame {
	nan := math.Float64frombits(0x7ff0_0000_0000_0bad)
	bucket := binary.AppendUvarint(nil, entTime|entZero)
	bucket = binary.AppendVarint(appendLabels(bucket, craftedLabels), 600000)
	return []craftedFrame{
		{tierRaw, [][]byte{v2Entry(0, 0, true, 0, math.Copysign(0, -1)), v2Entry(0, entTime, false, 1000, nan), v2Entry(0, entRepeat, false, 0, 0)}},
		{tierRaw, [][]byte{v2Entry(0, entTime|entRepeat, true, 1000, 0)}},
		{tierRaw, [][]byte{v2Entry(0, entTime, true, 1000, 2.5), v2Entry(0, entZero|entRepeat, false, 0, 0)}},
		{tierMid, [][]byte{bucket}},
	}
}

// craftSegment returns a format-2 segment of the tier whose one data
// frame holds entries verbatim, and an index payload listing the frame.
func craftSegment(tier int, entries ...[]byte) (seg, index []byte) {
	meta := []uint64{uint64(tier), 0, 1, 1, 1, 0}
	typ := byte(framePoints)
	if tier != tierRaw {
		meta[5], typ = 600000, frameBucket
	}
	var mp []byte
	for _, v := range meta {
		mp = binary.AppendUvarint(mp, v)
	}
	seg = framelog.Append(framelog.AppendPreamble(nil, segMagic, segFormatVersion), frameMeta, mp)
	off := len(seg)
	payload := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		payload = append(payload, e...)
	}
	seg = framelog.Append(seg, typ, payload)
	fs := frameStat{off: int64(off), size: int64(len(seg) - off), maxMs: 600000, refs: []uint64{0}}
	return seg, encodeIndexPayload([]Labels{craftedLabels}, []frameStat{fs})
}
