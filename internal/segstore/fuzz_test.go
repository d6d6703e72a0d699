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
	// The goldens of every format, crafted frames, and crafted format-3
	// segments whose index frame no reader can use.
	for name := range goldenSegments() {
		seg, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
	}
	for _, c := range craftedFrames() {
		seg, _ := craftSegment(c)
		f.Add(seg)
	}
	f.Add([]byte{0x00, 'G', 'S', 'S', 3})
	for _, bad := range badIndexes() {
		f.Add(framelog.Append(bad.seg, frameIndex, bad.index))
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
// segment's index (its own, or the one rebuilt from its frames), and,
// for a format-3 segment, the second input parsed as an index payload,
// are applied to the segment's bytes: every frame they list is decoded
// in isolation. Nothing may panic, and a listed frame whose
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
		payload := encodeIndexPayload(ix)
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

	// The goldens of every format (a format-3 one with its own index
	// payload, the others read through their rebuilt indexes), crafted
	// frames with, in format 3, an index that lists them, and crafted
	// format-3 index payloads no reader can use.
	for name, g := range goldenSegments() {
		seg, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		var payload []byte
		if g.version == segFormatVersion {
			d, _, err := parseSegment(seg)
			if err != nil {
				f.Fatal(err)
			}
			payload = encodeIndexPayload(d.index)
		}
		f.Add(seg, payload, []byte{0xff}, int16(0), int16(32000))
		f.Add(seg, payload, []byte{0x02}, int16(0), int16(32000))
	}
	for _, c := range craftedFrames() {
		seg, payload := craftSegment(c)
		f.Add(seg, payload, []byte{0x01}, int16(0), int16(32000))
	}
	for _, bad := range badIndexes() {
		f.Add(bad.seg, bad.index, []byte{0x03}, int16(0), int16(32000))
	}

	f.Fuzz(func(t *testing.T, data, indexPayload, wantBits []byte, lo, hi int16) {
		sel := &frameSel{start: float64(lo) / 10, end: float64(hi) / 10}
		for r := 0; r < 8*len(wantBits); r++ {
			if wantBits[r/8]&(1<<(r%8)) != 0 {
				sel.want = append(sel.want, uint32(r))
			}
		}
		d, _, _ := parseSegment(data)
		if d == nil {
			return
		}
		// Only a format-3 segment's index frame is ever parsed.
		var other *segIndex
		if d.version == segFormatVersion {
			other, _ = parseIndexPayload(indexPayload, int64(len(data)))
		}
		// The sequential oracle: each accepted frame decoded standalone
		// from its recorded context, runs joined per series.
		seqFrames := make([]*decodedFrame, len(d.frameStats))
		atFrame := make(map[int64]int, len(d.frameStats))
		joined := make([][]AggPoint, len(d.series))
		for i, fs := range d.frameStats {
			df, err := decodeFrame(t, data, fs, &d.segDict, sel)
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
				df, err := decodeFrame(t, data, fs, &ix.segDict, sel)
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
func decodeFrame(t *testing.T, data []byte, fs frameStat, dict *segDict, sel *frameSel) (*decodedFrame, error) {
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
	df, err := decodeFrameStandalone(payload, typ, fs, dict, nil)
	part, perr := decodeFrameStandalone(payload, typ, fs, dict, sel)
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

// craftedFrame is a data frame of a format-ver segment built entry by
// entry, for seeds the writer never produces; its index lists series.
type craftedFrame struct {
	ver     uint64
	tier    int
	series  []Labels
	entries [][]byte
}

// craftedLabels is the first series of every crafted frame, and
// craftedSystem shares all but its event.
var (
	craftedLabels = Labels{Host: "fuzz", DevType: "cpu", Device: "0", Event: "user"}
	craftedSystem = Labels{Host: "fuzz", DevType: "cpu", Device: "0", Event: "system"}
)

// v2Labels encodes a format-2 introduction: the four label strings.
func v2Labels(l Labels) []byte {
	var b []byte
	for f := 0; f < numFields; f++ {
		b = framelog.AppendString(b, l.field(f))
	}
	return b
}

// craftedEntry encodes one format-2 or format-3 entry of series ref:
// the header, intro (the encoded labels of an introduction, else nil),
// the Δms when flags has entTime, and the value unless a value flag is
// set.
func craftedEntry(ref, flags uint64, intro []byte, dt int64, v float64) []byte {
	b := binary.AppendUvarint(nil, ref<<entFlagBits|flags)
	b = append(b, intro...)
	if flags&entTime != 0 {
		b = binary.AppendVarint(b, dt)
	}
	if flags&(entZero|entRepeat) == 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// labelCodes encodes format-3 label codes: each a table position + 1,
// or 0 for an inline string, the next of strs.
func labelCodes(cs [numFields]uint64, strs ...string) []byte {
	var b []byte
	for _, c := range cs {
		b = binary.AppendUvarint(b, c)
		if c == 0 {
			b = framelog.AppendString(b, strs[0])
			strs = strs[1:]
		}
	}
	return b
}

// craftedFrames are frames at the edges of the entry header and the
// label codes. Format 2: a first entry with no time bit, −0.0 stored as
// a value and a NaN payload repeated (valid), then a repeat opening its
// series' run in the frame, both value flags set, and a value flag on a
// bucket entry (damage). Format 3: a second series sharing three of the
// first one's strings (valid), then a label index past the end of its
// table, a frame ending inside an inline string, and an introduction
// whose codes name other strings than the index's labels (damage to a
// standalone decode).
func craftedFrames() []craftedFrame {
	nan := math.Float64frombits(0x7ff0_0000_0000_0bad)
	v2 := v2Labels(craftedLabels)
	bucket := binary.AppendUvarint(nil, entTime|entZero)
	bucket = binary.AppendVarint(append(bucket, v2...), 600000)
	first := labelCodes([numFields]uint64{}, "fuzz", "cpu", "0", "user")
	one := []Labels{craftedLabels}
	two := []Labels{craftedLabels, craftedSystem}
	return []craftedFrame{
		{segFormatV2, tierRaw, one, [][]byte{craftedEntry(0, 0, v2, 0, math.Copysign(0, -1)), craftedEntry(0, entTime, nil, 1000, nan), craftedEntry(0, entRepeat, nil, 0, 0)}},
		{segFormatV2, tierRaw, one, [][]byte{craftedEntry(0, entTime|entRepeat, v2, 1000, 0)}},
		{segFormatV2, tierRaw, one, [][]byte{craftedEntry(0, entTime, v2, 1000, 2.5), craftedEntry(0, entZero|entRepeat, nil, 0, 0)}},
		{segFormatV2, tierMid, one, [][]byte{bucket}},
		{segFormatVersion, tierRaw, two, [][]byte{craftedEntry(0, entTime, first, 1000, 2.5), craftedEntry(1, 0, labelCodes([numFields]uint64{1, 1, 1, 0}, "system"), 0, 1), craftedEntry(1, entRepeat, nil, 0, 0)}},
		{segFormatVersion, tierRaw, two, [][]byte{craftedEntry(0, entTime, first, 1000, 2.5), craftedEntry(1, 0, labelCodes([numFields]uint64{1, 1, 1, 3}), 0, 1)}},
		{segFormatVersion, tierRaw, one, [][]byte{append([]byte{entTime}, first[:len(first)-2]...)}},
		{segFormatVersion, tierRaw, two, [][]byte{craftedEntry(0, entTime, first, 1000, 2.5), craftedEntry(1, 0, labelCodes([numFields]uint64{1, 1, 1, 1}), 0, 1)}},
	}
}

// craftSegment returns a segment of c's format and tier whose one data
// frame holds c's entries verbatim and, for format 3, an index payload
// listing the frame with every series of c (nil for older formats,
// whose index frames are never read).
func craftSegment(c craftedFrame) (seg, index []byte) {
	meta := []uint64{uint64(c.tier), 0, 1, 1, 1, 0}
	typ := byte(framePoints)
	if c.tier != tierRaw {
		meta[5], typ = 600000, frameBucket
	}
	var mp []byte
	for _, v := range meta {
		mp = binary.AppendUvarint(mp, v)
	}
	seg = framelog.Append(framelog.AppendPreamble(nil, segMagic, c.ver), frameMeta, mp)
	off := len(seg)
	payload := binary.AppendUvarint(nil, uint64(len(c.entries)))
	for _, e := range c.entries {
		payload = append(payload, e...)
	}
	seg = framelog.Append(seg, typ, payload)
	fs := frameStat{off: int64(off), size: int64(len(seg) - off), maxMs: 600000}
	for i := range c.series {
		fs.refs = append(fs.refs, uint64(i))
	}
	if c.ver != segFormatVersion {
		return seg, nil
	}
	return seg, encodeIndexPayload(&segIndex{segDict: craftedDict(c), frames: []frameStat{fs}})
}

// craftedDict is the dictionary of c's segment, with the string tables
// its series fill in order.
func craftedDict(c craftedFrame) segDict {
	lc := newLabelCoder()
	for _, l := range c.series {
		lc.appendLabels(nil, l)
	}
	return segDict{version: c.ver, series: c.series, tables: lc.tables}
}

// badIndex is a valid format-3 segment without its index frame, and an
// index payload for it that no reader may use.
type badIndex struct{ seg, index []byte }

// badIndexes are format-3 index payloads that must fail to parse: a ref
// run past the end of the series table, a series label index past the
// end of its table, a frame past the end of the data, and a truncated
// table string.
func badIndexes() []badIndex {
	c := craftedFrames()[4]
	seg, good := craftSegment(c)
	dict := craftedDict(c)
	overrun := frameStat{off: int64(len(seg) - 10), size: 10, maxMs: 600000, refs: []uint64{0, 1, 2}}
	past := frameStat{off: int64(len(seg) - 10), size: 11, maxMs: 600000, refs: []uint64{0}}
	// One string per table, and one series whose event index is 1.
	var label []byte
	for f := 0; f < numFields; f++ {
		label = framelog.AppendString(binary.AppendUvarint(label, 1), "x")
	}
	label = append(label, 1, 0, 0, 0, 1, 0)
	return []badIndex{
		{seg, encodeIndexPayload(&segIndex{segDict: dict, frames: []frameStat{overrun}})},
		{seg, label},
		{seg, encodeIndexPayload(&segIndex{segDict: dict, frames: []frameStat{past}})},
		{seg, good[:5]},
	}
}

// TestFormat3DamageIsReported: the damaged crafted format-3 frames fail
// the standalone decode (and, but for a mismatch only the index can
// show, the sequential parse), and the crafted bad index payloads fail
// to parse. A store keeps a segment with such an index frame and serves
// it through the index rebuilt from its data frames; one whose index
// decodes but disagrees with its frame degrades to a full scan when it
// is read.
func TestFormat3DamageIsReported(t *testing.T) {
	// serve opens a store of the one sealed segment seg and checks a
	// scan of it returns the full parse's series, with fullscans
	// degrades. Crafted frame 7 introduces its second series with the
	// first one's labels, so its two refs join as one series.
	serve := func(name string, seg []byte, series int, fullscans uint64) {
		t.Helper()
		s := oneSegmentStore(t, sealedName(tierRaw, 1), seg)
		defer s.Close()
		chunks, err := s.Scan(Filter{}, 0, math.Inf(1))
		hits, fs := s.metrics().idxHits.Value(), s.metrics().idxFullscans.Value()
		if err != nil || len(chunks) != series || !sameChunks(chunks, parsedScan(t, s, Filter{}, 0, math.Inf(1))) ||
			s.Stats().Quarantined != 0 || hits != 1-fullscans || fs != fullscans {
			t.Fatalf("%s: %d series, err %v, stats %+v, index hits %d, fullscans %d (want %d)", name, len(chunks), err, s.Stats(), hits, fs, fullscans)
		}
	}
	for i, c := range craftedFrames() {
		if c.ver != segFormatVersion {
			continue
		}
		seg, payload := craftSegment(c)
		d, _, perr := parseSegment(seg)
		ix, err := parseIndexPayload(payload, int64(len(seg)))
		if err != nil {
			t.Fatalf("crafted frame %d: index: %v", i, err)
		}
		_, derr := decodeFrame(t, seg, ix.frames[0], &ix.segDict, &frameSel{end: 1e9})
		valid, mismatch := i == 4, i == 7
		if (derr == nil) != valid || (perr == nil) != (valid || mismatch) || d == nil {
			t.Fatalf("crafted frame %d: sequential err %v, standalone err %v", i, perr, derr)
		}
		if mismatch {
			serve(fmt.Sprintf("crafted frame %d", i), framelog.Append(seg, frameIndex, payload), 1, 1)
		}
	}
	for i, bad := range badIndexes() {
		if _, err := parseIndexPayload(bad.index, int64(len(bad.seg))); err == nil {
			t.Fatalf("bad index %d parsed", i)
		}
		serve(fmt.Sprintf("bad index %d", i), framelog.Append(bad.seg, frameIndex, bad.index), 2, 0)
	}
}
