package segstore

import (
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

	f.Fuzz(func(t *testing.T, data, indexPayload, wantBits []byte, lo, hi int16) {
		sel := &frameSel{start: float64(lo) / 10, end: float64(hi) / 10}
		for r := 0; r < 8*len(wantBits); r++ {
			if wantBits[r/8]&(1<<(r%8)) != 0 {
				sel.want = append(sel.want, uint32(r))
			}
		}
		other, _ := parseIndexPayload(indexPayload)
		d, _, derr := parseSegment(data)
		if d == nil {
			return
		}
		// The sequential oracle: each accepted frame decoded standalone
		// from its recorded context, runs joined per series.
		seqFrames := make([]*decodedFrame, len(d.frameStats))
		atFrame := make(map[int64]int, len(d.frameStats))
		joined := make([][]AggPoint, len(d.series))
		for i, fs := range d.frameStats {
			df, err := decodeFrame(t, data, fs, d.series, sel)
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
			// Damage inside a frame leaves that frame's leading entries in
			// d.chunks but no frame stats, so the joined runs are a prefix.
			if len(pts) > len(d.chunks[r]) || !samePoints(pts, d.chunks[r][:len(pts)]) ||
				(derr == nil && len(pts) != len(d.chunks[r])) {
				t.Fatalf("series %d: standalone runs disagree with the sequential decode", r)
			}
		}
		for _, ix := range []*segIndex{d.index, other} {
			if ix == nil {
				continue
			}
			for _, fs := range ix.frames {
				df, err := decodeFrame(t, data, fs, ix.series, sel)
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
func decodeFrame(t *testing.T, data []byte, fs frameStat, series []Labels, sel *frameSel) (*decodedFrame, error) {
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
	df, err := decodeFrameStandalone(payload, typ, fs, series, nil)
	part, perr := decodeFrameStandalone(payload, typ, fs, series, sel)
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
