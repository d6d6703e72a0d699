package segstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gostats/internal/framelog"
	"gostats/internal/telemetry"
)

// segFrame is one frame located in a segment file: its offset, total
// size on disk, and type byte.
type segFrame struct {
	off, size int
	typ       byte
}

// walkSegFrames locates every frame in a segment file's bytes.
func walkSegFrames(t *testing.T, data []byte) []segFrame {
	t.Helper()
	pos := len(segMagic)
	_, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		t.Fatal("bad format version varint")
	}
	pos += n
	var out []segFrame
	for pos < len(data) {
		ln, un := binary.Uvarint(data[pos+1:])
		if un <= 0 {
			t.Fatalf("bad frame length varint at offset %d", pos)
		}
		size := 1 + un + int(ln) + 4
		out = append(out, segFrame{off: pos, size: size, typ: data[pos]})
		pos += size
	}
	return out
}

// sealedSegFiles lists every sealed segment file under a store dir.
func sealedSegFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*", "t*-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no sealed segments under %s (err=%v)", dir, err)
	}
	return matches
}

// indexedFixture fills a store with a deterministic multi-host data set
// and seals every shard, so all data lives in sealed, indexed segments.
// Returns the reference scan result taken through the indexed path.
func indexedFixture(t *testing.T, dir string) []SeriesChunk {
	t.Helper()
	opts := testOpts()
	opts.SegmentBytes = 4 << 10 // several segments per shard
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3000; i++ {
		s.Append(Point{
			Labels: Labels{
				Host:    fmt.Sprintf("node%02d", i%5),
				DevType: "cpu",
				Device:  fmt.Sprintf("cpu%d", i%2),
				Event:   "user",
			},
			Time:  float64(1000 + i),
			Value: float64(i % 97),
		})
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	ref, err := s.Scan(Filter{}, 0, math.Inf(1))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if got := s.metrics().idxHits.Value(); got == 0 {
		t.Fatal("reference scan never took the indexed path")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return ref
}

// metrics exposes the store's counters to tests in this package.
func (s *Store) metrics() *storeMetrics { return &s.met }

func rescanAndCompare(t *testing.T, dir string, want []SeriesChunk) *Store {
	t.Helper()
	s, err := Open(dir, Options{Shards: 4, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if q := s.Stats().Quarantined; q != 0 {
		t.Fatalf("reopen quarantined %d segments; damage confined to the index must not cost data", q)
	}
	got, err := s.Scan(Filter{}, 0, math.Inf(1))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("scan differs from indexed reference: %d chunks vs %d", len(want), len(got))
	}
	return s
}

// TestUnindexedSegmentsReadable strips the trailing index frame from
// every sealed segment — exactly the layout older binaries wrote — and
// checks the store reads them back byte-for-byte identically via full
// scans, with nothing quarantined.
func TestUnindexedSegmentsReadable(t *testing.T) {
	dir := t.TempDir()
	want := indexedFixture(t, dir)
	for _, path := range sealedSegFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frames := walkSegFrames(t, data)
		last := frames[len(frames)-1]
		if last.typ != frameIndex {
			t.Fatalf("%s: final frame is %q, want index", filepath.Base(path), last.typ)
		}
		if err := os.Truncate(path, int64(last.off)); err != nil {
			t.Fatal(err)
		}
	}
	s := rescanAndCompare(t, dir, want)
	defer s.Close()
	if s.metrics().idxHits.Value() != 0 {
		t.Fatal("indexed path hit on segments with no index frame")
	}
	if s.metrics().idxFullscans.Value() == 0 {
		t.Fatal("full-scan counter never advanced")
	}
}

// TestCorruptedIndexDegradesToFullScan flips a byte inside every sealed
// segment's index frame: the data prefix is intact, so reopening must
// keep every segment (quarantine-free) and serve identical results
// through full scans.
func TestCorruptedIndexDegradesToFullScan(t *testing.T) {
	dir := t.TempDir()
	want := indexedFixture(t, dir)
	for _, path := range sealedSegFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frames := walkSegFrames(t, data)
		last := frames[len(frames)-1]
		if last.typ != frameIndex {
			t.Fatalf("%s: final frame is %q, want index", filepath.Base(path), last.typ)
		}
		data[last.off+last.size/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := rescanAndCompare(t, dir, want)
	defer s.Close()
	if s.metrics().idxFullscans.Value() == 0 {
		t.Fatal("full-scan counter never advanced")
	}
}

// diffFixture fills a store from seed and seals every shard: eight
// hosts (so some share a shard), each with cpu, net and mem series of several devices and
// events, at jittered 30 s steps over 12 hours. One series gets
// out-of-order and duplicate-time points inside a frame, and after the
// first seal some earlier times are written again, so equal times also
// meet across segments and tiers. With compact set, the older hours are
// downsampled into both bucket tiers.
func diffFixture(t *testing.T, dir string, seed int64, compact bool) {
	t.Helper()
	opts := testOpts()
	opts.SegmentBytes = 16 << 10
	opts.FlushBytes = 2 << 10
	if compact {
		opts.CompactRawAfter = 2 * 3600
		opts.CompactMidAfter = 6 * 3600
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	series := []Labels{
		{DevType: "cpu", Device: "cpu0", Event: "user"},
		{DevType: "cpu", Device: "cpu0", Event: "system"},
		{DevType: "cpu", Device: "cpu1", Event: "user"},
		{DevType: "cpu", Device: "cpu1", Event: "system"},
		{DevType: "net", Device: "eth0", Event: "rx"},
		{DevType: "net", Device: "eth0", Event: "tx"},
		{DevType: "mem", Device: "numa0", Event: "used"},
	}
	rng := rand.New(rand.NewSource(seed))
	put := func(host string, l Labels, tm float64) {
		l.Host = host
		s.Append(Point{Labels: l, Time: tm, Value: float64(rng.Intn(1000)) / 8})
	}
	compactAll := func() {
		if !compact {
			return
		}
		if err := s.Seal(); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	}
	const step, span = 30.0, 12 * 3600
	for tm := 0.0; tm < span; tm += step {
		if tm == span/2 {
			// Hours 0-4 reach the mid tier now and the hour tier at the
			// end; hours 4-10 stop at the mid tier.
			compactAll()
		}
		for h := 0; h < 8; h++ {
			host := fmt.Sprintf("node%02d", h)
			jit := float64(rng.Intn(1000)) / 1000
			for _, l := range series {
				// Some series skip steps, so frames differ in their refs.
				if l.DevType == "net" && rng.Intn(4) == 0 {
					continue
				}
				put(host, l, tm+jit)
			}
		}
		if int(tm)%3600 == 1800 {
			// Six consecutive node01 cpu0/user points, out of order and
			// with duplicate times, so frames hold them unsorted.
			l := series[0]
			for _, dt := range []float64{7, 3, 3, 5, 1, 7} {
				put("node01", l, tm+dt)
			}
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	for tm := 4 * 3600.0; tm < 5*3600; tm += 10 * step {
		put("node02", series[4], tm)
		put("node02", series[0], tm)
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if compact {
		compactAll()
		st := s.Stats()
		if st.TierSegments[tierMid] == 0 || st.TierSegments[tierHour] == 0 {
			t.Fatalf("compaction left tiers %v", st.TierSegments)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// stripIndexes copies every sealed segment under dir without its
// trailing index frame — the layout older binaries wrote — into a new
// directory and returns it.
func stripIndexes(t *testing.T, dir string) string {
	t.Helper()
	stripped := t.TempDir()
	for _, path := range sealedSegFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frames := walkSegFrames(t, data)
		last := frames[len(frames)-1]
		if last.typ != frameIndex {
			t.Fatalf("%s: final frame is %q, want index", filepath.Base(path), last.typ)
		}
		rel, _ := filepath.Rel(dir, path)
		dst := filepath.Join(stripped, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data[:last.off], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return stripped
}

// frameWindows returns query windows that start and end exactly on
// the time extents of frames picked at random from s's indexes.
func frameWindows(s *Store, rng *rand.Rand) [][2]float64 {
	var frames []frameStat
	for _, sh := range s.shards {
		for _, tier := range sh.sealed {
			for _, info := range tier {
				frames = append(frames, info.index.frames...)
			}
		}
	}
	return windowsOn(frames, rng)
}

// windowsOn returns query windows that start and end exactly on the
// time extents of frames picked at random from frames.
func windowsOn(frames []frameStat, rng *rand.Rand) [][2]float64 {
	var out [][2]float64
	for i := 0; i < 6 && len(frames) > 0; i++ {
		fs := frames[rng.Intn(len(frames))]
		lo, hi := float64(fs.minMs)/1000, float64(fs.maxMs)/1000
		out = append(out,
			[2]float64{lo, hi},         // excludes the frame's last instant
			[2]float64{lo, hi + 0.001}, // the whole frame, exactly
			[2]float64{hi, hi + 600},   // starts on the frame's last instant
			[2]float64{lo - 600, lo},   // ends where the frame starts
			[2]float64{lo + 0.001, hi}, // strictly inside
		)
	}
	return out
}

// TestIndexedScanEquivalence is a seeded differential between the
// indexed pread path and the whole-file scan: a store and an
// index-stripped copy of it must return identical chunks — the same
// points in the same order, equal times included — for filters that
// take the postings list, each single label, host+event and the
// wildcard, over windows that start and end exactly on frame extents,
// on raw-only and compacted bucket-tier data.
func TestIndexedScanEquivalence(t *testing.T) {
	filters := []Filter{
		{},
		{DevType: "cpu", Event: "user"},
		{DevType: "net", Event: "tx"},
		{DevType: "cpu", Event: "rx"},
		{Host: "node01", DevType: "cpu", Event: "user"},
		{Host: "node03"},
		{DevType: "net"},
		{Device: "cpu1"},
		{Event: "system"},
		{Host: "node00", Event: "user"},
		{Host: "nope"},
	}
	for h := 0; h < 8; h++ {
		filters = append(filters, Filter{Host: fmt.Sprintf("node%02d", h), DevType: "net", Event: "rx"})
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, compact := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/compact=%v", seed, compact), func(t *testing.T) {
				dir := t.TempDir()
				diffFixture(t, dir, seed, compact)
				stripped := stripIndexes(t, dir)
				ixStore, err := Open(dir, Options{Shards: 4, Metrics: telemetry.NewRegistry()})
				if err != nil {
					t.Fatal(err)
				}
				defer ixStore.Close()
				fsStore, err := Open(stripped, Options{Shards: 4, Metrics: telemetry.NewRegistry()})
				if err != nil {
					t.Fatal(err)
				}
				defer fsStore.Close()
				// The postings lists are built on first use, here by
				// several scans at once.
				want, err := fsStore.Scan(filters[1], 0, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got, err := ixStore.Scan(filters[1], 0, math.Inf(1))
						if err != nil || !reflect.DeepEqual(want, got) {
							t.Errorf("concurrent indexed scan differs from full scan (err %v)", err)
						}
					}()
				}
				wg.Wait()
				rng := rand.New(rand.NewSource(seed))
				windows := append([][2]float64{{0, math.Inf(1)}, {3999, 4000}}, frameWindows(ixStore, rng)...)
				for i := 0; i < 4; i++ {
					lo := float64(rng.Intn(12 * 3600))
					windows = append(windows, [2]float64{lo, lo + float64(rng.Intn(6*3600))})
				}
				points := 0
				for _, w := range windows {
					for _, f := range filters {
						want, err := fsStore.Scan(f, w[0], w[1])
						if err != nil {
							t.Fatalf("full scan %+v: %v", f, err)
						}
						got, err := ixStore.Scan(f, w[0], w[1])
						if err != nil {
							t.Fatalf("indexed scan %+v: %v", f, err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("indexed scan %+v [%g,%g) differs from full scan", f, w[0], w[1])
						}
						for _, c := range got {
							points += len(c.Points)
						}
					}
				}
				if points == 0 {
					t.Fatal("no query returned any points")
				}
				if ixStore.metrics().idxHits.Value() == 0 {
					t.Fatal("indexed store never used its indexes")
				}
				if ixStore.metrics().idxFullscans.Value() != 0 {
					t.Fatal("indexed store fell back to full scans")
				}
			})
		}
	}
}

// TestScanJoinOrder pins the order equal-time points from different
// segments come back in: coarsest tier first, then by seq, the active
// segment last — whatever order the parallel segment reads finish in.
func TestScanJoinOrder(t *testing.T) {
	opts := testOpts()
	opts.SegmentBytes = 128
	opts.FlushBytes = 32
	opts.CompactRawAfter = 3600
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := Labels{Host: "h", DevType: "cpu", Device: "0", Event: "user"}
	for tm := 0.0; tm <= 7200; tm += 60 {
		s.Append(Point{Labels: l, Time: tm, Value: 1})
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().TierSegments[tierMid] == 0 {
		t.Fatal("no bucket segment produced")
	}
	// Two more batches — one sealed, one left active — each a point at
	// t=601 and then eight at t=600, so the joined slice needs its
	// stable sort to keep equal times in join order.
	want := []AggPoint{{Time: 600, Count: 10, Sum: 10, Min: 1, Max: 1}} // the 10-minute bucket
	var late []AggPoint
	for _, batch := range []float64{20, 30} {
		s.Append(Point{Labels: l, Time: 601, Value: batch})
		late = append(late, AggPoint{Time: 601, Count: 1, Sum: batch, Min: batch, Max: batch})
		for k := 0.0; k < 8; k++ {
			s.Append(Point{Labels: l, Time: 600, Value: batch + k})
			want = append(want, AggPoint{Time: 600, Count: 1, Sum: batch + k, Min: batch + k, Max: batch + k})
		}
		if batch == 20 {
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want = append(want, late...)
	for i := 0; i < 20; i++ {
		got, err := s.Scan(Filter{Host: "h"}, 600, 602)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0].Points, want) {
			t.Fatalf("scan %d: %+v, want %+v", i, got, want)
		}
	}
}

// TestSeriesMajorDecode checks that decoding a frame series-major
// equals decoding it in entry order and regrouping the entries by ref,
// each series keeping its append order.
func TestSeriesMajorDecode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	w, err := newSegWriter(path, Meta{Tier: tierRaw, Seq: 1, CoverLo: 1, CoverHi: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	refs := make([]Ref, 9)
	for i := range refs {
		refs[i].Labels = Labels{Host: "h", DevType: "cpu", Device: fmt.Sprint(i), Event: "user"}
	}
	for i := 0; i < 600; i++ {
		// Random series and times that jump back and repeat.
		v := float64(i)
		w.add(&refs[rng.Intn(len(refs))], AggPoint{Time: float64(100 + rng.Intn(40)), Count: 1, Sum: v, Min: v, Max: v})
		if i%97 == 96 {
			if err := w.flushFrame(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ix, err := w.writeIndex()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.frames) < 5 {
		t.Fatalf("want several frames, got %d", len(ix.frames))
	}
	for _, fs := range ix.frames {
		typ, payload, err := framelog.Decode(data[fs.off : fs.off+fs.size])
		if err != nil {
			t.Fatal(err)
		}
		df, err := decodeFrameStandalone(payload, typ, fs, &ix.segDict, nil)
		if err != nil {
			t.Fatalf("frame at %d: %v", fs.off, err)
		}
		// The entry-order decode, regrouped by ref.
		e := entryDecoder{c: framelog.Cursor{B: payload}, typ: typ, dict: &ix.segDict, size: fs.dictBase, prevMs: fs.firstMs}
		n, _ := e.c.Count(1)
		byRef := map[uint64][]AggPoint{}
		for i := 0; i < n; i++ {
			ref, _, p, rep, err := e.next()
			if err != nil {
				t.Fatal(err)
			}
			if rep {
				v := byRef[ref][len(byRef[ref])-1].Sum
				p.Sum, p.Min, p.Max = v, v, v
			}
			byRef[ref] = append(byRef[ref], p)
		}
		if len(df.refs) != len(byRef) || len(df.start) != len(df.refs)+1 || len(df.pts) != n {
			t.Fatalf("frame at %d: %d refs, %d starts, %d points; want %d refs, %d points",
				fs.off, len(df.refs), len(df.start), len(df.pts), len(byRef), n)
		}
		for i, r := range df.refs {
			if i > 0 && df.refs[i-1] >= r {
				t.Fatalf("frame at %d: refs not ascending: %v", fs.off, df.refs)
			}
			run, sorted := df.run(i)
			if !reflect.DeepEqual(run, byRef[r]) {
				t.Fatalf("frame at %d: series %d run %v, want %v", fs.off, r, run, byRef[r])
			}
			if sorted != slices.IsSortedFunc(run, byTime) {
				t.Fatalf("frame at %d: series %d run marked sorted=%v: %v", fs.off, r, sorted, run)
			}
		}
	}
}
