package segstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The golden fixtures under testdata/ are sealed segments with their
// index frames. raw-t0.seg and mid-t1.seg are format 1, written before
// the framing moved into internal/framelog; raw-v2-t0.seg and
// mid-v2-t1.seg are format 2, whose raw entries elide repeated times,
// +0.0 and in-frame value repeats. A store must still serve them all.
// raw-v3-t0.seg and mid-v3-t1.seg are format 3, whose labels are coded
// through per-field string tables: writing the same entries must
// reproduce them byte for byte, and a store must serve them.

type goldenEntry struct {
	l Labels
	p AggPoint
}

type goldenSegment struct {
	meta    Meta
	version uint64
	entries []goldenEntry
}

func rawPoint(t, v float64) AggPoint { return AggPoint{Time: t, Count: 1, Sum: v, Min: v, Max: v} }

func goldenSegments() map[string]goldenSegment {
	cpu := Labels{Host: "c401-101", DevType: "cpu", Device: "cpu0", Event: "user"}
	ib := Labels{Host: "c401-101", DevType: "ib", Device: "mlx4_0/1", Event: "rx_bytes"}
	var raw, mid []goldenEntry
	for i := 0; i < 12; i++ {
		v := float64(i*i) + 0.5
		raw = append(raw, goldenEntry{cpu, rawPoint(7200+float64(i)*60.25, v)})
		raw = append(raw, goldenEntry{ib, rawPoint(7200+float64(i)*60.25, -v)})
	}
	for i := 0; i < 4; i++ {
		mid = append(mid, goldenEntry{cpu, AggPoint{Time: 600 * float64(i+1), Count: 10, Sum: 55.5 * float64(i), Min: 1, Max: 9.75}})
	}

	// The format-2 fixtures: rows of three series sharing a time, with
	// +0.0, −0.0, runs of repeats (which restart at each frame, every
	// fifth entry), a NaN with a payload repeated bit for bit, and a late
	// point that steps the time back.
	user := Labels{Host: "c401-102", DevType: "cpu", Device: "cpu0", Event: "user"}
	idle := Labels{Host: "c401-102", DevType: "cpu", Device: "cpu0", Event: "idle"}
	rx := Labels{Host: "c401-102", DevType: "ib", Device: "mlx4_0/1", Event: "rx_bytes"}
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	var raw2, mid2 []goldenEntry
	for i := 0; i < 12; i++ {
		tm := 9000 + float64(i)*60.25
		u := 2.5
		if i%4 == 0 {
			u = 0
		}
		id := float64(i / 3)
		if i%3 == 0 {
			id = math.Copysign(0, -1)
		}
		r := float64(i * i)
		if i == 5 || i == 6 {
			r = nan
		}
		raw2 = append(raw2, goldenEntry{user, rawPoint(tm, u)}, goldenEntry{idle, rawPoint(tm, id)}, goldenEntry{rx, rawPoint(tm, r)})
	}
	raw2 = append(raw2, goldenEntry{user, rawPoint(8990, 2.5)})
	for i := 0; i < 4; i++ {
		tm := 600 * float64(i+1)
		mid2 = append(mid2,
			goldenEntry{user, AggPoint{Time: tm, Count: 10, Sum: 55.5 * float64(i), Min: 1, Max: 9.75}},
			goldenEntry{idle, AggPoint{Time: tm, Count: 10, Sum: 0, Min: 0, Max: 0}})
	}

	// The format-3 fixtures: a host's cpu series sharing their device
	// type and devices, and process series in the style of the ps class
	// (device pid/owner/exe) entering in later frames, each sharing the
	// host, the device type and, per process, the device.
	cpuOf := func(dev, ev string) Labels { return Labels{Host: "c401-103", DevType: "cpu", Device: dev, Event: ev} }
	ps := func(proc, ev string) Labels { return Labels{Host: "c401-103", DevType: "ps", Device: proc, Event: ev} }
	var raw3, mid3 []goldenEntry
	for i := 0; i < 9; i++ {
		tm := 12000 + float64(i)*600
		u := 1.25 * float64(i)
		if i%3 == 0 {
			u = 0
		}
		raw3 = append(raw3, goldenEntry{cpuOf("cpu0", "user"), rawPoint(tm, u)},
			goldenEntry{cpuOf("cpu0", "idle"), rawPoint(tm, 7.5)}, goldenEntry{cpuOf("cpu1", "user"), rawPoint(tm, float64(i))})
		if i >= 3 {
			raw3 = append(raw3, goldenEntry{ps("4242/alice/wrf.exe", "rss"), rawPoint(tm, 1e6+float64(i))},
				goldenEntry{ps("4242/alice/wrf.exe", "utime"), rawPoint(tm, 0.5*float64(i))})
		}
		if i >= 6 {
			raw3 = append(raw3, goldenEntry{ps("4243/bob/vasp", "rss"), rawPoint(tm, 2e6)},
				goldenEntry{ps("4243/bob/vasp", "utime"), rawPoint(tm, 0.25*float64(i))})
		}
	}
	for i := 0; i < 4; i++ {
		tm := 600 * float64(i+1)
		mid3 = append(mid3, goldenEntry{cpuOf("cpu0", "user"), AggPoint{Time: tm, Count: 10, Sum: 12.5 * float64(i), Min: 0, Max: 2.5}},
			goldenEntry{cpuOf("cpu1", "user"), AggPoint{Time: tm, Count: 10, Sum: 3, Min: 0.25, Max: 0.5}})
		if i >= 2 {
			mid3 = append(mid3, goldenEntry{ps("4242/alice/wrf.exe", "rss"), AggPoint{Time: tm, Count: 10, Sum: 1e7, Min: 1e6, Max: 1e6}})
		}
	}
	return map[string]goldenSegment{
		"raw-t0.seg":    {Meta{Tier: tierRaw, Shard: 0, Seq: 3, CoverLo: 3, CoverHi: 3}, segFormatV1, raw},
		"mid-t1.seg":    {Meta{Tier: tierMid, Shard: 0, Seq: 2, CoverLo: 1, CoverHi: 1, BucketMs: 600000}, segFormatV1, mid},
		"raw-v2-t0.seg": {Meta{Tier: tierRaw, Shard: 0, Seq: 5, CoverLo: 5, CoverHi: 5}, segFormatV2, raw2},
		"mid-v2-t1.seg": {Meta{Tier: tierMid, Shard: 0, Seq: 4, CoverLo: 4, CoverHi: 4, BucketMs: 600000}, segFormatV2, mid2},
		"raw-v3-t0.seg": {Meta{Tier: tierRaw, Shard: 0, Seq: 7, CoverLo: 7, CoverHi: 7}, segFormatVersion, raw3},
		"mid-v3-t1.seg": {Meta{Tier: tierMid, Shard: 0, Seq: 6, CoverLo: 6, CoverHi: 6, BucketMs: 600000}, segFormatVersion, mid3},
	}
}

// writeGolden writes g's entries as a sealed segment at path, flushing a
// frame after every fifth entry.
func writeGolden(t testing.TB, path string, g goldenSegment) {
	t.Helper()
	w, err := newSegWriter(path, g.meta, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range g.entries {
		w.add(&Ref{Labels: e.l}, e.p)
		if i%5 == 4 {
			if err := w.flushFrame(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := w.writeIndex(); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenSegments(t *testing.T) {
	dir := t.TempDir()
	shdir := filepath.Join(dir, "shard-00")
	if err := os.MkdirAll(shdir, 0o755); err != nil {
		t.Fatal(err)
	}
	want := make(map[Labels][]AggPoint)
	for name, g := range goldenSegments() {
		fixture, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if g.version == segFormatVersion {
			path := filepath.Join(t.TempDir(), name)
			writeGolden(t, path, g)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fixture) {
				t.Fatalf("%s: writer output (%d bytes) differs from the golden fixture (%d bytes)", name, len(got), len(fixture))
			}
		}
		d, good, derr := parseSegment(fixture)
		if derr != nil || good != len(fixture) || d.index == nil || d.meta != g.meta || d.version != g.version {
			t.Fatalf("%s: parse fixture: good %d of %d, index %v, meta %+v, err %v",
				name, good, len(fixture), d != nil && d.index != nil, d, derr)
		}
		if err := os.WriteFile(filepath.Join(shdir, sealedName(g.meta.Tier, g.meta.Seq)), fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, e := range g.entries {
			want[e.l] = append(want[e.l], e.p)
		}
	}

	for _, pts := range want {
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].Time < pts[j].Time })
	}
	opts := testOpts()
	opts.Shards = 1
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if q := s.Stats().Quarantined; q != 0 {
		t.Fatalf("store quarantined %d golden segments", q)
	}
	chunks, err := s.Scan(Filter{}, 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != len(want) {
		t.Fatalf("store served %d series, want %d", len(chunks), len(want))
	}
	for _, c := range chunks {
		if !samePoints(c.Points, want[c.Labels]) {
			t.Fatalf("store served %v: %+v, want %+v", c.Labels, c.Points, want[c.Labels])
		}
	}
	if s.metrics().idxHits.Value() == 0 {
		t.Fatal("golden segments were not served through their index frames")
	}
}

// TestFormat1SegmentRecoversAndCompacts takes the format-1 raw golden
// through what a store written by an older binary meets after an
// upgrade: recovery of an active segment torn inside its last data
// frame, compaction into a current-format bucket segment, and a reopen.
// Every point of the complete frames must come back, then their exact
// buckets.
func TestFormat1SegmentRecoversAndCompacts(t *testing.T) {
	oldSegmentRecoversAndCompacts(t, "raw-t0.seg")
}

// TestFormat2SegmentRecoversAndCompacts does the same with the format-2
// raw golden, whose NaN values must also reach their buckets as
// compaction folds them.
func TestFormat2SegmentRecoversAndCompacts(t *testing.T) {
	oldSegmentRecoversAndCompacts(t, "raw-v2-t0.seg")
}

func oldSegmentRecoversAndCompacts(t *testing.T, name string) {
	g := goldenSegments()[name]
	fixture, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := parseSegment(fixture)
	if err != nil || d.version != g.version {
		t.Fatalf("fixture: version %d, err %v", d.version, err)
	}
	// Tear the last data frame; its entries (writeGolden flushes after
	// every fifth) are lost, the complete frames before it kept.
	lastOff := d.frameStats[len(d.frameStats)-1].off
	kept := g.entries[:(len(g.entries)-1)/5*5]
	host := g.entries[0].l.Host
	dir := t.TempDir()
	shdir := filepath.Join(dir, "shard-00")
	if err := os.MkdirAll(shdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shdir, activeName(g.meta.Seq)), fixture[:lastOff+3], 0o644); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Shards = 1
	opts.CompactRawAfter = 3600
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	if st := s.Stats(); st.TornTruncated != 1 || st.RecoveredPts != uint64(len(kept)) || st.TierSegments[tierRaw] != 1 {
		t.Fatalf("recovery: %+v, want one torn segment of %d points", st, len(kept))
	}
	raw := map[Labels][]AggPoint{}
	for _, e := range kept {
		raw[e.l] = append(raw[e.l], e.p)
	}
	checkScan := func(label string, want map[Labels][]AggPoint) {
		t.Helper()
		chunks, err := s.Scan(Filter{Host: host}, 0, 86400)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != len(want) {
			t.Fatalf("%s: %d series, want %d", label, len(chunks), len(want))
		}
		for _, c := range chunks {
			if !samePoints(c.Points, want[c.Labels]) {
				t.Fatalf("%s: %v: %+v, want %+v", label, c.Labels, c.Points, want[c.Labels])
			}
		}
	}
	checkScan("recovered", raw)

	// A newer point puts the recovered segment past the compaction age.
	s.Append(Point{Labels: Labels{Host: host, DevType: "cpu", Device: "cpu0", Event: "user"}, Time: 86400, Value: 1})
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions != 1 || st.TierSegments[tierMid] != 1 {
		t.Fatalf("compaction: %+v", st)
	}
	// Buckets fold as compaction does: a NaN never replaces a min or max.
	buckets := map[Labels][]AggPoint{}
	for l, pts := range raw {
		for _, p := range pts {
			bt := math.Floor(p.Time/600) * 600
			b := buckets[l]
			if n := len(b); n > 0 && b[n-1].Time == bt {
				q := &b[n-1]
				q.Count++
				q.Sum += p.Sum
				if p.Sum < q.Min {
					q.Min = p.Sum
				}
				if p.Sum > q.Max {
					q.Max = p.Sum
				}
				continue
			}
			buckets[l] = append(b, AggPoint{Time: bt, Count: 1, Sum: p.Sum, Min: p.Sum, Max: p.Sum})
		}
	}
	checkScan("compacted", buckets)
	mids, _ := filepath.Glob(filepath.Join(shdir, "t1-*.seg"))
	if len(mids) != 1 {
		t.Fatalf("bucket segments %v", mids)
	}
	out, err := os.ReadFile(mids[0])
	if err != nil {
		t.Fatal(err)
	}
	if d, _, err := parseSegment(out); err != nil || d.version != segFormatVersion {
		t.Fatalf("compaction output: err %v, version %d; want format %d", err, d.version, segFormatVersion)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	checkScan("reopened", buckets)
}
