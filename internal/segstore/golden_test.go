package segstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// The golden fixtures under testdata/ are a sealed raw segment and a
// sealed 10-minute segment, each with its index frame, written before
// the framing moved into internal/framelog. Writing the same entries
// must reproduce them byte for byte, and a store must serve them.

type goldenEntry struct {
	l Labels
	p AggPoint
}

func goldenSegments() map[string]struct {
	meta    Meta
	entries []goldenEntry
} {
	cpu := Labels{Host: "c401-101", DevType: "cpu", Device: "cpu0", Event: "user"}
	ib := Labels{Host: "c401-101", DevType: "ib", Device: "mlx4_0/1", Event: "rx_bytes"}
	var raw, mid []goldenEntry
	for i := 0; i < 12; i++ {
		v := float64(i*i) + 0.5
		raw = append(raw, goldenEntry{cpu, AggPoint{Time: 7200 + float64(i)*60.25, Count: 1, Sum: v, Min: v, Max: v}})
		raw = append(raw, goldenEntry{ib, AggPoint{Time: 7200 + float64(i)*60.25, Count: 1, Sum: -v, Min: -v, Max: -v}})
	}
	for i := 0; i < 4; i++ {
		mid = append(mid, goldenEntry{cpu, AggPoint{Time: 600 * float64(i+1), Count: 10, Sum: 55.5 * float64(i), Min: 1, Max: 9.75}})
	}
	return map[string]struct {
		meta    Meta
		entries []goldenEntry
	}{
		"raw-t0.seg": {Meta{Tier: tierRaw, Shard: 0, Seq: 3, CoverLo: 3, CoverHi: 3}, raw},
		"mid-t1.seg": {Meta{Tier: tierMid, Shard: 0, Seq: 2, CoverLo: 1, CoverHi: 1, BucketMs: 600000}, mid},
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
		path := filepath.Join(t.TempDir(), name)
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
			want[e.l] = append(want[e.l], e.p)
		}
		if _, err := w.writeIndex(); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fixture, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fixture) {
			t.Fatalf("%s: writer output (%d bytes) differs from the golden fixture (%d bytes)", name, len(got), len(fixture))
		}
		d, good, derr := parseSegment(fixture)
		if derr != nil || good != len(fixture) || d.index == nil || d.meta != g.meta {
			t.Fatalf("%s: parse fixture: good %d of %d, index %v, meta %+v, err %v",
				name, good, len(fixture), d != nil && d.index != nil, d, derr)
		}
		if err := os.WriteFile(filepath.Join(shdir, sealedName(g.meta.Tier, g.meta.Seq)), fixture, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, pts := range want {
		sort.Slice(pts, func(i, j int) bool { return pts[i].Time < pts[j].Time })
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
	got := make(map[Labels][]AggPoint)
	for _, c := range chunks {
		got[c.Labels] = c.Points
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store served %+v, want %+v", got, want)
	}
	if s.metrics().idxHits.Value() == 0 {
		t.Fatal("golden segments were not served through their index frames")
	}
}
