package segstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gostats/internal/telemetry"
)

func testOpts() Options {
	return Options{
		Shards:          4,
		SegmentBytes:    1 << 20,
		FlushBytes:      32 << 10,
		CompactRawAfter: -1,
		CompactMidAfter: -1,
		Metrics:         telemetry.NewRegistry(),
	}
}

func mkPoint(host string, i int) Point {
	return Point{
		Labels: Labels{Host: host, DevType: "block", Device: "sda", Event: "rd_sectors"},
		Time:   float64(1000 + i*10),
		Value:  float64(i),
	}
}

func totalPoints(t *testing.T, s *Store, start, end float64) (n uint64, sum float64) {
	t.Helper()
	chunks, err := s.Scan(Filter{}, start, end)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	for _, c := range chunks {
		for _, p := range c.Points {
			n += p.Count
			sum += p.Sum
		}
	}
	return n, sum
}

func TestAppendScanRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const N = 500
	var wantSum float64
	for i := 0; i < N; i++ {
		p := mkPoint(fmt.Sprintf("node%02d", i%7), i)
		s.Append(p)
		wantSum += p.Value
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	n, sum := totalPoints(t, s, 0, math.Inf(1))
	if n != N || sum != wantSum {
		t.Fatalf("scan got %d points sum %g, want %d sum %g", n, sum, N, wantSum)
	}
	// Host filter touches exactly that host's series.
	chunks, err := s.Scan(Filter{Host: "node03"}, 0, math.Inf(1))
	if err != nil {
		t.Fatalf("Scan host: %v", err)
	}
	for _, c := range chunks {
		if c.Labels.Host != "node03" {
			t.Fatalf("host filter leaked series %+v", c.Labels)
		}
	}
	// Time window is half-open.
	n, _ = totalPoints(t, s, 1000, 1010)
	if n != 1 {
		t.Fatalf("half-open window [1000,1010) got %d points, want 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestSealRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 2 << 10 // force many rotations
	opts.FlushBytes = 512
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const N = 2000
	for i := 0; i < N; i++ {
		s.Append(mkPoint("hostA", i))
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	st := s.Stats()
	if st.TierSegments[tierRaw] < 2 {
		t.Fatalf("expected rotation to seal several segments, got %d", st.TierSegments[tierRaw])
	}
	// No Close: simulate an abrupt exit after the OS has the frames.
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	n, _ := totalPoints(t, s2, 0, math.Inf(1))
	if n != N {
		t.Fatalf("reopen recovered %d points, want %d", n, N)
	}
	st2 := s2.Stats()
	if st2.RecoveredPts != N {
		t.Fatalf("RecoveredPts = %d, want %d", st2.RecoveredPts, N)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// buildFramedSegment writes a raw segment with one point per frame and
// returns the file bytes plus the byte offset of every frame boundary
// (including the preamble+meta prefix and the final length).
func buildFramedSegment(t *testing.T, path string, nframes int) (data []byte, bounds []int) {
	t.Helper()
	w, err := newSegWriter(path, Meta{Tier: tierRaw, Shard: 0, Seq: 7, CoverLo: 7, CoverHi: 7}, false)
	if err != nil {
		t.Fatalf("newSegWriter: %v", err)
	}
	bounds = append(bounds, int(w.bytes))
	for i := 0; i < nframes; i++ {
		l := Labels{Host: "h", DevType: "cpu", Device: fmt.Sprintf("c%d", i%3), Event: "user"}
		v := float64(i)
		w.add(&Ref{Labels: l}, AggPoint{Time: 100 + float64(i), Count: 1, Sum: v, Min: v, Max: v})
		if err := w.flushFrame(); err != nil {
			t.Fatalf("flushFrame: %v", err)
		}
		bounds = append(bounds, int(w.bytes))
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return data, bounds
}

// TestTornTailEveryBoundary truncates an active segment at every frame
// boundary and at every byte in between: recovery must keep exactly the
// frames wholly before the cut and never fail open.
func TestTornTailEveryBoundary(t *testing.T) {
	base := t.TempDir()
	data, bounds := buildFramedSegment(t, filepath.Join(base, "full.seg"), 8)
	if bounds[len(bounds)-1] != len(data) {
		t.Fatalf("boundary bookkeeping off: %d != %d", bounds[len(bounds)-1], len(data))
	}
	frameOf := func(cut int) int {
		// number of data frames wholly contained in data[:cut]
		n := 0
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= cut {
				n = i
			}
		}
		return n
	}
	for cut := bounds[0]; cut <= len(data); cut++ {
		wantFrames := frameOf(cut)
		d, good, derr := parseSegment(data[:cut])
		if d == nil {
			t.Fatalf("cut %d: parseSegment returned nil segData", cut)
		}
		if got := int(d.entries); got != wantFrames {
			t.Fatalf("cut %d: recovered %d entries, want %d", cut, got, wantFrames)
		}
		if good != bounds[wantFrames] {
			t.Fatalf("cut %d: good prefix %d, want boundary %d", cut, good, bounds[wantFrames])
		}
		if cut == len(data) && derr != nil {
			t.Fatalf("full segment reported damage: %v", derr)
		}
		if cut < len(data) && cut > bounds[wantFrames] && derr == nil {
			t.Fatalf("cut %d mid-frame reported no damage", cut)
		}
	}

	// End to end: drop each truncation into a store dir as the active
	// segment and reopen — the store must recover the prefix and seal it.
	for _, cut := range bounds {
		dir := t.TempDir()
		shdir := filepath.Join(dir, "shard-00")
		if err := os.MkdirAll(shdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shdir, activeName(7)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		opts := testOpts()
		opts.Shards = 1
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		n, _ := totalPoints(t, s, 0, math.Inf(1))
		want := uint64(frameOf(cut))
		if n != want {
			t.Fatalf("cut %d: store recovered %d points, want %d", cut, n, want)
		}
		s.Close()
	}
}

// TestFlippedByteEveryFrame corrupts one byte inside each frame of a
// sealed segment — the frame's type byte, which the checksum does not
// cover, and a byte mid-payload: Open must quarantine the file (never
// fail open, never serve the bad data) and keep serving the rest of the
// store.
func TestFlippedByteEveryFrame(t *testing.T) {
	base := t.TempDir()
	data, bounds := buildFramedSegment(t, filepath.Join(base, "full.seg"), 6)
	for fi := 0; fi+1 < len(bounds); fi++ {
		for _, at := range []int{bounds[fi], (bounds[fi] + bounds[fi+1]) / 2} {
			corrupt := append([]byte(nil), data...)
			corrupt[at] ^= 0x40
			dir := t.TempDir()
			shdir := filepath.Join(dir, "shard-00")
			if err := os.MkdirAll(shdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(shdir, sealedName(tierRaw, 7)), corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			// A healthy second segment must survive its neighbor's damage.
			w, err := newSegWriter(filepath.Join(shdir, sealedName(tierRaw, 8)),
				Meta{Tier: tierRaw, Shard: 0, Seq: 8, CoverLo: 8, CoverHi: 8}, false)
			if err != nil {
				t.Fatal(err)
			}
			w.add(&Ref{Labels: Labels{Host: "h", DevType: "mem", Device: "-", Event: "free"}},
				AggPoint{Time: 500, Count: 1, Sum: 1, Min: 1, Max: 1})
			if err := w.close(); err != nil {
				t.Fatal(err)
			}

			opts := testOpts()
			opts.Shards = 1
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("frame %d byte %d: Open failed instead of quarantining: %v", fi, at, err)
			}
			st := s.Stats()
			if st.Quarantined != 1 {
				t.Fatalf("frame %d byte %d: Quarantined = %d, want 1", fi, at, st.Quarantined)
			}
			if _, err := os.Stat(filepath.Join(shdir, sealedName(tierRaw, 7)+".bad")); err != nil {
				t.Fatalf("frame %d byte %d: quarantined file missing: %v", fi, at, err)
			}
			n, _ := totalPoints(t, s, 0, math.Inf(1))
			if n != 1 {
				t.Fatalf("frame %d byte %d: healthy segment lost: %d points", fi, at, n)
			}
			s.Close()
		}
	}
}

func TestCompactionExactAggregates(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.Shards = 2
	opts.SegmentBytes = 4 << 10
	opts.CompactRawAfter = 3600     // raw older than 1h -> 10m buckets
	opts.CompactMidAfter = 6 * 3600 // 10m older than 6h -> 1h buckets
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// 12 hours of 30s samples for two hosts.
	const step, hours = 30.0, 12
	n := 0
	for ti := 0.0; ti < hours*3600; ti += step {
		for _, h := range []string{"alpha", "beta"} {
			s.Append(Point{
				Labels: Labels{Host: h, DevType: "cpu", Device: "cpu0", Event: "user"},
				Time:   ti,
				Value:  math.Sin(ti/700) + 2,
			})
			n++
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	beforeN, beforeSum := totalPoints(t, s, 0, math.Inf(1))
	for i := 0; i < 10; i++ {
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compactions ran")
	}
	if st.TierSegments[tierMid]+st.TierSegments[tierHour] == 0 {
		t.Fatal("no downsampled segments produced")
	}
	afterN, afterSum := totalPoints(t, s, 0, math.Inf(1))
	if afterN != beforeN || math.Abs(afterSum-beforeSum) > 1e-6*math.Abs(beforeSum) {
		t.Fatalf("compaction changed totals: %d/%g -> %d/%g", beforeN, beforeSum, afterN, afterSum)
	}
	if uint64(n) != afterN {
		t.Fatalf("weighted count %d != appended %d", afterN, n)
	}
	// Reopen: compacted state must be durable and self-consistent.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	reN, reSum := totalPoints(t, s2, 0, math.Inf(1))
	if reN != afterN || math.Abs(reSum-afterSum) > 1e-6*math.Abs(afterSum) {
		t.Fatalf("reopen changed totals: %d/%g -> %d/%g", afterN, afterSum, reN, reSum)
	}
	s2.Close()
}

// TestCoverRangeCompletesInterruptedCompaction simulates a crash after
// a compaction output was renamed into place but before its inputs were
// deleted: reopening must discard the covered inputs, not double-count.
func TestCoverRangeCompletesInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.Shards = 1
	opts.SegmentBytes = 2 << 10
	opts.CompactRawAfter = 100
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 800; i++ {
		s.Append(mkPoint("solo", i))
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	// Save copies of the raw inputs compaction will consume.
	shdir := filepath.Join(dir, "shard-00")
	saved := map[string][]byte{}
	ents, _ := os.ReadDir(shdir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "t0-") {
			b, err := os.ReadFile(filepath.Join(shdir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			saved[e.Name()] = b
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	wantN, wantSum := totalPoints(t, s, 0, math.Inf(1))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// "Crash": resurrect the deleted inputs next to the live output.
	restored := 0
	for name, b := range saved {
		if _, err := os.Stat(filepath.Join(shdir, name)); os.IsNotExist(err) {
			if err := os.WriteFile(filepath.Join(shdir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("compaction consumed no inputs; test is vacuous")
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	gotN, gotSum := totalPoints(t, s2, 0, math.Inf(1))
	if gotN != wantN || math.Abs(gotSum-wantSum) > 1e-9 {
		t.Fatalf("covered inputs double-counted: %d/%g, want %d/%g", gotN, gotSum, wantN, wantSum)
	}
	s2.Close()
}

func TestRetentionDrops(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.Shards = 1
	opts.SegmentBytes = 1 << 10
	opts.RetainRaw = 3600
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Two days of minute samples: everything older than 1h from the
	// newest point must be dropped by the retention pass.
	for ti := 0.0; ti < 2*86400; ti += 60 {
		s.Append(Point{
			Labels: Labels{Host: "old", DevType: "cpu", Device: "cpu0", Event: "user"},
			Time:   ti, Value: 1,
		})
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatal("retention dropped nothing")
	}
	newest := s.Newest()
	chunks, err := s.Scan(Filter{}, 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		for _, p := range c.Points {
			// Segments are dropped whole, so the oldest surviving point
			// can precede the cutoff by up to one segment span; it must
			// still be within the same order of magnitude.
			if p.Time < newest-2*opts.RetainRaw-86400/2 {
				t.Fatalf("point at %g survived retention (newest %g)", p.Time, newest)
			}
		}
	}
	s.Close()
}

func TestScanSeesPendingWithoutCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Append(mkPoint("h1", 1))
	n, _ := totalPoints(t, s, 0, math.Inf(1))
	if n != 1 {
		t.Fatalf("pending point invisible to Scan: got %d", n)
	}
	s.Close()
}

// A sealed compaction input that rotted on disk since its seal-time
// verification must be quarantined and skipped — not wedge the tier by
// erroring out of every compaction pass forever.
func TestCompactionQuarantinesDamagedInput(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.Shards = 1
	opts.SegmentBytes = 2 << 10
	opts.FlushBytes = 256
	opts.CompactRawAfter = 100
	opts.Logf = t.Logf
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const N = 3000
	for i := 0; i < N; i++ {
		s.Append(mkPoint("hostA", i))
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	sh := s.shards[0]
	if len(sh.sealed[tierRaw]) < 4 {
		t.Fatalf("want several raw segments, got %d", len(sh.sealed[tierRaw]))
	}
	// Rot a byte in the middle of the second-oldest segment so the
	// damage sits between good inputs of the same compaction pass.
	victim := sh.sealed[tierRaw][1]
	lost := victim.count
	data, err := os.ReadFile(victim.path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim.path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact pass %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.Compactions == 0 {
		t.Fatal("compaction never progressed past the damaged input")
	}
	if _, err := os.Stat(victim.path + ".bad"); err != nil {
		t.Fatalf("damaged segment not renamed aside: %v", err)
	}
	// Every point outside the quarantined segment is still queryable.
	n, _ := totalPoints(t, s, 0, math.Inf(1))
	if n != N-lost {
		t.Fatalf("post-quarantine scan got %d points, want %d (lost segment held %d)", n, N-lost, lost)
	}
	// Reopen: the .bad file stays aside and totals are unchanged.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	n2, _ := totalPoints(t, s2, 0, math.Inf(1))
	if n2 != N-lost {
		t.Fatalf("reopen scan got %d points, want %d", n2, N-lost)
	}
}
