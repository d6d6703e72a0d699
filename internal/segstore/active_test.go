package segstore

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gostats/internal/framelog"
)

// activeOracle is the whole-file read of a shard's active segment: the
// file plus the pending entries as one more frame, parsed and filtered
// in full, each series stable-sorted by time as ScanShard joins it.
func activeOracle(t *testing.T, sh *shardState, f Filter, start, end float64) []SeriesChunk {
	t.Helper()
	w := sh.w
	if w == nil || w.entries == 0 || !(w.minT < end && w.maxT >= start) {
		return nil
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	if w.nPend > 0 {
		data = framelog.Append(data, framePoints, w.appendPayload(nil))
	}
	d, _, derr := parseSegment(data)
	if derr != nil {
		t.Fatalf("oracle parse: %v", derr)
	}
	var out []SeriesChunk
	for i, l := range d.series {
		var pts []AggPoint
		for _, p := range d.chunks[i] {
			if f.match(l) && p.Time >= start && p.Time < end {
				pts = append(pts, p)
			}
		}
		if len(pts) > 0 {
			slices.SortStableFunc(pts, byTime)
			out = append(out, SeriesChunk{Labels: l, Points: pts})
		}
	}
	return out
}

// activeBytes sums the on-disk sizes of every shard's active file.
func activeBytes(t *testing.T, s *Store) int64 {
	t.Helper()
	var n int64
	for _, sh := range s.shards {
		if sh.w == nil {
			continue
		}
		st, err := os.Stat(sh.w.path)
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// TestActiveScanMatchesFullParse is a seeded differential between the
// active segment's indexed read and a whole-file parse of it plus its
// pending frame: identical chunks, equal times in the same order, for
// series introduced in later frames, out-of-order and repeated times,
// an unflushed tail, windows ending exactly on frame extents, and host,
// (device type, event) and wildcard filters. Reads must not flush, and
// the answers must not change when the data is sealed.
func TestActiveScanMatchesFullParse(t *testing.T) {
	filters := []Filter{
		{},
		{DevType: "cpu", Event: "user"},
		{DevType: "net", Event: "rx"},
		{Host: "node03"},
		{Host: "node01", DevType: "cpu", Event: "user"},
		{Device: "eth0"},
		{Host: "nope"},
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			opts := testOpts()
			opts.FlushBytes = 512
			s, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(seed))
			kinds := []Labels{
				{DevType: "cpu", Device: "cpu0", Event: "user"},
				{DevType: "cpu", Device: "cpu1", Event: "user"},
				{DevType: "net", Device: "eth0", Event: "rx"},
				{DevType: "net", Device: "eth0", Event: "tx"},
				{DevType: "mem", Device: "numa0", Event: "used"},
			}
			tm := 1000.0
			for i := 0; i < 1500; i++ {
				l := kinds[rng.Intn(len(kinds))]
				// Hosts come online over time, so later frames introduce
				// series inline.
				l.Host = fmt.Sprintf("node%02d", rng.Intn(1+i/200))
				switch rng.Intn(10) {
				case 0: // back in time
					tm -= float64(rng.Intn(30))
				case 1: // the same instant again
				default:
					tm += float64(rng.Intn(5000)) / 1000
				}
				s.Append(Point{Labels: l, Time: tm, Value: float64(rng.Intn(1000)) / 8})
			}
			var frames []frameStat
			pending := 0
			for _, sh := range s.shards {
				if sh.w == nil {
					continue
				}
				frames = append(frames, sh.w.frames...)
				if sh.w.nPend > 0 {
					pending++
					frames = append(frames, sh.w.fstat)
				}
			}
			if len(frames) < 10 || pending == 0 {
				t.Fatalf("fixture has %d frames and %d pending tails", len(frames), pending)
			}
			windows := append([][2]float64{{0, math.Inf(1)}}, windowsOn(frames, rng)...)
			for i := 0; i < 4; i++ {
				lo := 1000 + float64(rng.Intn(4000))
				windows = append(windows, [2]float64{lo, lo + float64(rng.Intn(2000))})
			}

			size := activeBytes(t, s)
			var active [][]SeriesChunk
			points := 0
			for _, w := range windows {
				for _, f := range filters {
					var want []SeriesChunk
					for _, sh := range s.shards {
						want = append(want, activeOracle(t, sh, f, w[0], w[1])...)
					}
					sortChunks(want)
					got, err := s.Scan(f, w[0], w[1])
					if err != nil {
						t.Fatal(err)
					}
					if len(want) == 0 && len(got) == 0 {
						got = want
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("active scan %+v [%g,%g) differs from the full parse", f, w[0], w[1])
					}
					active = append(active, got)
					for _, c := range got {
						points += len(c.Points)
					}
				}
			}
			if points == 0 {
				t.Fatal("no query returned any points")
			}
			if after := activeBytes(t, s); after != size {
				t.Fatalf("scans changed the active files from %d to %d bytes", size, after)
			}
			if n := s.metrics().idxFullscans.Value(); n != 0 {
				t.Fatalf("%d full scans", n)
			}

			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			i := 0
			for _, w := range windows {
				for _, f := range filters {
					got, err := s.Scan(f, w[0], w[1])
					if err != nil {
						t.Fatal(err)
					}
					if len(active[i]) == 0 && len(got) == 0 {
						got = active[i]
					}
					if !reflect.DeepEqual(active[i], got) {
						t.Fatalf("scan %+v [%g,%g) changed when the segment was sealed", f, w[0], w[1])
					}
					i++
				}
			}
		})
	}
}

// TestActiveScanCountsIndexHits checks that a read of an unsealed store
// is counted as an index hit, not as a full scan.
func TestActiveScanCountsIndexHits(t *testing.T) {
	s, err := Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Append(mkPoint("h1", i))
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Append(mkPoint("h1", 100))
	if n, _ := totalPoints(t, s, 0, math.Inf(1)); n != 101 {
		t.Fatalf("scan returned %d points, want 101", n)
	}
	if s.Stats().TierSegments[tierRaw] != 0 {
		t.Fatal("store sealed a segment")
	}
	if h := s.metrics().idxHits.Value(); h == 0 {
		t.Fatal("active read not counted as an index hit")
	}
	if n := s.metrics().idxFullscans.Value(); n != 0 {
		t.Fatalf("active read counted %d full scans", n)
	}
}

// TestActiveScanAfterWriteError closes the active segment's file under
// its writer so a frame flush fails. The write error is sticky, but the
// frames that reached the file and the entries still pending must stay
// readable, while Commit keeps reporting the error.
func TestActiveScanAfterWriteError(t *testing.T) {
	opts := testOpts()
	opts.Shards = 1
	opts.FlushBytes = 256
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	var want []AggPoint
	appendPt := func(i int) {
		p := mkPoint("h1", i)
		s.Append(p)
		want = append(want, AggPoint{Time: p.Time, Count: 1, Sum: p.Value, Min: p.Value, Max: p.Value})
	}
	i := 0
	for ; sh.w == nil || len(sh.w.frames) < 3; i++ {
		appendPt(i)
	}
	sh.w.f.Close()
	for ; sh.werr == nil; i++ {
		appendPt(i)
	}
	for ; i < 2*len(want); i++ {
		s.Append(mkPoint("h1", i)) // refused: the shard's write error is sticky
	}
	if sh.w.nPend == 0 {
		t.Fatal("the failed flush left no pending entries")
	}
	if err := s.Commit(); err == nil {
		t.Fatal("Commit hid the write error")
	}
	got, err := s.Scan(Filter{Host: "h1"}, 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0].Points, want) {
		t.Fatalf("scan after a write error returned %d chunks; want the %d points written before it", len(got), len(want))
	}
}

// TestActiveScanConcurrentAppend scans while one appender writes rows
// into a store that flushes frames and seals segments every few rows.
// A row is appended under one lock, so every scan must see, for every
// series, the same time-sorted prefix of the rows without duplicates,
// no shorter than the rows appended before the scan began and no
// longer than those appended by the time it ended.
func TestActiveScanConcurrentAppend(t *testing.T) {
	opts := testOpts()
	opts.Shards = 2
	opts.SegmentBytes = 2 << 10
	opts.FlushBytes = 200
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const host, rows = "h1", 1500
	refs := make([]*Ref, 6)
	vals := make([]float64, len(refs))
	for i := range refs {
		refs[i] = &Ref{Labels: Labels{Host: host, DevType: "cpu", Device: fmt.Sprint(i), Event: "user"}}
	}
	// A row counts in started before AppendRow and in done after it, so
	// a scan sees between done-before and started-after rows.
	var started, done, mid atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	check := func(scan func() ([]SeriesChunk, error)) {
		before := done.Load()
		chunks, err := scan()
		after := started.Load()
		if after < rows {
			mid.Add(1)
		}
		if err != nil {
			t.Error(err)
			return
		}
		if before > 0 && len(chunks) != len(refs) {
			t.Errorf("scan returned %d series after %d rows", len(chunks), before)
			return
		}
		for _, c := range chunks {
			n := int64(len(c.Points))
			if n < before || n > after || n != int64(len(chunks[0].Points)) {
				t.Errorf("%v: %d points; rows appended %d before the scan and %d after", c.Labels, n, before, after)
				return
			}
			for j, p := range c.Points {
				if p.Time != float64(j) {
					t.Errorf("%v: point %d at time %g is not the prefix's", c.Labels, j, p.Time)
					return
				}
			}
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				check(func() ([]SeriesChunk, error) { return s.Scan(Filter{}, 0, math.Inf(1)) })
				check(func() ([]SeriesChunk, error) {
					return s.Scan(Filter{Host: host, DevType: "cpu", Event: "user"}, 0, math.Inf(1))
				})
			}
		}()
	}
	for r := 0; r < rows; r++ {
		for i := range vals {
			vals[i] = float64(r*len(vals) + i)
		}
		started.Store(int64(r + 1))
		s.AppendRow(host, float64(r), refs, vals)
		done.Store(int64(r + 1))
	}
	stop.Store(true)
	wg.Wait()
	if st := s.Stats(); st.Seals < 10 || mid.Load() == 0 {
		t.Fatalf("%d seals and %d scans during the appends", st.Seals, mid.Load())
	}
	check(func() ([]SeriesChunk, error) { return s.Scan(Filter{}, 0, math.Inf(1)) })
}

// TestActiveScanAfterFailedSeal fails each step of a seal in turn. The
// points being sealed must stay readable after the failure — through
// the still-active writer, or as the sealed segment once the rename has
// landed — and after the store is reopened.
func TestActiveScanAfterFailedSeal(t *testing.T) {
	for _, step := range []string{"index", "sync", "close", "rename", "syncdir"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			opts := testOpts()
			opts.Shards = 1
			opts.FlushBytes = 256
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			var want []AggPoint
			appendPts := func(from, to int) {
				for i := from; i < to; i++ {
					p := mkPoint("h1", i)
					s.Append(p)
					want = append(want, AggPoint{Time: p.Time, Count: 1, Sum: p.Value, Min: p.Value, Max: p.Value})
				}
			}
			check := func(s *Store, when string) {
				t.Helper()
				got, err := s.Scan(Filter{Host: "h1"}, 0, math.Inf(1))
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if len(got) != 1 || !reflect.DeepEqual(got[0].Points, want) {
					n := 0
					if len(got) == 1 {
						n = len(got[0].Points)
					}
					t.Fatalf("%s: scan returned %d chunks, %d points; want %d points", when, len(got), n, len(want))
				}
			}
			appendPts(0, 100)
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			appendPts(100, 250) // several flushed frames plus pending entries
			injected := fmt.Errorf("injected %s failure", step)
			s.sealFault = func(at string) error {
				if at == step {
					return injected
				}
				return nil
			}
			if err := s.Seal(); err != injected {
				t.Fatalf("Seal = %v, want the injected failure", err)
			}
			check(s, "after the failed seal")
			if err := s.Commit(); err != injected {
				t.Fatalf("Commit = %v, want the sticky seal failure", err)
			}
			s.Append(mkPoint("h1", 999)) // refused: the failure is sticky
			check(s, "after an append refused by the sticky error")
			s.Close()

			s2, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if q := s2.Stats().Quarantined; q != 0 {
				t.Fatalf("reopen quarantined %d segments", q)
			}
			check(s2, "after reopen")
		})
	}
}
