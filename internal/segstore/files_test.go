package segstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gostats/internal/lru"
	"gostats/internal/telemetry"
)

// TestWarmScanOpensNoFile: once a scan has opened the sealed segments it
// reads, repeating it opens none, and the handles stay resident until
// Close drops them.
func TestWarmScanOpensNoFile(t *testing.T) {
	opts := testOpts()
	opts.SegmentBytes = 4 << 10
	opts.FlushBytes = 1 << 10
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		s.Append(mkPoint(fmt.Sprint("h", i%8), i))
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	held := s.Stats().TierSegments[tierRaw]
	if held < 4 {
		t.Fatalf("fixture: %d sealed segments, want several", held)
	}
	if _, err := s.Scan(Filter{}, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	opens := s.met.fileOpens.Value()
	if opens != uint64(held) {
		t.Fatalf("cold scan opened %d files, want one per sealed segment (%d)", opens, held)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Scan(Filter{}, 0, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Scan(Filter{Host: "h3"}, 1000, 20000); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.met.fileOpens.Value(); got != opens {
		t.Fatalf("warm scans opened %d more files", got-opens)
	}
	if st := s.Stats(); st.FileOpens != opens {
		t.Fatalf("Stats.FileOpens = %d, counter %d", st.FileOpens, opens)
	}
	if g := s.met.openFiles.Value(); g != float64(held) {
		t.Fatalf("open_files gauge %v, want %d", g, held)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if g := s.met.openFiles.Value(); g != 0 {
		t.Fatalf("open_files gauge %v after Close, want 0", g)
	}
}

// flatScan returns shard's whole content as caller-owned chunks.
func flatScan(s *Store, shard int) ([]SeriesChunk, error) {
	series, err := s.ScanShard(shard, Filter{}, 0, math.Inf(1))
	if err != nil {
		return nil, err
	}
	out := make([]SeriesChunk, len(series))
	for i, r := range series {
		out[i] = SeriesChunk{Labels: r.Labels, Points: slices.Concat(r.Runs...)}
	}
	return out, nil
}

// readAll reads a handle's file from offset 0 to its size.
func readAll(t *testing.T, h *segFile) []byte {
	t.Helper()
	st, err := h.f.Stat()
	if err != nil {
		t.Fatalf("stat held handle: %v", err)
	}
	buf := make([]byte, st.Size())
	if _, err := h.f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read held handle: %v", err)
	}
	return buf
}

// TestSegmentFilesOutliveEvictionAndRemoval runs the file cache smaller
// than the store's sealed segments, so scans keep evicting handles other
// scans hold, beside Compact passes that retain, compact and quarantine
// segments those scans have captured. A held handle must stay readable
// until its holder lets go, whatever the cache or the directory did
// meanwhile; every scan must match a reference scan of the shard before
// or after the pass (a pass changes each shard under its lock, so a scan
// sees one or the other); and after Close the process holds no fd into
// the store.
func TestSegmentFilesOutliveEvictionAndRemoval(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{
		Shards:          4,
		SegmentBytes:    2 << 10,
		FlushBytes:      256,
		BlockCacheBytes: -1, // every frame read goes to the fd
		CompactRawAfter: 2 * 3600,
		CompactMidAfter: 6 * 3600,
		RetainHour:      9 * 3600,
		Metrics:         telemetry.NewRegistry(),
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.files = lru.New(2, nil, s.dropHandle)

	rng := rand.New(rand.NewSource(3))
	hosts := make([]string, 8)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("n%02d", i)
	}
	const roundSpan, step = 3 * 3600, 60
	fill := func(round int) {
		for tm := round * roundSpan; tm < (round+1)*roundSpan; tm += step {
			for _, h := range hosts {
				for _, ev := range []string{"rd", "wr", "rq", "lat"} {
					s.Append(Point{Labels: Labels{Host: h, DevType: "block", Device: "sda", Event: ev},
						Time: float64(tm), Value: rng.Float64() * 100})
				}
			}
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	refs := func() [][]SeriesChunk {
		out := make([][]SeriesChunk, len(s.shards))
		for i := range out {
			var err error
			if out[i], err = flatScan(s, i); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	sh := s.shards[0]
	capture := func(info *segInfo) *segFile {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		h, err := s.openSealed(sh.id, info)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	// A held handle outlives its eviction, and the last release closes it.
	fill(0)
	raw := slices.Clone(sh.sealed[tierRaw])
	if len(raw) < 3 {
		t.Fatalf("fixture: shard 0 has %d raw segments, want 3 or more", len(raw))
	}
	held := capture(raw[0])
	want, err := os.ReadFile(raw[0].path)
	if err != nil {
		t.Fatal(err)
	}
	capture(raw[1]).release()
	capture(raw[2]).release() // evicts raw[0]'s handle from the 2-entry cache
	if n := s.files.Len(); n != 2 {
		t.Fatalf("file cache holds %d handles, want 2", n)
	}
	if got := readAll(t, held); !reflect.DeepEqual(got, want) {
		t.Fatal("evicted handle reads different bytes")
	}
	held.release()
	if _, err := held.f.ReadAt(make([]byte, 1), 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("released handle still open (read error %v)", err)
	}

	for round := 1; round < 7; round++ {
		fill(round)
		// Hold a handle on the oldest raw segment across the pass, which
		// compacts (or quarantines) it and unlinks the file.
		victim := sh.sealed[tierRaw][0]
		held := capture(victim)
		want := readAll(t, held)
		if round == 2 {
			// Bytes past the index frame: scans never read them, but
			// compaction verifies the whole file and quarantines it.
			f, err := os.OpenFile(victim.path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("rot")); err != nil {
				t.Fatal(err)
			}
			f.Close()
			want = append(want, "rot"...)
		}
		before := refs()

		type result struct {
			shard int
			got   []SeriesChunk
			err   error
		}
		var (
			mu      sync.Mutex
			results []result
			scans   atomic.Int64
			stop    atomic.Bool
			wg      sync.WaitGroup
		)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; !stop.Load(); i++ {
					shard := i % len(s.shards)
					got, err := flatScan(s, shard)
					mu.Lock()
					results = append(results, result{shard, got, err})
					mu.Unlock()
					scans.Add(1)
				}
			}(w)
		}
		for scans.Load() < 8 {
			runtime.Gosched()
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("round %d: Compact: %v", round, err)
		}
		for n := scans.Load() + 8; scans.Load() < n; {
			runtime.Gosched()
		}
		stop.Store(true)
		wg.Wait()
		after := refs()

		for _, r := range results {
			if r.err != nil {
				t.Fatalf("round %d: scan of shard %d: %v", round, r.shard, r.err)
			}
			if !reflect.DeepEqual(r.got, before[r.shard]) && !reflect.DeepEqual(r.got, after[r.shard]) {
				t.Fatalf("round %d: scan of shard %d matches neither reference", round, r.shard)
			}
		}
		if _, err := os.Stat(victim.path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("round %d: oldest raw segment still in place (%v)", round, err)
		}
		if got := readAll(t, held); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: handle on a removed segment reads different bytes", round)
		}
		held.release()
	}

	st := s.Stats()
	if st.Compactions == 0 || st.Dropped == 0 || st.Quarantined != 1 {
		t.Fatalf("passes did not compact, retain and quarantine: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if g := s.met.openFiles.Value(); g != 0 {
		t.Fatalf("open_files gauge %v after Close, want 0", g)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Logf("fd check skipped: %v", err)
		return
	}
	for _, e := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, dir) {
			t.Errorf("fd %s still open on %s after Close", e.Name(), target)
		}
	}
}
