package tsdb

import (
	"fmt"
	"math"
	"testing"

	"gostats/internal/segstore"
	"gostats/internal/telemetry"
)

// coldFixture ingests one deterministic day of samples into both a
// pure-RAM reference DB and a cold-attached DB, driving eviction and
// compaction hard enough that most of the day lives only on disk.
// midAfter controls when 10-minute segments compact into hourly ones —
// pass a huge value to keep the whole day at ≤10-minute resolution.
// Raw segments of segBytes compact after half the hot window, so the
// compaction age alone would let a bucket reach past the boundary.
func coldFixture(t *testing.T, dir string, midAfter float64, segBytes int64) (ref, db *DB, cs *segstore.Store) {
	t.Helper()
	ref = New()
	db = New()
	var err error
	cs, err = segstore.Open(dir, segstore.Options{
		Shards:          32,
		SegmentBytes:    segBytes,
		CompactRawAfter: 1800,
		CompactMidAfter: midAfter,
		Metrics:         telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("segstore.Open: %v", err)
	}
	if err := db.AttachCold(cs, 3600); err != nil {
		t.Fatalf("AttachCold: %v", err)
	}
	hosts := []string{"c401-101", "c401-102", "c402-101", "c402-102", "c403-101"}
	events := []struct{ dev, ev string }{{"cpu0", "user"}, {"cpu0", "system"}, {"cpu1", "user"}}
	i := 0
	for ti := 0.0; ti < 86400; ti += 60 {
		for hi, h := range hosts {
			for ei, e := range events {
				v := math.Sin(ti/900+float64(hi)) + float64(ei) + 2
				tags := Tags{Host: h, DevType: "cpu", Device: e.dev, Event: e.ev}
				ref.Put(tags, ti, v)
				db.Put(tags, ti, v)
			}
		}
		i++
		if i%10 == 0 {
			if err := db.CommitCold(); err != nil {
				t.Fatalf("CommitCold: %v", err)
			}
		}
		if i%360 == 0 {
			if err := cs.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}
	if err := db.CommitCold(); err != nil {
		t.Fatalf("final CommitCold: %v", err)
	}
	return ref, db, cs
}

// equivalenceQueries are bucket-aligned so the on-disk tiers can answer
// them exactly (a downsampled tier cannot split its own bucket; a query
// is exact when its downsample width is a multiple of the coarsest tier
// holding data in its window). minDS is the coarsest tier resolution in
// play: 600 when the store holds raw + 10-minute tiers, 3600 once
// hourly segments exist.
func equivalenceQueries(minDS float64) []Query {
	qs := []Query{
		{Aggregate: Sum, Downsample: 3600},
		{Aggregate: Max, Downsample: 3600},
		{Aggregate: Min, Downsample: 3600, GroupBy: []string{"device"}},
		{Event: "user", Aggregate: Avg, Downsample: 3600, GroupBy: []string{"host", "device"}},
	}
	if minDS <= 600 {
		qs = append(qs,
			Query{Aggregate: Sum, Downsample: 600},
			Query{Aggregate: Avg, Downsample: 600, GroupBy: []string{"host"}},
			Query{Host: "c402-101", Aggregate: Sum, Downsample: 600},
			Query{Start: 7200, End: 35940, Aggregate: Sum, Downsample: 600},
			Query{Start: 7200, End: 35940, Aggregate: Max, Downsample: 600, GroupBy: []string{"event"}},
		)
	}
	return qs
}

func assertSameResults(t *testing.T, label string, q Query, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s %+v: %d groups vs %d", label, q, len(want), len(got))
	}
	for gi := range want {
		w, g := want[gi], got[gi]
		for k, v := range w.Group {
			if g.Group[k] != v {
				t.Fatalf("%s %+v: group %d key %s: %q vs %q", label, q, gi, k, v, g.Group[k])
			}
		}
		if len(w.Points) != len(g.Points) {
			t.Fatalf("%s %+v group %d: %d points vs %d", label, q, gi, len(w.Points), len(g.Points))
		}
		for pi := range w.Points {
			wp, gp := w.Points[pi], g.Points[pi]
			if wp.Time != gp.Time {
				t.Fatalf("%s %+v group %d point %d: time %g vs %g", label, q, gi, pi, wp.Time, gp.Time)
			}
			tol := 1e-9 * math.Max(1, math.Abs(wp.Value))
			if math.Abs(wp.Value-gp.Value) > tol {
				t.Fatalf("%s %+v group %d point %d (t=%g): value %g vs %g",
					label, q, gi, pi, wp.Time, wp.Value, gp.Value)
			}
		}
	}
}

func TestColdHotQueryEquivalence(t *testing.T) {
	// Keep the whole day at ≤10-minute resolution so 600s-downsample
	// queries are exact; the hourly tier gets its own test below.
	dir := t.TempDir()
	ref, db, cs := coldFixture(t, dir, 1e9, 8<<10)

	// Eviction must actually have moved data out of RAM — otherwise the
	// test only exercises the hot path twice.
	evicted := false
	for i := range db.shards {
		db.shards[i].mu.RLock()
		if db.shards[i].coldBoundary > 0 {
			evicted = true
		}
		db.shards[i].mu.RUnlock()
	}
	if !evicted {
		t.Fatal("no shard ever advanced its cold boundary")
	}
	st := cs.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compactions ran; fixture does not cover the tiered path")
	}

	for _, q := range equivalenceQueries(600) {
		want, err := ref.Do(q)
		if err != nil {
			t.Fatalf("ref.Do(%+v): %v", q, err)
		}
		got, err := db.Do(q)
		if err != nil {
			t.Fatalf("db.Do(%+v): %v", q, err)
		}
		assertSameResults(t, "live", q, want, got)
	}

	// Restart: reopen the store under a fresh empty DB. Everything is
	// cold now; the same queries must still match the RAM reference.
	if err := db.Cold().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cs2, err := segstore.Open(dir, segstore.Options{Shards: 32, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer cs2.Close()
	db2 := New()
	if err := db2.AttachCold(cs2, 3600); err != nil {
		t.Fatalf("AttachCold: %v", err)
	}
	for _, q := range equivalenceQueries(600) {
		want, err := ref.Do(q)
		if err != nil {
			t.Fatalf("ref.Do(%+v): %v", q, err)
		}
		got, err := db2.Do(q)
		if err != nil {
			t.Fatalf("db2.Do(%+v): %v", q, err)
		}
		assertSameResults(t, "restart", q, want, got)
	}
}

// TestCompactionStaysBelowColdBoundary sweeps the segment size, which
// decides which raw segments are old enough to compact when: at none of
// them may a 10-minute bucket below the cold boundary absorb a point RAM
// also serves, which would count it twice in every query over it.
func TestCompactionStaysBelowColdBoundary(t *testing.T) {
	for _, kb := range []int64{2, 4, 8, 16} {
		ref, db, cs := coldFixture(t, t.TempDir(), 1e9, kb<<10)
		if cs.Stats().Compactions == 0 {
			t.Fatalf("%d KiB segments: no compactions ran", kb)
		}
		for _, q := range equivalenceQueries(600) {
			want, err := ref.Do(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Do(q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fmt.Sprintf("%d KiB segments", kb), q, want, got)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestColdHourlyTierEquivalence compacts most of the day into the
// hourly tier and checks hour-aligned queries stay exact across the
// raw/10m/1h mix.
func TestColdHourlyTierEquivalence(t *testing.T) {
	dir := t.TempDir()
	ref, db, cs := coldFixture(t, dir, 4*3600, 8<<10)
	st := cs.Stats()
	if st.TierSegments[2] == 0 {
		t.Fatal("fixture produced no hourly segments")
	}
	for _, q := range equivalenceQueries(3600) {
		want, err := ref.Do(q)
		if err != nil {
			t.Fatalf("ref.Do(%+v): %v", q, err)
		}
		got, err := db.Do(q)
		if err != nil {
			t.Fatalf("db.Do(%+v): %v", q, err)
		}
		assertSameResults(t, "hourly", q, want, got)
	}
	db.Cold().Close()
}

func TestColdEvictionBoundsRAM(t *testing.T) {
	dir := t.TempDir()
	_, db, _ := coldFixture(t, dir, 4*3600, 8<<10)
	// With a 1h hot window over a 24h ingest, RAM must hold only a small
	// tail of each series.
	maxPts, maxRows := 0, 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			if n := len(s.hotPoints(0, 0)); n > maxPts {
				maxPts = n
			}
		}
		// Evicted rows stay in a host's buffers until an append moves
		// the live rows down; what the buffers hold must stay bounded
		// too, not just the live rows.
		for _, hr := range sh.hosts {
			if n := len(hr.times); n > maxRows {
				maxRows = n
			}
			if len(hr.vals) != len(hr.times)*hr.stride || len(hr.has) != len(hr.times)*hr.words {
				t.Fatalf("host rows out of shape: %d times, %d vals at stride %d, %d presence words at %d per row",
					len(hr.times), len(hr.vals), hr.stride, len(hr.has), hr.words)
			}
		}
		sh.mu.RUnlock()
	}
	// 1h of 60s samples = 60 points; the boundary advances in quarter-
	// window steps, so allow up to ~1.25 windows.
	if maxPts == 0 || maxPts > 80 {
		t.Fatalf("RAM series holds %d points; eviction is not bounding the hot set", maxPts)
	}
	if maxRows > 2*80 {
		t.Fatalf("a host's row buffers hold %d rows; evicted rows are not being reused", maxRows)
	}
	db.Cold().Close()
}

func TestAttachColdShardMismatch(t *testing.T) {
	cs, err := segstore.Open(t.TempDir(), segstore.Options{Shards: 4, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if err := New().AttachCold(cs, 3600); err == nil {
		t.Fatal("AttachCold accepted a mismatched shard count")
	}
}
