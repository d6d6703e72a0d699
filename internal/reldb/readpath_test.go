package reldb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gostats/internal/core"
)

// ---- QueryOrdered edge cases ----

func TestQueryOrderedTieBreaking(t *testing.T) {
	db := New()
	// All rows share the same runtime; insertion order must survive the
	// sort (stable ordering).
	for i := 0; i < 6; i++ {
		db.Insert(row(fmt.Sprint(i), "u", "x", 600, 0.5, 0))
	}
	rows, err := db.QueryOrdered(QueryOpts{OrderBy: "runtime"})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.JobID != fmt.Sprint(i) {
			t.Fatalf("tie order broken at %d: %v", i, ids(rows))
		}
	}
	// Descending order with ties keeps insertion order too.
	rows, err = db.QueryOrdered(QueryOpts{OrderBy: "-runtime"})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.JobID != fmt.Sprint(i) {
			t.Fatalf("descending tie order broken at %d: %v", i, ids(rows))
		}
	}
}

func TestQueryOrderedDescending(t *testing.T) {
	db := seedDB(t)
	rows, err := db.QueryOrdered(QueryOpts{OrderBy: "-cpu_usage"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Metrics.CPUUsage > rows[i-1].Metrics.CPUUsage {
			t.Fatalf("not descending at %d: %v", i, ids(rows))
		}
	}
	if rows[0].JobID != "3" {
		t.Errorf("top cpu job = %s, want 3", rows[0].JobID)
	}
}

func TestQueryOrderedOffset(t *testing.T) {
	db := seedDB(t)
	// Offset within range composes with limit.
	rows, err := db.QueryOrdered(QueryOpts{OrderBy: "runtime", Offset: 1, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].JobID != "2" {
		t.Fatalf("offset window = %v", ids(rows))
	}
	// Offset exactly at the end and past the end both yield empty.
	for _, off := range []int{4, 5, 100} {
		rows, err = db.QueryOrdered(QueryOpts{OrderBy: "runtime", Offset: off})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("offset %d rows = %v", off, ids(rows))
		}
	}
}

// ---- Stats ----

func TestStatsSinglePass(t *testing.T) {
	db := seedDB(t)
	fs, err := db.Stats([]string{"runtime", "cpu_usage"}, F("exe", "wrf.exe"))
	if err != nil {
		t.Fatal(err)
	}
	rt := fs["runtime"]
	if rt.Count != 2 || rt.Min != 600 || rt.Max != 3600 || rt.Sum != 4200 {
		t.Errorf("runtime stats = %+v", rt)
	}
	if rt.Mean() != 2100 {
		t.Errorf("mean = %g", rt.Mean())
	}
	if len(rt.Values) != 2 || rt.Values[0] != 3600 || rt.Values[1] != 600 {
		t.Errorf("values = %v", rt.Values)
	}
	cpu := fs["cpu_usage"]
	if cpu.Count != 2 || cpu.Min != 0.67 || cpu.Max != 0.8 {
		t.Errorf("cpu stats = %+v", cpu)
	}
	// Stats must agree with the per-field projections.
	for _, field := range []string{"runtime", "cpu_usage"} {
		want, err := db.Values(field, F("exe", "wrf.exe"))
		if err != nil {
			t.Fatal(err)
		}
		got := fs[field].Values
		if len(got) != len(want) {
			t.Fatalf("%s projection length %d vs %d", field, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %g, want %g", field, i, got[i], want[i])
			}
		}
	}
}

func TestStatsEmptyAndErrors(t *testing.T) {
	db := seedDB(t)
	fs, err := db.Stats([]string{"runtime"}, F("user", "ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if fs["runtime"].Count != 0 || fs["runtime"].Mean() != 0 {
		t.Errorf("empty stats = %+v", fs["runtime"])
	}
	if _, err := db.Stats([]string{"bogus"}); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := db.Stats([]string{"exe"}); err == nil {
		t.Error("string field accepted")
	}
	if _, err := StatsRows(nil, "exe"); err == nil {
		t.Error("StatsRows string field accepted")
	}
}

func TestStatsRowsMatchesStats(t *testing.T) {
	db := seedDB(t)
	rows, err := db.Query(F("exe", "wrf.exe"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.Stats([]string{"runtime"}, F("exe", "wrf.exe"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := StatsRows(rows, "runtime")
	if err != nil {
		t.Fatal(err)
	}
	if a["runtime"].Sum != b["runtime"].Sum || a["runtime"].Count != b["runtime"].Count {
		t.Errorf("Stats %+v != StatsRows %+v", a["runtime"], b["runtime"])
	}
}

// ---- parallel scan correctness ----

// TestParallelScanMatchesSequential forces the table above the parallel
// threshold and checks the sharded scan returns the same rows, in the
// same order, as the per-row reference.
func TestParallelScanMatchesSequential(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(7))
	n := parallelScanMin + 1000
	for i := 0; i < n; i++ {
		db.Insert(row(fmt.Sprint(i), fmt.Sprintf("u%02d", rng.Intn(20)), "x",
			rng.Float64()*10000, rng.Float64(), rng.Float64()*1e6))
	}
	got, err := db.Query(F("runtime__gte", 5000.0), F("cpu_usage__lt", 0.25))
	if err != nil {
		t.Fatal(err)
	}
	var want []*JobRow
	for _, r := range db.All() {
		if r.RunTime() >= 5000 && r.Metrics.CPUUsage < 0.25 {
			want = append(want, r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("parallel scan %d rows, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row order diverges at %d: %s vs %s", i, got[i].JobID, want[i].JobID)
		}
	}
}

// ---- generation counter ----

func TestGeneration(t *testing.T) {
	db := New()
	g0 := db.Generation()
	db.Insert(row("1", "u", "x", 1, 0, 0))
	if db.Generation() == g0 {
		t.Error("generation unchanged by insert")
	}
	g1 := db.Generation()
	db.Insert(row("1", "u", "x", 2, 0, 0)) // replacement bumps too
	if db.Generation() == g1 {
		t.Error("generation unchanged by replacement")
	}
}

// ---- concurrent readers + writers ----

// TestConcurrentQueryInsert drives queries, aggregates and Stats from
// many goroutines while writers insert and replace rows. Run under -race
// this exercises the coherent snapshot of rows and columns each read
// takes.
func TestConcurrentQueryInsert(t *testing.T) {
	db := New()
	for i := 0; i < 500; i++ {
		db.Insert(row(fmt.Sprint(i), "u", "x", float64(i), 0.5, float64(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				id := fmt.Sprint(w*100000 + i%1000) // mix of fresh inserts and replacements
				db.Insert(&JobRow{
					JobID: id, User: "w", Exe: "y", Status: "COMPLETED",
					Nodes: 1, EndTime: float64(i),
					Metrics: core.Summary{CPUUsage: 0.5},
				})
			}
		}(w)
	}
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := db.Query(F("runtime__gte", 100.0), F("user", "u")); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Stats([]string{"runtime", "cpu_usage"}, F("exe", "x")); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.QueryOrdered(QueryOpts{OrderBy: "-endtime", Limit: 10}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Race the main goroutine's own queries against the churn too.
	for i := 0; i < 50; i++ {
		if _, err := db.Query(F("runtime__gte", 250.0)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
