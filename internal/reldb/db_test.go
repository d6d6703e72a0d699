package reldb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gostats/internal/core"
)

func row(id, user, exe string, runtime, cpu, mdr float64) *JobRow {
	return &JobRow{
		JobID: id, User: user, Exe: exe, Queue: "normal", Status: "COMPLETED",
		Nodes: 4, Wayness: 16,
		SubmitTime: 0, StartTime: 100, EndTime: 100 + runtime,
		Metrics: core.Summary{CPUUsage: cpu, MetaDataRate: mdr, VecPercent: 0.3},
	}
}

func seedDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.Insert(
		row("1", "u1", "wrf.exe", 3600, 0.8, 1000),
		row("2", "u1", "wrf.exe", 600, 0.67, 500000),
		row("3", "u2", "namd2", 7200, 0.95, 10),
		row("4", "u3", "a.out", 120, 0.4, 0),
	)
	return db
}

func TestInsertGetAndReplace(t *testing.T) {
	db := seedDB(t)
	if db.Len() != 4 {
		t.Fatalf("len = %d", db.Len())
	}
	if db.Get("3").Exe != "namd2" {
		t.Errorf("get(3) = %+v", db.Get("3"))
	}
	if db.Get("nope") != nil {
		t.Error("missing id returned row")
	}
	// Replace by id keeps table size constant.
	db.Insert(row("3", "u2", "namd2.new", 7200, 0.9, 10))
	if db.Len() != 4 {
		t.Errorf("len after replace = %d", db.Len())
	}
	if db.Get("3").Exe != "namd2.new" {
		t.Error("replace did not take effect")
	}
}

func TestDerivedFields(t *testing.T) {
	r := row("9", "u", "x", 3600, 0.5, 0)
	if r.RunTime() != 3600 || r.WaitTime() != 100 {
		t.Errorf("runtime/wait = %g/%g", r.RunTime(), r.WaitTime())
	}
	if r.NodeHours() != 4 {
		t.Errorf("nodehours = %g", r.NodeHours())
	}
}

func TestQueryExactAndRange(t *testing.T) {
	db := seedDB(t)
	rows, err := db.Query(Filter{"exe", "wrf.exe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("wrf rows = %d", len(rows))
	}
	// The portal's canonical query: wrf.exe over 10 minutes runtime.
	rows, err = db.Query(Filter{"exe", "wrf.exe"}, Filter{"runtime__gte", 600.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("wrf>=600s rows = %d", len(rows))
	}
	rows, err = db.Query(Filter{"exe", "wrf.exe"}, Filter{"runtime__gt", 600.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].JobID != "1" {
		t.Fatalf("wrf>600s rows = %v", ids(rows))
	}
	rows, err = db.Query(Filter{"cpu_usage__lt", 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].JobID != "4" {
		t.Fatalf("low cpu rows = %v", ids(rows))
	}
	rows, err = db.Query(Filter{"cpu_usage__lte", 0.67})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("lte rows = %v", ids(rows))
	}
}

func ids(rows []*JobRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.JobID
	}
	return out
}

func TestQueryStringOps(t *testing.T) {
	db := seedDB(t)
	rows, err := db.Query(Filter{"exe__contains", "wrf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("contains rows = %d", len(rows))
	}
	rows, err = db.Query(Filter{"exe__icontains", "WRF"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("icontains rows = %d", len(rows))
	}
	if _, err := db.Query(Filter{"exe__gte", "wrf"}); err == nil {
		t.Error("range op on string field accepted")
	}
	if _, err := db.Query(Filter{"cpu_usage__contains", 0.5}); err == nil {
		t.Error("contains on numeric field accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	db := seedDB(t)
	if _, err := db.Query(Filter{"bogus", "x"}); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := db.Query(Filter{"exe", 42}); err == nil {
		t.Error("int operand for string field accepted")
	}
	if _, err := db.Query(Filter{"runtime__gte", "soon"}); err == nil {
		t.Error("string operand for numeric field accepted")
	}
	if _, err := db.Query(Filter{"runtime__almost", 1.0}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestAggregates(t *testing.T) {
	db := seedDB(t)
	avg, err := db.Avg("cpu_usage", Filter{"exe", "wrf.exe"})
	if err != nil {
		t.Fatal(err)
	}
	want := (0.8 + 0.67) / 2
	if diff := avg - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("avg = %g, want %g", avg, want)
	}
	n, err := db.Count(Filter{"user", "u1"})
	if err != nil || n != 2 {
		t.Errorf("count = %d, %v", n, err)
	}
	// Empty selection.
	avg, err = db.Avg("cpu_usage", Filter{"user", "ghost"})
	if err != nil || avg != 0 {
		t.Errorf("empty avg = %g, %v", avg, err)
	}
	if _, err := db.Avg("exe"); err == nil {
		t.Error("avg over string field accepted")
	}
}

// TestAvgIsInsertionOrderIndependent pins Avg's fold order: one row
// set inserted forwards and backwards gives one mean, bit for bit. The
// values carry fractions across several magnitudes, so summing in
// insertion order gives two different means.
func TestAvgIsInsertionOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([]*JobRow, 200)
	for i := range rows {
		rows[i] = &JobRow{JobID: fmt.Sprintf("%04d", i), Exe: "wrf.exe"}
		rows[i].Metrics.CPUUsage = rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	fwd, back := New(), New()
	for i := range rows {
		fwd.Insert(rows[i])
		back.Insert(rows[len(rows)-1-i])
	}
	for _, filters := range [][]Filter{nil, {F("exe", "wrf.exe")}} {
		a, err := fwd.Avg("cpu_usage", filters...)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Avg("cpu_usage", filters...)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("filters %v: Avg %v inserted forwards, %v backwards", filters, a, b)
		}
	}
}

// TestStatsIsInsertionOrderIndependent pins Stats' and StatsRows' Sum
// (and so Mean) to Avg's job-id fold order, bit for bit, over the same
// 200 fractional rows inserted forwards and backwards; Values stays in
// result order.
func TestStatsIsInsertionOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([]*JobRow, 200)
	for i := range rows {
		rows[i] = &JobRow{JobID: fmt.Sprintf("%04d", i), Exe: "wrf.exe"}
		rows[i].Metrics.CPUUsage = rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	fwd, back := New(), New()
	for i := range rows {
		fwd.Insert(rows[i])
		back.Insert(rows[len(rows)-1-i])
	}
	avg, err := fwd.Avg("cpu_usage")
	if err != nil {
		t.Fatal(err)
	}
	for _, filters := range [][]Filter{nil, {F("exe", "wrf.exe")}} {
		var means []float64
		for _, db := range []*DB{fwd, back} {
			st, err := db.Stats([]string{"cpu_usage"}, filters...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(filters...)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := StatsRows(res, "cpu_usage")
			if err != nil {
				t.Fatal(err)
			}
			for _, fs := range []*FieldStats{st["cpu_usage"], sr["cpu_usage"]} {
				for i, r := range res {
					if fs.Values[i] != r.Metrics.CPUUsage {
						t.Fatalf("Values[%d] = %v, result row %s has %v", i, fs.Values[i], r.JobID, r.Metrics.CPUUsage)
					}
				}
				means = append(means, fs.Mean())
			}
		}
		for _, m := range means {
			if math.Float64bits(m) != math.Float64bits(avg) {
				t.Fatalf("filters %v: means %v, Avg %v", filters, means, avg)
			}
		}
	}
}

func TestValuesProjection(t *testing.T) {
	db := seedDB(t)
	vs, err := db.Values("runtime", Filter{"exe", "wrf.exe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0] != 3600 || vs[1] != 600 {
		t.Errorf("values = %v", vs)
	}
}

// TestIndexStaysFreshAfterInsert: a query after Insert must see the new
// row, not a column projection cached at the previous generation.
func TestIndexStaysFreshAfterInsert(t *testing.T) {
	db := seedDB(t)
	pre, _ := db.Query(Filter{"runtime__gte", 3000.0})
	db.Insert(row("99", "u9", "big", 9000, 0.9, 0))
	post, err := db.Query(Filter{"runtime__gte", 3000.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(post) != len(pre)+1 {
		t.Errorf("query stale: pre %d, post %d", len(pre), len(post))
	}
}

func TestFieldsListing(t *testing.T) {
	nums := NumericFields()
	for _, n := range []string{"metadatarate", "cpu_usage", "vecpercent", "mic_usage", "idle", "catastrophe"} {
		found := false
		for _, f := range nums {
			if f == n {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("numeric field %q missing", n)
		}
	}
	if _, err := Value(row("1", "u", "x", 1, 0, 0), "exe"); err == nil {
		t.Error("Value on string field accepted")
	}
	if _, err := Value(row("1", "u", "x", 1, 0, 0), "nope"); err == nil {
		t.Error("Value on unknown field accepted")
	}
}

func TestQueryOrdered(t *testing.T) {
	db := seedDB(t)
	rows, err := db.QueryOrdered(QueryOpts{OrderBy: "runtime"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].RunTime() < rows[i-1].RunTime() {
			t.Fatalf("not ascending at %d", i)
		}
	}
	rows, err = db.QueryOrdered(QueryOpts{OrderBy: "-runtime", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].RunTime() < rows[1].RunTime() {
		t.Fatalf("descending+limit wrong: %v", ids(rows))
	}
	if rows[0].JobID != "3" {
		t.Errorf("longest job = %s, want 3", rows[0].JobID)
	}
	// Ordering composes with filters.
	rows, err = db.QueryOrdered(QueryOpts{OrderBy: "cpu_usage"}, F("exe", "wrf.exe"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Metrics.CPUUsage > rows[1].Metrics.CPUUsage {
		t.Errorf("filtered order wrong: %v", ids(rows))
	}
	// Errors.
	if _, err := db.QueryOrdered(QueryOpts{OrderBy: "exe"}); err == nil {
		t.Error("order by string field accepted")
	}
	if _, err := db.QueryOrdered(QueryOpts{OrderBy: "bogus"}); err == nil {
		t.Error("order by unknown field accepted")
	}
}
