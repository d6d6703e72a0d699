package tsdb

import (
	"testing"

	"gostats/internal/model"
	"gostats/internal/schema"
)

func put(db *DB, host, devtype, device, event string, points ...DataPoint) {
	for _, p := range points {
		db.Put(Tags{Host: host, DevType: devtype, Device: device, Event: event}, p.Time, p.Value)
	}
}

func TestPutAndExactQuery(t *testing.T) {
	db := New()
	put(db, "a", "mdc", "m0", "reqs", DataPoint{10, 100}, DataPoint{20, 200})
	res, err := db.Do(Query{Host: "a", DevType: "mdc", Device: "m0", Event: "reqs", Aggregate: Sum})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res[0].Points[0] != (DataPoint{10, 100}) || res[0].Points[1] != (DataPoint{20, 200}) {
		t.Errorf("points = %v", res[0].Points)
	}
	if db.NumSeries() != 1 {
		t.Errorf("series = %d", db.NumSeries())
	}
}

func TestOutOfOrderInsertSorted(t *testing.T) {
	db := New()
	put(db, "a", "cpu", "0", "user", DataPoint{30, 3}, DataPoint{10, 1}, DataPoint{20, 2})
	res, _ := db.Do(Query{Host: "a", Aggregate: Sum})
	times := []float64{}
	for _, p := range res[0].Points {
		times = append(times, p.Time)
	}
	if times[0] != 10 || times[1] != 20 || times[2] != 30 {
		t.Errorf("times = %v", times)
	}
}

func TestAggregateAcrossHosts(t *testing.T) {
	db := New()
	// Two hosts' metadata request rates at the same instants.
	put(db, "a", "mdc", "m0", "reqs", DataPoint{10, 100}, DataPoint{20, 200})
	put(db, "b", "mdc", "m0", "reqs", DataPoint{10, 50}, DataPoint{20, 70})
	// Sum across all hosts (wildcard host).
	res, err := db.Do(Query{DevType: "mdc", Event: "reqs", Aggregate: Sum})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("groups = %d", len(res))
	}
	if res[0].Points[0].Value != 150 || res[0].Points[1].Value != 270 {
		t.Errorf("summed = %v", res[0].Points)
	}
	// Average across hosts.
	res, _ = db.Do(Query{DevType: "mdc", Event: "reqs", Aggregate: Avg})
	if res[0].Points[0].Value != 75 {
		t.Errorf("avg = %v", res[0].Points)
	}
	// Max / Min.
	res, _ = db.Do(Query{DevType: "mdc", Event: "reqs", Aggregate: Max})
	if res[0].Points[1].Value != 200 {
		t.Errorf("max = %v", res[0].Points)
	}
	res, _ = db.Do(Query{DevType: "mdc", Event: "reqs", Aggregate: Min})
	if res[0].Points[1].Value != 70 {
		t.Errorf("min = %v", res[0].Points)
	}
}

func TestGroupByHost(t *testing.T) {
	db := New()
	put(db, "a", "mdc", "m0", "reqs", DataPoint{10, 100})
	put(db, "b", "mdc", "m0", "reqs", DataPoint{10, 50})
	res, err := db.Do(Query{DevType: "mdc", Event: "reqs", GroupBy: []string{"host"}, Aggregate: Sum})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("groups = %d", len(res))
	}
	if res[0].Group["host"] != "a" || res[1].Group["host"] != "b" {
		t.Errorf("groups = %+v", res)
	}
}

func TestGroupByUnknownTag(t *testing.T) {
	db := New()
	put(db, "a", "mdc", "m0", "reqs", DataPoint{10, 1})
	if _, err := db.Do(Query{GroupBy: []string{"color"}, Aggregate: Sum}); err == nil {
		t.Error("unknown group tag accepted")
	}
}

func TestTimeRange(t *testing.T) {
	db := New()
	put(db, "a", "cpu", "0", "user",
		DataPoint{10, 1}, DataPoint{20, 2}, DataPoint{30, 3}, DataPoint{40, 4})
	res, _ := db.Do(Query{Host: "a", Start: 15, End: 35, Aggregate: Sum})
	if len(res[0].Points) != 2 {
		t.Fatalf("points = %v", res[0].Points)
	}
	// Open-ended range.
	res, _ = db.Do(Query{Host: "a", Start: 25, Aggregate: Sum})
	if len(res[0].Points) != 2 {
		t.Fatalf("open-ended points = %v", res[0].Points)
	}
}

func TestDownsample(t *testing.T) {
	db := New()
	put(db, "a", "cpu", "0", "user",
		DataPoint{1, 10}, DataPoint{5, 20}, DataPoint{11, 30}, DataPoint{19, 50})
	res, _ := db.Do(Query{Host: "a", Downsample: 10, Aggregate: Avg})
	if len(res[0].Points) != 2 {
		t.Fatalf("buckets = %v", res[0].Points)
	}
	if res[0].Points[0] != (DataPoint{0, 15}) {
		t.Errorf("bucket 0 = %v", res[0].Points[0])
	}
	if res[0].Points[1] != (DataPoint{10, 40}) {
		t.Errorf("bucket 1 = %v", res[0].Points[1])
	}
}

func TestNoMatchesEmptyResult(t *testing.T) {
	db := New()
	put(db, "a", "cpu", "0", "user", DataPoint{1, 1})
	res, err := db.Do(Query{Host: "zzz", Aggregate: Sum})
	if err != nil || len(res) != 0 {
		t.Errorf("res = %+v, err = %v", res, err)
	}
}

func TestAggStrings(t *testing.T) {
	for a, want := range map[Agg]string{Sum: "sum", Avg: "avg", Max: "max", Min: "min"} {
		if a.String() != want {
			t.Errorf("%d = %q", a, a.String())
		}
	}
}

func TestIngesterRatesAndGauges(t *testing.T) {
	reg := schema.DefaultRegistry()
	db := New()
	ing := NewIngester(db, reg)

	mk := func(tm float64, mdcReqs uint64, memUsed uint64) model.Snapshot {
		return model.Snapshot{
			Time: tm, Host: "n1",
			Records: []model.Record{
				{Class: schema.ClassMDC, Instance: "m0", Values: []uint64{mdcReqs, 0}},
				{Class: schema.ClassMem, Instance: "0", Values: []uint64{32 << 30, memUsed, 0, 0, 0}},
			},
		}
	}
	ing.Ingest(mk(0, 0, 8<<30))
	ing.Ingest(mk(600, 600000, 12<<30))

	// Counter -> rate series (one point, from the delta).
	res, err := db.Do(Query{Host: "n1", DevType: "mdc", Event: "reqs", Aggregate: Sum})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 1 {
		t.Fatalf("rate series = %+v", res)
	}
	if res[0].Points[0].Value != 1000 {
		t.Errorf("rate = %g, want 1000", res[0].Points[0].Value)
	}
	// Gauge -> direct values (two points).
	res, _ = db.Do(Query{Host: "n1", DevType: "mem", Event: "MemUsed", Aggregate: Sum})
	if len(res[0].Points) != 2 {
		t.Fatalf("gauge series = %+v", res)
	}
	if res[0].Points[1].Value != float64(12<<30) {
		t.Errorf("gauge = %g", res[0].Points[1].Value)
	}
}

func TestIngesterClassFilter(t *testing.T) {
	reg := schema.DefaultRegistry()
	db := New()
	ing := NewIngester(db, reg)
	ing.Classes = map[schema.Class]bool{schema.ClassMDC: true}
	s := model.Snapshot{Time: 0, Host: "n1", Records: []model.Record{
		{Class: schema.ClassMDC, Instance: "m0", Values: []uint64{1, 1}},
		{Class: schema.ClassMem, Instance: "0", Values: []uint64{1, 1, 1, 1, 1}},
	}}
	ing.Ingest(s)
	if db.NumSeries() != 0 { // counters produce no point on first sample
		t.Errorf("series = %d", db.NumSeries())
	}
	s2 := s.Clone()
	s2.Time = 600
	s2.Records[0].Values = []uint64{601, 601}
	ing.Ingest(s2)
	// Only MDC series should exist.
	res, _ := db.Do(Query{DevType: "mem", Aggregate: Sum})
	if len(res) != 0 {
		t.Error("filtered class was ingested")
	}
	res, _ = db.Do(Query{DevType: "mdc", Event: "reqs", Aggregate: Sum})
	if len(res) != 1 {
		t.Error("allowed class missing")
	}
}

func TestIngesterSkipsMalformedRecords(t *testing.T) {
	reg := schema.DefaultRegistry()
	db := New()
	ing := NewIngester(db, reg)
	s := model.Snapshot{Time: 0, Host: "n1", Records: []model.Record{
		{Class: "unknownclass", Instance: "x", Values: []uint64{1}},
		{Class: schema.ClassMDC, Instance: "m0", Values: []uint64{1}}, // wrong arity
	}}
	ing.Ingest(s) // must not panic
	if db.NumSeries() != 0 {
		t.Errorf("series = %d", db.NumSeries())
	}
}

// The §VI-A scenario: one user's metadata storm vs other users' MDC wait
// times, correlated through tag aggregation.
func TestInterferenceScenario(t *testing.T) {
	db := New()
	// Storm host: huge request rates from t=100.
	put(db, "storm", "mdc", "m0", "reqs",
		DataPoint{0, 10}, DataPoint{100, 300000}, DataPoint{200, 300000})
	// Victim hosts: wait times rise when the storm begins.
	for _, h := range []string{"v1", "v2"} {
		put(db, h, "mdc", "m0", "wait",
			DataPoint{0, 80}, DataPoint{100, 4000}, DataPoint{200, 4500})
	}
	reqs, err := db.Do(Query{Host: "storm", Event: "reqs", Aggregate: Sum})
	if err != nil {
		t.Fatal(err)
	}
	waits, err := db.Do(Query{Event: "wait", Aggregate: Avg})
	if err != nil {
		t.Fatal(err)
	}
	// The victim wait at the storm onset must exceed the pre-storm wait
	// by a large factor, visible through the aggregated series.
	if waits[0].Points[0].Value >= waits[0].Points[1].Value/10 {
		t.Errorf("wait did not spike: %v", waits[0].Points)
	}
	if reqs[0].Points[1].Value < 100000 {
		t.Errorf("storm rate = %v", reqs[0].Points)
	}
}
