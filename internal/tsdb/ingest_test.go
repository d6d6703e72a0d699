package tsdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"gostats/internal/model"
	"gostats/internal/schema"
	"gostats/internal/segstore"
	"gostats/internal/telemetry"
)

// refIngester is the per-point ingest algorithm: one Put per point, the
// previous snapshot kept whole and indexed by (class, instance) for
// every delta. It is the reference the row ingester must match point
// for point and byte for byte.
type refIngester struct {
	db      *DB
	reg     *schema.Registry
	prev    map[string]model.Snapshot
	Classes map[schema.Class]bool
}

func (ing *refIngester) Ingest(s model.Snapshot) error {
	prev, havePrev := ing.prev[s.Host]
	dt := 0.0
	var prevVals map[schema.Class]map[string][]uint64
	if havePrev {
		dt = s.Time - prev.Time
		prevVals = make(map[schema.Class]map[string][]uint64)
		for _, r := range prev.Records {
			m := prevVals[r.Class]
			if m == nil {
				m = make(map[string][]uint64)
				prevVals[r.Class] = m
			}
			m[r.Instance] = r.Values
		}
	}
	for _, r := range s.Records {
		if ing.Classes != nil && !ing.Classes[r.Class] {
			continue
		}
		sch := ing.reg.Get(r.Class)
		if sch == nil || len(r.Values) != sch.Len() {
			continue
		}
		for i, def := range sch.Events {
			tags := Tags{Host: s.Host, DevType: string(r.Class), Device: r.Instance, Event: def.Name}
			if def.Kind == schema.Gauge {
				ing.db.Put(tags, s.Time, float64(r.Values[i]))
				continue
			}
			if !havePrev || dt <= 0 {
				continue
			}
			pv, ok := prevVals[r.Class][r.Instance]
			if !ok || len(pv) != len(r.Values) {
				continue
			}
			delta := schema.RolloverDelta(pv[i], r.Values[i], def)
			ing.db.Put(tags, s.Time, float64(delta)/dt)
		}
	}
	ing.prev[s.Host] = s.Clone()
	return ing.db.CommitCold()
}

// diffRegistry mixes unbounded counters (cpu), 48-bit (pmc) and 32-bit
// (rapl) registers, gauges (mem) and a two-event class (mdc).
func diffRegistry(t *testing.T) *schema.Registry {
	t.Helper()
	reg, err := schema.NewRegistry(schema.CPUSchema(), schema.PMCSchema(), schema.RAPLSchema(),
		schema.MemSchema(), schema.MDCSchema())
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// diffStream generates a seeded snapshot stream over three hosts that
// exercises every branch of the delta logic: the first host's record
// layout gains a device, loses one, is reordered, carries a duplicate
// record and swaps two devices of one class; the second host sends a record with the wrong value
// count and one of an unknown class; every host repeats and rewinds
// timestamps now and then; and the pmc (48-bit) and rapl (32-bit)
// counters start just below their wrap point, so they roll over.
func diffStream(reg *schema.Registry, seed int64, steps int) []model.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	type key struct{ host, class, inst string }
	counters := make(map[key][]uint64)
	values := func(host string, class schema.Class, inst string) []uint64 {
		sch := reg.Get(class)
		k := key{host, string(class), inst}
		v := counters[k]
		if v == nil {
			v = make([]uint64, sch.Len())
			for i, def := range sch.Events {
				switch {
				case def.Kind == schema.Gauge:
				case def.Width != 0:
					v[i] = (uint64(1) << def.Width) - uint64(rng.Intn(1<<20))
				default:
					v[i] = uint64(rng.Intn(1 << 30))
				}
			}
			counters[k] = v
		}
		for i, def := range sch.Events {
			switch {
			case def.Kind == schema.Gauge:
				v[i] = uint64(rng.Intn(1 << 40))
			case def.Width != 0:
				v[i] = (v[i] + uint64(rng.Intn(1<<22))) & (uint64(1)<<def.Width - 1)
			default:
				v[i] += uint64(rng.Intn(1 << 24))
			}
		}
		return append([]uint64(nil), v...)
	}
	type rec struct {
		class schema.Class
		inst  string
	}
	base := []rec{
		{schema.ClassCPU, "0"}, {schema.ClassCPU, "1"}, {schema.ClassPMC, "0"}, {schema.ClassPMC, "1"},
		{schema.ClassRAPL, "0"}, {schema.ClassMem, "0"}, {schema.ClassMDC, "scratch-MDT0000"},
	}
	hosts := []string{"c401-101", "c401-102", "c402-101"}
	clock := map[string]float64{}
	var out []model.Snapshot
	for step := 0; step < steps; step++ {
		for hi, host := range hosts {
			layout := append([]rec(nil), base...)
			if hi == 0 {
				switch {
				case step >= 10 && step < 20: // a device appears
					layout = append(layout, rec{schema.ClassCPU, "2"})
				case step >= 20 && step < 30: // and one disappears
					layout = append(layout[:1], layout[2:]...)
				case step >= 30 && step < 40: // the records are reordered
					for i, j := 0, len(layout)-1; i < j; i, j = i+1, j-1 {
						layout[i], layout[j] = layout[j], layout[i]
					}
				case step >= 40 && step < 45: // a duplicate record
					layout = append(layout, rec{schema.ClassPMC, "0"})
				case step >= 45 && step < 50: // same classes, instances swapped
					layout[0], layout[1] = layout[1], layout[0]
				}
			}
			switch r := rng.Intn(10); {
			case r == 0 && step > 0: // repeated timestamp: dt == 0
			case r == 1 && step > 0: // backwards timestamp: dt < 0
				clock[host] -= 300
			default:
				clock[host] += 600
			}
			s := model.Snapshot{Time: clock[host], Host: host}
			for _, l := range layout {
				s.Records = append(s.Records, model.Record{Class: l.class, Instance: l.inst, Values: values(host, l.class, l.inst)})
			}
			if hi == 1 && step%7 == 3 {
				s.Records[len(s.Records)-1].Values = s.Records[len(s.Records)-1].Values[:1] // wrong count
				s.Records = append(s.Records, model.Record{Class: "unknownclass", Instance: "x", Values: []uint64{1}})
			}
			out = append(out, s)
		}
	}
	return out
}

// coldDiffDB opens a DB backed by a segment store small enough that the
// stream seals many segments and evicts most of its RAM.
func coldDiffDB(t *testing.T, dir string) (*DB, *segstore.Store, *telemetry.Registry) {
	t.Helper()
	met := telemetry.NewRegistry()
	cs, err := segstore.Open(dir, segstore.Options{
		SegmentBytes: 4 << 10, FlushBytes: 1 << 10,
		CompactRawAfter: -1, CompactMidAfter: -1, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := New()
	if err := db.AttachCold(cs, 3*3600); err != nil {
		t.Fatal(err)
	}
	return db, cs, met
}

// readTree maps every file under dir (relative path) to its bytes.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRowIngestMatchesPerPointReference runs the per-point reference
// and the row ingester over one seeded stream: every query answer, the
// sealed segment files and the appended-points counter must be
// identical.
func TestRowIngestMatchesPerPointReference(t *testing.T) {
	reg := diffRegistry(t)
	for _, tc := range []struct {
		name    string
		classes map[schema.Class]bool
	}{
		{"all-classes", nil},
		{"filtered", map[schema.Class]bool{schema.ClassCPU: true, schema.ClassPMC: true, schema.ClassRAPL: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			refDB, refCS, refMet := coldDiffDB(t, filepath.Join(base, "ref"))
			rowDB, rowCS, rowMet := coldDiffDB(t, filepath.Join(base, "row"))
			ref := &refIngester{db: refDB, reg: reg, prev: make(map[string]model.Snapshot), Classes: tc.classes}
			row := NewIngester(rowDB, reg)
			row.Classes = tc.classes
			for _, s := range diffStream(reg, 7, 60) {
				if err := ref.Ingest(s); err != nil {
					t.Fatalf("reference ingest: %v", err)
				}
				if err := row.Ingest(s); err != nil {
					t.Fatalf("row ingest: %v", err)
				}
			}
			if rowDB.NumSeries() == 0 || rowDB.NumSeries() != refDB.NumSeries() {
				t.Fatalf("series: row %d, reference %d", rowDB.NumSeries(), refDB.NumSeries())
			}
			all := []string{"host", "devtype", "device", "event"}
			queries := []Query{
				{GroupBy: all, Aggregate: Sum},
				{GroupBy: []string{"host", "devtype"}, Aggregate: Max, Downsample: 1800},
				{DevType: "pmc", GroupBy: []string{"device", "event"}, Aggregate: Avg},
				{Host: "c401-101", DevType: "cpu", GroupBy: []string{"device"}, Aggregate: Min},
			}
			for _, q := range queries {
				want, err := refDB.Do(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rowDB.Do(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("Do(%+v): row ingest differs from the reference (%d vs %d groups)", q, len(got), len(want))
				}
				for _, bottom := range []bool{false, true} {
					wantTop, _ := refDB.TopN(q, 5, bottom)
					gotTop, _ := rowDB.TopN(q, 5, bottom)
					if !reflect.DeepEqual(gotTop, wantTop) {
						t.Fatalf("TopN(%+v, bottom=%v): %v, want %v", q, bottom, gotTop, wantTop)
					}
				}
			}
			if got, want := rowDB.Latest(Query{}), refDB.Latest(Query{}); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("Latest differs: %d vs %d gauges", len(got), len(want))
			}

			if err := refCS.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := rowCS.Seal(); err != nil {
				t.Fatal(err)
			}
			wantFiles, gotFiles := readTree(t, filepath.Join(base, "ref")), readTree(t, filepath.Join(base, "row"))
			if len(wantFiles) < 3 || len(gotFiles) != len(wantFiles) {
				t.Fatalf("segment files: row %d, reference %d", len(gotFiles), len(wantFiles))
			}
			for name, want := range wantFiles {
				if !bytes.Equal(gotFiles[name], want) {
					t.Fatalf("%s: row ingest wrote different bytes (%d vs %d)", name, len(gotFiles[name]), len(want))
				}
			}
			const appended = "gostats_segstore_appended_total"
			if got, want := rowMet.Counter(appended, "").Value(), refMet.Counter(appended, "").Value(); got != want || want == 0 {
				t.Fatalf("%s: row %d, reference %d", appended, got, want)
			}
		})
	}
}

// TestRowIngestConcurrentReaders ingests rows for several hosts, each
// from its own Ingester, while readers run Do, TopN and Latest over the
// same stripes; under -race this audits the row path's locking. The
// final answers must match a reference fed the same stream serially.
func TestRowIngestConcurrentReaders(t *testing.T) {
	reg := diffRegistry(t)
	stream := diffStream(reg, 11, 40)
	db, cs, _ := coldDiffDB(t, t.TempDir())
	defer cs.Close()
	ref := New()
	refIng := &refIngester{db: ref, reg: reg, prev: make(map[string]model.Snapshot)}
	byHost := make(map[string][]model.Snapshot)
	for _, s := range stream {
		byHost[s.Host] = append(byHost[s.Host], s)
		if err := refIng.Ingest(s); err != nil {
			t.Fatal(err)
		}
	}

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for _, snaps := range byHost {
		writers.Add(1)
		go func(snaps []model.Snapshot) {
			defer writers.Done()
			ing := NewIngester(db, reg)
			for _, s := range snaps {
				if err := ing.Ingest(s); err != nil {
					t.Error(err)
					return
				}
			}
		}(snaps)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				host := fmt.Sprintf("c40%d-101", 1+i%2)
				if _, err := db.Do(Query{Host: host, GroupBy: []string{"devtype"}, Aggregate: Avg, Downsample: 600}); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.TopN(Query{DevType: "cpu", GroupBy: []string{"host"}, Aggregate: Sum}, 2, r%2 == 0); err != nil {
					t.Error(err)
					return
				}
				db.Latest(Query{Event: "MemUsed"})
			}
		}(r)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	q := Query{GroupBy: []string{"host", "devtype", "device", "event"}, Aggregate: Sum}
	want, err := ref.Do(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Do(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent row ingest differs from the serial reference (%d vs %d groups)", len(got), len(want))
	}
}
