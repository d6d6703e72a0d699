// Root benchmark harness: one benchmark per paper table/figure (the E*
// ids of DESIGN.md §4), plus ablation benchmarks for the design choices
// DESIGN.md §6 calls out. Run with:
//
//	go test -bench=. -benchmem .
package gostats

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gostats/internal/analysis"
	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/codec"
	"gostats/internal/collect"
	"gostats/internal/core"
	"gostats/internal/etl"
	"gostats/internal/experiments"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/portal"
	"gostats/internal/preload"
	"gostats/internal/rawfile"
	"gostats/internal/realtime"
	"gostats/internal/reldb"
	"gostats/internal/schema"
	"gostats/internal/segstore"
	"gostats/internal/telemetry"
	"gostats/internal/tsdb"
	"gostats/internal/workload"
)

// ---- shared fixtures (built once, reused across benchmarks) ----

var fixOnce sync.Once
var fix struct {
	cfg     chip.NodeConfig
	reg     *schema.Registry
	run     *cluster.JobRun // reference 4-node job
	fleetDB *reldb.DB       // 250-job population
	wrfDB   *reldb.DB       // WRF window population
	tsdb    *tsdb.DB
}

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fix.cfg = chip.StampedeNode()
		fix.reg = fix.cfg.Registry()
		spec := workload.Spec{
			JobID: "bench-ref", User: "u001", Exe: "wrf.exe", Queue: "normal",
			Nodes: 4, Wayness: 16, Runtime: 4 * 3600,
			Status: workload.StatusCompleted,
			Model:  workload.Steady{Label: "wrf", P: workload.WRFProfile("u001")},
		}
		run, err := cluster.RunJob(spec, fix.cfg, 600, 1)
		if err != nil {
			panic(err)
		}
		fix.run = run

		fleet := workload.GenerateFleet(workload.FleetOpts{Seed: 3, Jobs: 250, SpanSec: 90 * 86400})
		db, _, err := etl.RunFleetMixed(fleet, 600, 3, 0)
		if err != nil {
			panic(err)
		}
		fix.fleetDB = db

		wrf := workload.GenerateWRF(workload.WRFOpts{Seed: 5, Jobs: 80, PathoJobs: 2, PathoUser: "u042", SpanSec: 13 * 86400})
		wdb, _, err := etl.RunFleetMixed(wrf, 600, 5, 0)
		if err != nil {
			panic(err)
		}
		fix.wrfDB = wdb

		// TSDB loaded with the reference job's stream.
		tdb := tsdb.New()
		ing := tsdb.NewIngester(tdb, fix.reg)
		for _, s := range run.Snapshots {
			ing.Ingest(s)
		}
		fix.tsdb = tdb
	})
}

// ---- E1: Table I ----

// BenchmarkTableIMetrics measures the metric engine reducing a 4-node,
// 4-hour job's snapshots to its full Table I summary.
func BenchmarkTableIMetrics(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		red := core.NewReducer(fix.run.Spec.JobID, fix.reg)
		for _, s := range fix.run.Snapshots {
			red.Add(s)
		}
		if _, err := red.Result(core.VecWidth); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E2: collection cost / overhead ----

// BenchmarkCollection measures one full device sweep on a Stampede node
// (the real Go cost backing the simulated ~0.09 s budget).
func BenchmarkCollection(b *testing.B) {
	fixtures(b)
	n, err := hwsim.NewNode("bench", fix.cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	n.Advance(600, hwsim.Demand{CPUUserFrac: 0.8, IPC: 1.2})
	col := collect.New(n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col.Collect(float64(i), []string{"1"}, "")
	}
}

// ---- E3: cron pipeline ----

// BenchmarkCronPipeline measures the node-local log append (collection
// included), the per-snapshot cost of Fig 1's first stage.
func BenchmarkCronPipeline(b *testing.B) {
	fixtures(b)
	n, err := hwsim.NewNode("bench", fix.cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	col := collect.New(n)
	logger, err := rawfile.NewNodeLogger(b.TempDir(), col.Header())
	if err != nil {
		b.Fatal(err)
	}
	defer logger.Close()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Advance(600, hwsim.Demand{CPUUserFrac: 0.8, IPC: 1.2})
		snap, _ := col.Collect(float64(i)*600, []string{"1"}, "")
		if err := logger.Log(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4: daemon pipeline ----

// BenchmarkDaemonPipeline measures the broker round trip: collect,
// publish over TCP, consume and decode — Fig 2's per-snapshot cost.
func BenchmarkDaemonPipeline(b *testing.B) {
	fixtures(b)
	srv := broker.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := broker.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	cons, err := broker.DialConsumer(addr, broker.StatsQueue)
	if err != nil {
		b.Fatal(err)
	}
	defer cons.Close()

	n, err := hwsim.NewNode("bench", fix.cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	agent := collect.NewDaemonAgent(collect.New(n), collect.PublisherFunc(func(s model.Snapshot) error {
		body, err := broker.EncodeSnapshotWire(s, fix.reg, codec.V1Text)
		if err != nil {
			return err
		}
		return client.Publish(broker.StatsQueue, body)
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			body, err := cons.NextNoAck()
			if err != nil || cons.Ack() != nil {
				return
			}
			if _, _, err := broker.DecodeSnapshotWire(body, fix.reg); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Advance(600, hwsim.Demand{CPUUserFrac: 0.8, IPC: 1.2})
		if err := agent.Tick(float64(i)*600, []string{"1"}, ""); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	srv.Close()
	<-done
}

// ---- E5: portal query ----

// BenchmarkPortalQuery measures the Fig 3 search over HTTP, including
// filter parsing and the JSON projection.
func BenchmarkPortalQuery(b *testing.B) {
	fixtures(b)
	srv := httptest.NewServer(portal.NewServer(fix.wrfDB, fix.reg, nil))
	defer srv.Close()
	url := srv.URL + "/api/jobs?exe=wrf.exe&field1=runtime&op1=gte&val1=600"
	b.ReportAllocs()
	b.ResetTimer() // fixtures(b) may have just built the fleet
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// ---- E6: histogram generation ----

// BenchmarkHistogramQuery measures the Fig 4 quartet over the WRF window.
func BenchmarkHistogramQuery(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Histograms(fix.wrfDB, 20, reldb.F("exe", "wrf.exe")); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: job detail page ----

// BenchmarkJobDetail measures reducing the reference job's snapshots to
// the six Fig 5 panels and rendering them to SVG.
func BenchmarkJobDetail(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		red := core.NewReducer(fix.run.Spec.JobID, fix.reg)
		for _, s := range fix.run.Snapshots {
			red.Add(s)
		}
		js, err := red.Panels(core.VecWidth)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range js.Panels {
			if svg := portal.PanelSVG(p); len(svg) == 0 {
				b.Fatal("empty svg")
			}
		}
	}
}

// ---- E8: case study aggregation ----

// BenchmarkCaseStudy measures the §V-B user-vs-population aggregation.
func BenchmarkCaseStudy(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.WRFStudy(fix.wrfDB, "wrf.exe", "u042"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E9: correlation study ----

// BenchmarkCorrelations measures the production-population correlation
// study.
func BenchmarkCorrelations(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.IOCorrelations(fix.fleetDB, analysis.ProductionFilters()...); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E10: population survey ----

// BenchmarkPopulationSurvey measures the §V-A fleet characterization.
func BenchmarkPopulationSurvey(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.PopulationSurvey(fix.fleetDB); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E11: TSDB query ----

// BenchmarkTSDBQuery measures a tag-filtered, host-aggregated range
// query over the reference job's stream.
func BenchmarkTSDBQuery(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fix.tsdb.Do(tsdb.Query{DevType: "mdc", Event: "reqs", Aggregate: tsdb.Sum})
		if err != nil || len(res) == 0 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// ---- E12: shared-node signal handling ----

// BenchmarkSharedNode measures the per-signal cost of the §VI-C tracker.
func BenchmarkSharedNode(b *testing.B) {
	fixtures(b)
	n, err := hwsim.NewNode("bench", fix.cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	col := collect.New(n)
	tr := preload.NewTracker(col, nil)
	tr.JobStart(0, "1")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Signal(float64(i)*10+100, preload.ProcExec)
	}
}

// ---- End-to-end throughput ----

// BenchmarkFleetSimulation measures whole-pipeline throughput: simulate
// a job, collect it, compute its metrics, build its row.
func BenchmarkFleetSimulation(b *testing.B) {
	fixtures(b)
	specs := workload.GenerateFleet(workload.FleetOpts{Seed: 9, Jobs: 64})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := specs[i%len(specs)]
		spec.Runtime = 3600 // bound the per-iteration work
		if spec.Nodes > 8 {
			spec.Nodes = 8
		}
		run, err := cluster.RunJob(spec, fix.cfg, 600, 9)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := etl.BuildRow(run, fix.reg, core.VecWidth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentSuite runs the entire E1-E12 suite at small scale —
// the one-button reproduction.
func BenchmarkExperimentSuite(b *testing.B) {
	if testing.Short() {
		b.Skip("long")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.All(experiments.Small()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E13: concurrent portal load (PR 4 read path) ----

// BenchmarkPortalJobsConcurrent measures the full /jobs page — filter
// scan, Fig 4 histogram quartet, flag sublist, HTML render — under
// parallel clients on the 250-job fleet fixture. The "cold" variant
// disables the response cache (every request renders); "cached" is the
// production configuration. Pre-PR4 baseline: 3,997,027 ns/op.
func BenchmarkPortalJobsConcurrent(b *testing.B) {
	fixtures(b)
	urls := []string{
		"/jobs?field1=runtime&op1=gte&val1=600",
		"/jobs?queue=normal&field1=cpu_usage&op1=gte&val1=0.5",
		"/jobs?field1=metadatarate&op1=gte&val1=1000",
		"/jobs?status=COMPLETED",
	}
	run := func(b *testing.B, useCache bool) {
		ps := portal.NewServer(fix.fleetDB, fix.reg, nil)
		ps.Metrics = telemetry.NewRegistry()
		if !useCache {
			ps.Cache = nil
		}
		srv := httptest.NewServer(ps)
		defer srv.Close()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				resp, err := http.Get(srv.URL + urls[i%len(urls)])
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != 200 {
					b.Fatalf("status %d", resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				i++
			}
		})
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("cached", func(b *testing.B) { run(b, true) })
}

// BenchmarkReldbStats compares the single-pass multi-field Stats sweep
// against the one-Query-per-field projection it replaced.
func BenchmarkReldbStats(b *testing.B) {
	fixtures(b)
	fields := []string{"runtime", "nodes", "waittime", "metadatarate"}
	filter := reldb.F("status", "COMPLETED")
	b.Run("single-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fix.fleetDB.Stats(fields, filter); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-field-scans", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range fields {
				if _, err := fix.fleetDB.Values(f, filter); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTSDBGroupedDownsample measures the grouped, downsampled
// aggregation path (flat-slice accumulator) over a many-series store.
func BenchmarkTSDBGroupedDownsample(b *testing.B) {
	db := tsdb.New()
	for h := 0; h < 64; h++ {
		tags := tsdb.Tags{Host: fmt.Sprintf("n%03d", h), DevType: "mdc", Device: "m0", Event: "reqs"}
		for t := 0; t < 200; t++ {
			db.Put(tags, float64(t*60), float64(t%17))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Do(tsdb.Query{DevType: "mdc", Event: "reqs",
			GroupBy: []string{"host"}, Downsample: 600, Aggregate: tsdb.Avg})
		if err != nil || len(res) != 64 {
			b.Fatalf("res=%d err=%v", len(res), err)
		}
	}
}

// BenchmarkTSDBPutParallel measures ingest throughput with many
// concurrent writers — the contention case sharding addresses.
func BenchmarkTSDBPutParallel(b *testing.B) {
	db := tsdb.New()
	var hostSeq atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		h := hostSeq.Add(1)
		tags := tsdb.Tags{Host: fmt.Sprintf("n%03d", h), DevType: "cpu", Device: "0", Event: "user"}
		t := 0.0
		for pb.Next() {
			db.Put(tags, t, 1)
			t += 600
		}
	})
}

// ---- Ablations (DESIGN.md §6) ----

// BenchmarkDeltaDecodeRollover vs BenchmarkDeltaDecodeNaive: the cost of
// rollover-aware decoding against naive subtraction.
func BenchmarkDeltaDecodeRollover(b *testing.B) {
	def := schema.EventDef{Name: "x", Kind: schema.Event, Width: 48}
	prev, cur := uint64(1<<48)-5000, uint64(12345)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += schema.RolloverDelta(prev, cur, def)
	}
	_ = sink
}

func BenchmarkDeltaDecodeNaive(b *testing.B) {
	prev, cur := uint64(1000), uint64(2000)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += cur - prev
	}
	_ = sink
}

// BenchmarkBrokerBatching compares one-snapshot-per-message against
// one-record-per-message publishing (the design choice behind publishing
// whole sweeps).
func BenchmarkBrokerBatching(b *testing.B) {
	fixtures(b)
	n, err := hwsim.NewNode("bench", fix.cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	n.Advance(600, hwsim.Demand{CPUUserFrac: 0.8, IPC: 1.2})
	snap, _ := collect.New(n).Collect(600, []string{"1"}, "")

	run := func(b *testing.B, publish func(pub *broker.Client) error, expect func(cons *broker.Consumer) error) {
		srv := broker.NewServer()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		pub, err := broker.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer pub.Close()
		cons, err := broker.DialConsumer(addr, broker.StatsQueue)
		if err != nil {
			b.Fatal(err)
		}
		defer cons.Close()
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := publish(pub); err != nil {
				b.Fatal(err)
			}
			if err := expect(cons); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("snapshot-per-message", func(b *testing.B) {
		body, err := codec.EncodeWire(snap, fix.reg, codec.V1Text)
		if err != nil {
			b.Fatal(err)
		}
		run(b,
			func(pub *broker.Client) error { return pub.Publish(broker.StatsQueue, body) },
			func(cons *broker.Consumer) error {
				if _, err := cons.NextNoAck(); err != nil {
					return err
				}
				return cons.Ack()
			})
	})
	b.Run("record-per-message", func(b *testing.B) {
		bodies := make([][]byte, len(snap.Records))
		for i, r := range snap.Records {
			one := model.Snapshot{Time: snap.Time, Host: snap.Host, JobIDs: snap.JobIDs,
				Records: []model.Record{r}}
			body, err := codec.EncodeWire(one, fix.reg, codec.V1Text)
			if err != nil {
				b.Fatal(err)
			}
			bodies[i] = body
		}
		run(b,
			func(pub *broker.Client) error {
				for _, body := range bodies {
					if err := pub.Publish(broker.StatsQueue, body); err != nil {
						return err
					}
				}
				return nil
			},
			func(cons *broker.Consumer) error {
				for range bodies {
					if _, err := cons.NextNoAck(); err != nil {
						return err
					}
					if err := cons.Ack(); err != nil {
						return err
					}
				}
				return nil
			})
	})
}

// BenchmarkTSDBIndex compares a tag-filtered query (posting-list lookup)
// against a wildcard query (series scan) on a many-series database.
func BenchmarkTSDBIndex(b *testing.B) {
	db := tsdb.New()
	for h := 0; h < 200; h++ {
		for e := 0; e < 10; e++ {
			tags := tsdb.Tags{Host: fmt.Sprintf("n%03d", h), DevType: "cpu",
				Device: "0", Event: fmt.Sprintf("ev%d", e)}
			for t := 0; t < 20; t++ {
				db.Put(tags, float64(t*600), float64(t))
			}
		}
	}
	b.Run("tag-filtered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := db.Do(tsdb.Query{Host: "n017", Event: "ev3", Aggregate: tsdb.Sum})
			if err != nil || len(res) != 1 {
				b.Fatalf("res=%d err=%v", len(res), err)
			}
		}
	})
	b.Run("wildcard-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := db.Do(tsdb.Query{Event: "ev3", Aggregate: tsdb.Sum})
			if err != nil || len(res) != 1 {
				b.Fatalf("res=%d err=%v", len(res), err)
			}
		}
	})
}

// BenchmarkRawfileRoundTrip measures the text format: write plus parse of
// one full-sweep snapshot.
func BenchmarkRawfileRoundTrip(b *testing.B) {
	fixtures(b)
	n, err := hwsim.NewNode("bench", fix.cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	n.Advance(600, hwsim.Demand{CPUUserFrac: 0.8, IPC: 1.2})
	snap, _ := collect.New(n).Collect(600, []string{"1"}, "")
	header := rawfile.Header{Hostname: "bench", Arch: "sandybridge", Registry: fix.reg}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := codec.NewEncoder(&buf, header, codec.V1Text)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteSnapshot(snap); err != nil {
			b.Fatal(err)
		}
		if _, err := codec.DecodeAll(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- PR5: versioned snapshot codec + streaming ingest ----

// codecBenchStream returns the reference job's snapshot stream for one
// host — a realistic full-registry sequence whose counters advance
// monotonically, which is exactly what the binary codec's delta
// encoding is shaped for.
func codecBenchStream(b *testing.B) ([]model.Snapshot, codec.Header) {
	fixtures(b)
	var snaps []model.Snapshot
	for _, s := range fix.run.Snapshots {
		if s.Host == fix.run.Hosts[0] {
			snaps = append(snaps, s)
		}
	}
	if len(snaps) == 0 {
		b.Fatal("no snapshots for reference host")
	}
	return snaps, codec.Header{Hostname: fix.run.Hosts[0], Arch: "sandybridge", Registry: fix.reg}
}

// BenchmarkSnapshotCodec measures encode and decode of one host-day
// stream in each codec, reporting bytes per snapshot alongside speed —
// the size/CPU trade the -codec flag selects.
func BenchmarkSnapshotCodec(b *testing.B) {
	snaps, header := codecBenchStream(b)
	for _, v := range []codec.Version{codec.V1Text, codec.V2Binary} {
		var ref bytes.Buffer
		enc, err := codec.NewEncoder(&ref, header, v)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range snaps {
			if err := enc.WriteSnapshot(s); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		perSnap := float64(ref.Len()) / float64(len(snaps))

		b.Run(v.String()+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				enc, _ := codec.NewEncoder(&buf, header, v)
				for _, s := range snaps {
					if err := enc.WriteSnapshot(s); err != nil {
						b.Fatal(err)
					}
				}
				enc.Flush()
			}
			b.ReportMetric(perSnap, "bytes/snap")
			b.ReportMetric(float64(len(snaps))*float64(b.N)/b.Elapsed().Seconds(), "snaps/s")
		})
		b.Run(v.String()+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			data := ref.Bytes()
			for i := 0; i < b.N; i++ {
				st, err := codec.DecodeAll(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				if len(st.Snapshots) != len(snaps) {
					b.Fatalf("decoded %d of %d", len(st.Snapshots), len(snaps))
				}
			}
			b.ReportMetric(perSnap, "bytes/snap")
			b.ReportMetric(float64(len(snaps))*float64(b.N)/b.Elapsed().Seconds(), "snaps/s")
		})
	}
}

// BenchmarkWireCodec measures one self-contained broker message per
// snapshot for each codec, encode and decode separately, reporting the
// per-message wire size.
func BenchmarkWireCodec(b *testing.B) {
	snaps, _ := codecBenchStream(b)
	s := snaps[len(snaps)/2]
	for _, v := range []codec.Version{codec.V1Text, codec.V2Binary} {
		body, err := codec.EncodeWire(s, fix.reg, v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.String()+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.EncodeWire(s, fix.reg, v); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "bytes/snap")
		})
		b.Run(v.String()+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := codec.DecodeWire(body, fix.reg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "bytes/snap")
		})
	}
}

// BenchmarkArchiverAppend is the listener's archive step: one op is one
// rawfile.Archiver append of a reference-host snapshot (encode, one
// write, flush) into a per-(host, day) file the archiver keeps open.
// v1-text-received is the listener's path for a v1 wire message: the
// snapshot and the record lines codec.DecodeWireLines certified, which
// a v1 file takes as they are after an encoded block head. After each
// pass over the host's snapshots the store is recreated outside the
// timer, so the files stay small.
func BenchmarkArchiverAppend(b *testing.B) {
	snaps, header := codecBenchStream(b)
	received := make([]model.Snapshot, len(snaps))
	lines := make([][]byte, len(snaps))
	for i, s := range snaps {
		body, err := codec.EncodeWire(s, header.Registry, codec.V1Text)
		if err != nil {
			b.Fatal(err)
		}
		if received[i], _, lines[i], err = codec.DecodeWireLines(body, header.Registry); err != nil || lines[i] == nil {
			b.Fatalf("snapshot %d: no certified lines (err %v)", i, err)
		}
	}
	for _, c := range []struct {
		name  string
		v     codec.Version
		lines [][]byte // nil: encode every record
	}{
		{"v1-text", codec.V1Text, nil},
		{"v2-binary", codec.V2Binary, nil},
		{"v1-text-received", codec.V1Text, lines},
	} {
		b.Run(c.name, func(b *testing.B) {
			base := b.TempDir()
			var arch *rawfile.Archiver
			reset := func(i int) {
				if arch != nil {
					if err := arch.Close(); err != nil {
						b.Fatal(err)
					}
				}
				st, err := rawfile.NewStore(filepath.Join(base, strconv.Itoa(i)))
				if err != nil {
					b.Fatal(err)
				}
				st.SetCodec(c.v)
				arch = rawfile.NewArchiver(st, 0)
			}
			reset(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%len(snaps) == 0 {
					b.StopTimer()
					reset(i)
					b.StartTimer()
				}
				k := i % len(snaps)
				s, l := snaps[k], []byte(nil)
				if c.lines != nil {
					s, l = received[k], c.lines[k]
				}
				if err := arch.AppendLines(header.Hostname, header, s, l); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := arch.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkStreamIngest is the end-to-end write path per codec: every
// snapshot of the fixture run is archived into a fresh raw store (the
// listend write side) and the store is then walked snapshot-by-snapshot
// through the streaming assembler into job rows (the ETL read side).
// The binary/text throughput ratio here is the whole-pipeline payoff of
// the v2 codec: smaller frames to format on the way in and fewer bytes
// to parse on the way out.
func BenchmarkStreamIngest(b *testing.B) {
	fixtures(b)
	for _, v := range []codec.Version{codec.V1Text, codec.V2Binary} {
		b.Run(v.String(), func(b *testing.B) {
			base := b.TempDir()
			var lastDir string
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lastDir = filepath.Join(base, strconv.Itoa(i))
				st, err := rawfile.NewStore(lastDir)
				if err != nil {
					b.Fatal(err)
				}
				st.SetCodec(v)
				arch := rawfile.NewArchiver(st, 0)
				for _, s := range fix.run.Snapshots {
					h := rawfile.Header{Hostname: s.Host, Arch: "sandybridge", Registry: fix.reg}
					if err := arch.Append(s.Host, h, s); err != nil {
						b.Fatal(err)
					}
				}
				if err := arch.Close(); err != nil {
					b.Fatal(err)
				}
				db := reldb.New()
				ids, err := etl.IngestStore(st, fix.reg, nil, db)
				if err != nil {
					b.Fatal(err)
				}
				if len(ids) != 1 {
					b.Fatalf("ingested %v", ids)
				}
			}
			b.StopTimer()
			var onDisk int64
			st, err := rawfile.NewStore(lastDir)
			if err != nil {
				b.Fatal(err)
			}
			hosts, _ := st.Hosts()
			for _, host := range hosts {
				dir, _ := st.HostDir(host)
				entries, _ := os.ReadDir(dir)
				for _, e := range entries {
					if info, err := e.Info(); err == nil {
						onDisk += info.Size()
					}
				}
			}
			b.ReportMetric(float64(onDisk)/float64(len(fix.run.Snapshots)), "bytes/snap")
			b.ReportMetric(float64(len(fix.run.Snapshots))*float64(b.N)/b.Elapsed().Seconds(), "snaps/s")
		})
	}
}

// ---- PR8: durable segmented storage ----

// coldBenchFill loads hosts×span/step points through the write path —
// RAM hot set over a cold segment store — evicting as it goes, and
// returns the store stats after a final flush.
func coldBenchFill(b *testing.B, db *tsdb.DB, hosts, span, step int) {
	b.Helper()
	for t := 0; t < span; t += step {
		for h := 0; h < hosts; h++ {
			tags := tsdb.Tags{Host: fmt.Sprintf("n%03d", h), DevType: "cpu", Device: "0", Event: "user"}
			db.Put(tags, float64(t), float64((t/step+h)%97))
		}
		if t%600 == 0 {
			if err := db.CommitCold(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := db.CommitCold(); err != nil {
		b.Fatal(err)
	}
	if err := db.Cold().Commit(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTSDBColdQuery measures range queries against a day of data
// whose hot set covers only the last two hours — the on-disk dataset is
// an order of magnitude larger than RAM. "cold" aggregates 20 hours
// served entirely from sealed segments via pread ("-host" for one host's
// series, "-topn" ranking hosts over it), "hot" the RAM-resident tail,
// and "spanning" a window crossing the boundary. The bytes/point metric
// is the raw tier's on-disk footprint.
func BenchmarkTSDBColdQuery(b *testing.B) {
	cs, err := segstore.Open(b.TempDir(), segstore.Options{
		CompactRawAfter: -1, CompactMidAfter: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer cs.Close()
	db := tsdb.New()
	if err := db.AttachCold(cs, 2*3600); err != nil {
		b.Fatal(err)
	}
	const hosts, span, step = 32, 24 * 3600, 30
	coldBenchFill(b, db, hosts, span, step)
	// Seal every shard so the cold window reads sealed segments through
	// their seal-time indexes and the block cache — the steady state of
	// data past the hot window. BenchmarkTSDBActiveQuery covers the
	// unsealed case.
	if err := cs.Seal(); err != nil {
		b.Fatal(err)
	}
	st := cs.Stats()
	totalPts := st.ActivePoints
	for _, n := range st.TierPoints {
		totalPts += n
	}
	bytesPerPt := float64(st.TierBytes[0]+st.ActiveBytes) / float64(totalPts)

	cases := []struct {
		name       string
		host       string
		start, end float64
		topN       bool
	}{
		{name: "cold-20h", start: 0, end: 20 * 3600},
		{name: "cold-20h-host", host: "n007", start: 0, end: 20 * 3600},
		{name: "cold-20h-topn", start: 0, end: 20 * 3600, topN: true},
		{name: "spanning-4h", start: 20 * 3600, end: 24 * 3600},
		{name: "hot-1h", start: 23 * 3600, end: 24 * 3600},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			q := tsdb.Query{Host: c.host, DevType: "cpu", Event: "user",
				Start: c.start, End: c.end, Downsample: 600, Aggregate: tsdb.Sum}
			if c.topN {
				q.GroupBy = []string{"host"}
			}
			for i := 0; i < b.N; i++ {
				if c.topN {
					top, err := db.TopN(q, 5, false)
					if err != nil || len(top) != 5 {
						b.Fatalf("top=%v err=%v", top, err)
					}
					continue
				}
				res, err := db.Do(q)
				if err != nil || len(res) == 0 || len(res[0].Points) == 0 {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
			b.ReportMetric(bytesPerPt, "diskB/pt")
		})
	}
}

// BenchmarkTSDBActiveQuery measures the cold half of a query crossing
// the hot window's boundary while the data below it still sits in
// unsealed active segments — the state of a daemon whose segments have
// not yet filled. The same day of data as BenchmarkTSDBColdQuery is
// left unsealed, so the 4 h window reads 2 h from the RAM hot set and 2
// h from the active segments' flushed frames ("-host" for one host's
// series).
func BenchmarkTSDBActiveQuery(b *testing.B) {
	cs, err := segstore.Open(b.TempDir(), segstore.Options{
		CompactRawAfter: -1, CompactMidAfter: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer cs.Close()
	db := tsdb.New()
	if err := db.AttachCold(cs, 2*3600); err != nil {
		b.Fatal(err)
	}
	const hosts, span, step = 32, 24 * 3600, 30
	coldBenchFill(b, db, hosts, span, step)
	if st := cs.Stats(); st.TierSegments[0] != 0 {
		b.Fatalf("fill sealed %d segments; want every point in active segments", st.TierSegments[0])
	}
	for _, c := range []struct{ name, host string }{
		{name: "active-4h-host", host: "n007"},
		{name: "active-4h"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			q := tsdb.Query{Host: c.host, DevType: "cpu", Event: "user",
				Start: 20 * 3600, End: 24 * 3600, Downsample: 600, Aggregate: tsdb.Sum}
			for i := 0; i < b.N; i++ {
				res, err := db.Do(q)
				if err != nil || len(res) == 0 || len(res[0].Points) == 0 {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkSegstoreRecover measures restart recovery: reopening a
// closed multi-segment store (CRC-verifying every sealed frame and
// rebuilding shard state) for a ~100k-point day of data.
func BenchmarkSegstoreRecover(b *testing.B) {
	dir := b.TempDir()
	opts := segstore.Options{SegmentBytes: 64 << 10, CompactRawAfter: -1, CompactMidAfter: -1}
	st, err := segstore.Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	const hosts, span, step = 32, 24 * 3600, 30
	for t := 0; t < span; t += step {
		for h := 0; h < hosts; h++ {
			st.Append(segstore.Point{
				Labels: segstore.Labels{Host: fmt.Sprintf("n%03d", h),
					DevType: "cpu", Device: "0", Event: "user"},
				Time: float64(t), Value: float64(t % 97),
			})
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	points := float64(hosts * (span / step))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		re, err := segstore.Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "pts/s")
}

// BenchmarkSegstoreAppend measures durable ingest throughput: append
// plus per-600-point commit, the shape of the listend write path. B/point
// is the store's on-disk bytes (sealed and active) per appended point.
func BenchmarkSegstoreAppend(b *testing.B) {
	st, err := segstore.Open(b.TempDir(), segstore.Options{
		CompactRawAfter: -1, CompactMidAfter: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Append(segstore.Point{
			Labels: segstore.Labels{Host: fmt.Sprintf("n%03d", i%32),
				DevType: "cpu", Device: "0", Event: "user"},
			Time: float64(i), Value: float64(i % 97),
		})
		if i%600 == 599 {
			if err := st.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Commit(); err != nil {
		b.Fatal(err)
	}
	stats := st.Stats()
	bytes := stats.ActiveBytes
	for _, n := range stats.TierBytes {
		bytes += n
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "B/point")
}

// BenchmarkIngestSnapshot measures the daemon-mode tsdb write path for
// one snapshot of the reference job: deltas against the host's previous
// snapshot, the RAM insert, and the write-through to a cold segment
// store with its amortized eviction — what listend runs per message.
// The job's stream repeats, shifted in time, for as long as b.N needs.
func BenchmarkIngestSnapshot(b *testing.B) {
	fixtures(b)
	cs, err := segstore.Open(b.TempDir(), segstore.Options{
		CompactRawAfter: -1, CompactMidAfter: -1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer cs.Close()
	db := tsdb.New()
	if err := db.AttachCold(cs, 2*3600); err != nil {
		b.Fatal(err)
	}
	ing := tsdb.NewIngester(db, fix.reg)
	snaps := fix.run.Snapshots
	span := snaps[len(snaps)-1].Time - snaps[0].Time + 600
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := snaps[i%len(snaps)]
		s.Time += float64(i/len(snaps)) * span
		if err := ing.Ingest(s); err != nil {
			b.Fatal(err)
		}
	}
}

// ingestRowsDB is a cold-attached DB with a 2 h hot window fed by an
// Ingester with 16 hosts' snapshots of one simulated Stampede node
// layout (~500 series each) at 600 s steps, and ingest(i) writes row i:
// host i%16's snapshot at step i/16, the node's stream replayed in a
// loop. It returns after warm rows.
func ingestRowsDB(b *testing.B, warm int) (db *tsdb.DB, ingest func(i int)) {
	cfg := chip.StampedeNode()
	run, err := cluster.RunJob(workload.Spec{
		JobID: "rows", User: "u001", Exe: "wrf.exe", Queue: "normal",
		Nodes: 1, Wayness: 16, Runtime: 3 * 3600, Status: workload.StatusCompleted,
		Model: workload.Steady{Label: "wrf", P: workload.WRFProfile("u001")},
	}, cfg, 600, 1)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := segstore.Open(b.TempDir(), segstore.Options{
		CompactRawAfter: -1, CompactMidAfter: -1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cs.Close() })
	db = tsdb.New()
	if err := db.AttachCold(cs, 2*3600); err != nil {
		b.Fatal(err)
	}
	ing := tsdb.NewIngester(db, cfg.Registry())
	snaps := run.Snapshots
	names := make([]string, ingestRowsHosts)
	for h := range names {
		names[h] = fmt.Sprintf("c%03d", h)
	}
	ingest = func(i int) {
		s := snaps[(i/ingestRowsHosts)%len(snaps)]
		s.Host, s.Time = names[i%ingestRowsHosts], float64(ingestRowsStep*(i/ingestRowsHosts+1))
		if err := ing.Ingest(s); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		ingest(i)
	}
	return db, ingest
}

const ingestRowsHosts, ingestRowsStep = 16, 600

// ingestRowsWarm is two 2 h hot windows of rows, after which eviction
// runs in its steady state.
const ingestRowsWarm = 2 * 2 * 3600 / ingestRowsStep * ingestRowsHosts

// BenchmarkTSDBIngestRows measures the tsdb hot-set write path through
// ingestRowsDB: each op is one host row — the deltas, the hot-set row
// append, the write-through to the segment store and the amortized
// CommitCold with its eviction. Two hot windows are ingested before the
// timer starts, so eviction runs in its steady state.
func BenchmarkTSDBIngestRows(b *testing.B) {
	db, ingest := ingestRowsDB(b, ingestRowsWarm)
	cols := float64(db.NumSeries()) / ingestRowsHosts
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest(ingestRowsWarm + i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/row")
	b.ReportMetric(cols, "cols/row")
}

// BenchmarkTSDBHotRowsQuery measures reads of the RAM hot set at
// production row width: ingestRowsDB's 16 hosts of ~500 columns, queried
// inside the hot window the way a dashboard does — every host's CPU
// user time over the last hour ("cpu-1h"), the top five hosts by it
// ("topn-1h"), and one host's every series over the last two hours
// grouped by device type ("host-2h").
func BenchmarkTSDBHotRowsQuery(b *testing.B) {
	db, _ := ingestRowsDB(b, ingestRowsWarm)
	now := float64(ingestRowsStep * ingestRowsWarm / ingestRowsHosts)
	cases := []struct {
		name string
		q    tsdb.Query
		topN bool
	}{
		{name: "cpu-1h", q: tsdb.Query{DevType: "cpu", Event: "user",
			Start: now - 3600, End: now, Downsample: 600, Aggregate: tsdb.Sum}},
		{name: "topn-1h", topN: true, q: tsdb.Query{DevType: "cpu", Event: "user",
			Start: now - 3600, End: now, Aggregate: tsdb.Avg, GroupBy: []string{"host"}}},
		{name: "host-2h", q: tsdb.Query{Host: "c007", Start: now - 2*3600, End: now,
			Downsample: 600, Aggregate: tsdb.Sum, GroupBy: []string{"devtype"}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.topN {
					top, err := db.TopN(c.q, 5, false)
					if err != nil || len(top) != 5 {
						b.Fatalf("top=%v err=%v", top, err)
					}
					continue
				}
				res, err := db.Do(c.q)
				if err != nil || len(res) == 0 || len(res[0].Points) == 0 {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkSegstoreCompact measures one full compaction ladder — a day
// of raw samples downsampled raw → 10m → 1h — and reports the on-disk
// bytes per original point of each resulting tier, the storage trade
// retention windows buy.
func BenchmarkSegstoreCompact(b *testing.B) {
	const hosts, span, step = 16, 48 * 3600, 30
	points := float64(hosts * (span / step))
	b.ReportAllocs()
	var st segstore.Stats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Tiny segments so raw rotates often enough that several 10m
		// generations exist and the oldest ages into the hourly tier —
		// every tier then has a bytes-per-point figure to report.
		cs, err := segstore.Open(b.TempDir(), segstore.Options{
			SegmentBytes: 1 << 10, FlushBytes: 512,
			CompactRawAfter: 3600, CompactMidAfter: 6 * 3600})
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < span; t += step {
			for h := 0; h < hosts; h++ {
				cs.Append(segstore.Point{
					Labels: segstore.Labels{Host: fmt.Sprintf("n%03d", h),
						DevType: "cpu", Device: "0", Event: "user"},
					Time: float64(t), Value: float64(t % 97),
				})
			}
		}
		if err := cs.Seal(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		prev := cs.Stats().Compactions
		for {
			if err := cs.Compact(); err != nil {
				b.Fatal(err)
			}
			now := cs.Stats().Compactions
			if now == prev {
				break
			}
			prev = now
		}
		b.StopTimer()
		st = cs.Stats()
		cs.Close()
		b.StartTimer()
	}
	tiers := []string{"raw", "10m", "1h"}
	for t, name := range tiers {
		if st.TierPoints[t] > 0 {
			b.ReportMetric(float64(st.TierBytes[t])/points, "diskB/pt-"+name)
		}
	}
}

// BenchmarkListenerHandleBody is listend's per-message path: v1-text
// wire messages of the reference job's snapshots through a listener
// with the monitor, a raw archive, a tsdb ingester over a cold segment
// store (2 h hot window) and an assembler on its snapshot tap. One op
// is one message. With callers=4, four goroutines call HandleBody at
// once, each for hosts of its own, as fabric partition consumers do;
// per message it must not be slower than one caller, since the callers
// overlap in different steps. Each caller's stream is the job replayed
// under a fresh job id per pass, shifted in time, and every message is
// encoded before the timer starts.
func BenchmarkListenerHandleBody(b *testing.B) {
	fixtures(b)
	pass := append([]model.Snapshot(nil), fix.run.Snapshots...)
	sort.SliceStable(pass, func(i, j int) bool { return pass[i].Time < pass[j].Time })
	span := pass[len(pass)-1].Time - pass[0].Time + 600
	for _, callers := range []int{1, 4} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			bodies := make([][][]byte, callers)
			for i := 0; i < b.N; i++ {
				c, k := i%callers, i/callers
				s := pass[k%len(pass)]
				p := k / len(pass)
				job := fmt.Sprintf("c%d-p%d", c, p)
				s.Host = fmt.Sprintf("c%d-%s", c, s.Host)
				s.Time += float64(p) * span
				s.JobIDs = []string{job}
				if s.Mark != "" {
					s.Mark = strings.Fields(s.Mark)[0] + " " + job
				}
				body, err := codec.EncodeWire(s, fix.reg, codec.V1Text)
				if err != nil {
					b.Fatal(err)
				}
				bodies[c] = append(bodies[c], body)
			}
			st, err := rawfile.NewStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			cs, err := segstore.Open(b.TempDir(), segstore.Options{
				CompactRawAfter: -1, CompactMidAfter: -1, Metrics: telemetry.NewRegistry()})
			if err != nil {
				b.Fatal(err)
			}
			defer cs.Close()
			db := tsdb.New()
			if err := db.AttachCold(cs, 2*3600); err != nil {
				b.Fatal(err)
			}
			met := telemetry.NewRegistry()
			asm := &etl.Assembler{Registry: fix.reg, DB: reldb.New(),
				EndGrace: etl.DefaultEndGrace, Lateness: span, Metrics: met}
			l := &realtime.Listener{
				Monitor:  realtime.NewMonitor(fix.reg, realtime.DefaultRules()),
				Store:    st,
				Registry: fix.reg,
				Headers: func(host string) rawfile.Header {
					return rawfile.Header{Hostname: host, Arch: "sandybridge", Registry: fix.reg}
				},
				Ingest:     tsdb.NewIngester(db, fix.reg),
				Metrics:    met,
				OnSnapshot: asm.Feed,
			}
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for _, msgs := range bodies {
				wg.Add(1)
				go func(msgs [][]byte) {
					defer wg.Done()
					for _, body := range msgs {
						if err := l.HandleBody(body); err != nil {
							b.Error(err)
							return
						}
					}
				}(msgs)
			}
			wg.Wait()
			b.StopTimer()
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			if got := l.Processed(); got != b.N {
				b.Fatalf("listener handled %d of %d messages", got, b.N)
			}
		})
	}
}

// ---- Streaming Table I ----

// BenchmarkAssemblerFeed measures the live assembler folding one
// Stampede snapshot into an in-flight job: the steady-state cost a
// listener pays per snapshot before any row is due. A ring of 64
// collections is replayed at ever later times.
func BenchmarkAssemblerFeed(b *testing.B) {
	fixtures(b)
	n, err := hwsim.NewNode("c401-101", fix.cfg, 3)
	if err != nil {
		b.Fatal(err)
	}
	col := collect.New(n)
	ring := make([]model.Snapshot, 64)
	for i := range ring {
		n.Advance(600, hwsim.Demand{CPUUserFrac: 0.8, IPC: 1.2, LoadRate: 1e9, L1HitFrac: 0.9, MDCReqRate: 20})
		ring[i], _ = col.Collect(float64(i)*600, []string{"feed"}, "")
	}
	a := &etl.Assembler{Registry: fix.reg, EndGrace: etl.DefaultEndGrace, Metrics: telemetry.NewRegistry()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := ring[i%len(ring)]
		s.Time = float64(i) * 600
		a.Feed(s)
	}
	b.StopTimer()
	if a.Pending() != 1 {
		b.Fatalf("pending = %d, want the one in-flight job", a.Pending())
	}
}

// BenchmarkAssemblerRunning measures the online watcher's read of an
// in-flight job: Assembler.Running on a 4-node job that has collected
// 36 (six hours) or 576 (four days) samples per host. Reduction state
// does not grow with samples, so the two should cost about the same.
func BenchmarkAssemblerRunning(b *testing.B) {
	fixtures(b)
	for _, samples := range []int{36, 576} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			spec := workload.Spec{
				JobID: "running", User: "u001", Exe: "wrf.exe", Queue: "normal",
				Nodes: 4, Wayness: 16, Runtime: float64(samples) * 600,
				Status: workload.StatusCompleted,
				Model:  workload.Steady{Label: "wrf", P: workload.WRFProfile("u001")},
			}
			run, err := cluster.RunJob(spec, fix.cfg, 600, 1)
			if err != nil {
				b.Fatal(err)
			}
			a := &etl.Assembler{Registry: fix.reg, EndGrace: etl.DefaultEndGrace, Metrics: telemetry.NewRegistry()}
			for _, s := range run.Snapshots[:len(run.Snapshots)-spec.Nodes] { // all but the end marks
				a.Feed(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if row, ok := a.Running("running"); !ok || row == nil {
					b.Fatal("job not running")
				}
			}
		})
	}
}
