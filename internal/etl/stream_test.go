package etl

import (
	"reflect"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/reldb"
	"gostats/internal/telemetry"
)

// streamFixture collects a two-job stream on one simulated node: job 7
// runs ticks 0–1200 with begin/end marks; job 8 starts at 1800 and
// never ends (its node "dies").
func streamFixture(t *testing.T) []model.Snapshot {
	t.Helper()
	cfg := chip.StampedeNode()
	n, err := hwsim.NewNode("c1", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	col := collect.New(n)
	var snaps []model.Snapshot
	tick := func(at float64, jobs []string, mark string) {
		s, _ := col.Collect(at, jobs, mark)
		snaps = append(snaps, s)
	}
	tick(0, []string{"7"}, collect.JobMark(collect.MarkBegin, "7"))
	n.Advance(600, hwsim.Demand{CPUUserFrac: 0.6, IPC: 1})
	tick(600, []string{"7"}, "")
	n.Advance(600, hwsim.Demand{CPUUserFrac: 0.6, IPC: 1})
	tick(1200, []string{"7"}, collect.JobMark(collect.MarkEnd, "7"))
	n.Advance(600, hwsim.Demand{})
	tick(1800, []string{"8"}, collect.JobMark(collect.MarkBegin, "8"))
	n.Advance(600, hwsim.Demand{CPUUserFrac: 0.3, IPC: 1})
	tick(2400, []string{"8"}, "")
	n.Advance(600, hwsim.Demand{})
	tick(3000, nil, "")
	n.Advance(3600, hwsim.Demand{})
	tick(6600, nil, "")
	return snaps
}

// A job must finalize as soon as the watermark clears its end mark plus
// the grace window — not at Flush — and the row must match the batch
// reduction exactly.
func TestAssemblerFinalizesOnEndMark(t *testing.T) {
	snaps := streamFixture(t)
	reg := chip.StampedeNode().Registry()
	db := reldb.New()
	var rows []string
	a := &Assembler{Registry: reg, DB: db, EndGrace: 600,
		OnRow: func(r *reldb.JobRow) { rows = append(rows, r.JobID) }}
	for i, s := range snaps {
		a.Feed(s)
		// Job 7 ends at 1200; grace 600 means the t=1800 snapshot
		// (index 3) fires the reduce.
		if i < 3 && len(rows) != 0 {
			t.Fatalf("job finalized early at snapshot %d: %v", i, rows)
		}
	}
	if !reflect.DeepEqual(rows, []string{"7"}) {
		t.Fatalf("mid-stream finalized = %v, want [7]", rows)
	}
	row := db.Get("7")
	if row == nil || row.StartTime != 0 || row.EndTime != 1200 {
		t.Fatalf("row bounds = %+v", row)
	}
	if a.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (job 8 still open)", a.Pending())
	}
	a.Flush()
	if got := a.IngestedIDs(); !reflect.DeepEqual(got, []string{"7", "8"}) {
		t.Fatalf("ingested = %v", got)
	}
	// Job 8 never got an end mark: Flush closes it over the observed
	// sample span, still marked running.
	row = db.Get("8")
	if row == nil || row.StartTime != 1800 || row.EndTime != 2400 {
		t.Fatalf("unended job bounds = %+v", row)
	}
	if row.Status != "RUNNING" {
		t.Fatalf("status = %q", row.Status)
	}
}

// Feeding the assembler snapshot-by-snapshot must produce the same rows
// as the one-shot batch ingest over the same data.
func TestAssemblerMatchesBatchIngest(t *testing.T) {
	snaps := streamFixture(t)
	reg := chip.StampedeNode().Registry()

	streamDB := reldb.New()
	a := &Assembler{Registry: reg, DB: streamDB, EndGrace: DefaultEndGrace}
	for _, s := range snaps {
		a.Feed(s)
	}
	a.Flush()

	// Reference: a grace window past the end of input, so nothing
	// finalizes mid-stream and Flush reduces everything at once — the
	// old batch semantics.
	batchDB := reldb.New()
	b := &Assembler{Registry: reg, DB: batchDB, EndGrace: 1e18}
	for _, s := range snaps {
		b.Feed(s)
	}
	b.Flush()

	for _, id := range []string{"7", "8"} {
		sr, br := streamDB.Get(id), batchDB.Get(id)
		if sr == nil || br == nil {
			t.Fatalf("job %s missing (stream %v, batch %v)", id, sr != nil, br != nil)
		}
		if !reflect.DeepEqual(sr.Metrics, br.Metrics) {
			t.Errorf("job %s metrics differ:\nstream %+v\nbatch  %+v", id, sr.Metrics, br.Metrics)
		}
		if sr.StartTime != br.StartTime || sr.EndTime != br.EndTime {
			t.Errorf("job %s bounds differ: %g/%g vs %g/%g",
				id, sr.StartTime, sr.EndTime, br.StartTime, br.EndTime)
		}
	}
}

// skewFixture collects a two-node stream: job 10 runs on c1 and c2 over
// t=0..1800 (end mark on c1), job 11 on c1 over t=2400..4200, then idle
// ticks to t=5400. ordered is in time order; skewed delivers c2's
// snapshots one tick behind c1's, the broker's cross-host skew.
func skewFixture(t *testing.T) (ordered, skewed []model.Snapshot) {
	t.Helper()
	cfg := chip.StampedeNode()
	var nodes []*hwsim.Node
	var cols []*collect.Collector
	for i, host := range []string{"c1", "c2"} {
		n, err := hwsim.NewNode(host, cfg, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		nodes, cols = append(nodes, n), append(cols, collect.New(n))
	}
	busy := hwsim.Demand{CPUUserFrac: 0.9, IPC: 1.2, LoadRate: 1e9, L1HitFrac: 0.95}
	var per [2][]model.Snapshot
	for at := 0.0; at <= 5400; at += 600 {
		for i, col := range cols {
			var jobs []string
			mark := ""
			switch {
			case at <= 1800:
				jobs = []string{"10"}
			case i == 0 && at >= 2400 && at <= 4200:
				jobs = []string{"11"}
			}
			switch {
			case i == 0 && at == 0:
				mark = collect.JobMark(collect.MarkBegin, "10")
			case i == 0 && at == 1800:
				mark = collect.JobMark(collect.MarkEnd, "10")
			case i == 0 && at == 2400:
				mark = collect.JobMark(collect.MarkBegin, "11")
			case i == 0 && at == 4200:
				mark = collect.JobMark(collect.MarkEnd, "11")
			}
			s, _ := col.Collect(at, jobs, mark)
			per[i] = append(per[i], s)
			nodes[i].Advance(600, busy)
		}
	}
	for i := range per[0] {
		ordered = append(ordered, per[0][i], per[1][i])
		skewed = append(skewed, per[0][i])
		if i > 0 {
			skewed = append(skewed, per[1][i-1])
		}
	}
	skewed = append(skewed, per[1][len(per[1])-1])
	return ordered, skewed
}

// assemble feeds stream through a fresh assembler and flushes it,
// returning the assembler, its rows, and how often OnRow fired per job.
func assemble(t *testing.T, stream []model.Snapshot, lateness float64) (*Assembler, *reldb.DB, map[string]int) {
	t.Helper()
	db := reldb.New()
	fired := map[string]int{}
	a := &Assembler{Registry: chip.StampedeNode().Registry(), DB: db,
		EndGrace: DefaultEndGrace, Lateness: lateness, Metrics: telemetry.NewRegistry(),
		OnRow: func(r *reldb.JobRow) { fired[r.JobID]++ }}
	for _, s := range stream {
		a.Feed(s)
	}
	a.Flush()
	return a, db, fired
}

// TestLatenessAbsorbsDeliverySkew: with a lateness window of one tick, a
// feed whose second host lags a full tick assembles exactly the rows of
// the time-ordered feed, each finalized once. Without the window, the
// lagging host's tail arrives after its job finalized: it is dropped and
// counted, and never reopens the job as a second, truncated row.
func TestLatenessAbsorbsDeliverySkew(t *testing.T) {
	ordered, skewed := skewFixture(t)
	_, want, _ := assemble(t, ordered, 0)
	if want.Len() != 2 {
		t.Fatalf("ordered feed assembled %d rows, want 2", want.Len())
	}

	a, got, fired := assemble(t, skewed, 600)
	for _, w := range want.All() {
		if g := got.Get(w.JobID); !reflect.DeepEqual(g, w) {
			t.Errorf("job %s: skewed row\n%+v\nordered row\n%+v", w.JobID, g, w)
		}
		if fired[w.JobID] != 1 {
			t.Errorf("job %s: OnRow fired %d times, want 1", w.JobID, fired[w.JobID])
		}
	}
	if a.LateDrops() != 0 || got.Len() != want.Len() {
		t.Errorf("lateness 600: %d late drops, %d rows", a.LateDrops(), got.Len())
	}

	a, _, fired = assemble(t, skewed, 0)
	if a.LateDrops() == 0 {
		t.Error("lateness 0 over a skewed feed dropped nothing late")
	}
	if n := a.met.lateDrops.Value(); n != uint64(a.LateDrops()) {
		t.Errorf("late-drop counter %d, LateDrops %d", n, a.LateDrops())
	}
	for id, n := range fired {
		if n != 1 {
			t.Errorf("job %s finalized %d times, want once", id, n)
		}
	}
	if ids := a.IngestedIDs(); !reflect.DeepEqual(ids, []string{"10", "11"}) {
		t.Errorf("ingested = %v, want each job once", ids)
	}
}

// labeledFeed collects three ticks on each host, labeled with the jobs
// jobsOf gives it, plus an unlabeled (idle) snapshot between each pair of
// labeled ticks.
func labeledFeed(t *testing.T, jobsOf map[string][]string) []model.Snapshot {
	t.Helper()
	cfg := chip.StampedeNode()
	var snaps []model.Snapshot
	for i, host := range []string{"c1", "c2"} {
		n, err := hwsim.NewNode(host, cfg, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		col := collect.New(n)
		for _, at := range []float64{0, 600, 1200} {
			s, _ := col.Collect(at, jobsOf[host], "")
			snaps = append(snaps, s)
			idle, _ := col.Collect(at+300, nil, "")
			snaps = append(snaps, idle)
			n.Advance(600, hwsim.Demand{CPUUserFrac: 0.5, IPC: 1})
		}
	}
	return snaps
}

// checkRows asserts the assembler made exactly one row per job in want,
// each carrying exactly the hosts labeled with that job.
func checkRows(t *testing.T, db *reldb.DB, want map[string][]string) {
	t.Helper()
	if db.Len() != len(want) {
		t.Fatalf("rows = %d, want %d (unlabeled snapshots must not create jobs)", db.Len(), len(want))
	}
	for id, hosts := range want {
		row := db.Get(id)
		if row == nil || !reflect.DeepEqual(row.Hosts, hosts) || row.Nodes != len(hosts) {
			t.Errorf("job %s row = %+v, want hosts %v", id, row, hosts)
		}
	}
}

// Each snapshot is routed by its job label: a row carries exactly the
// hosts labeled with its job.
func TestAssemblerRoutesByJobLabel(t *testing.T) {
	snaps := labeledFeed(t, map[string][]string{"c1": {"1"}, "c2": {"2"}})
	_, db, _ := assemble(t, snaps, 0)
	checkRows(t, db, map[string][]string{"1": {"c1"}, "2": {"c2"}})
}

// A snapshot labeled with several jobs — a shared node — contributes to
// each of them.
func TestAssemblerSharedNodeContributesToAllJobs(t *testing.T) {
	snaps := labeledFeed(t, map[string][]string{"c1": {"1", "2"}, "c2": {"2"}})
	_, db, _ := assemble(t, snaps, 0)
	checkRows(t, db, map[string][]string{"1": {"c1"}, "2": {"c1", "c2"}})
}

// An unlabeled snapshot (an idle node) creates no job.
func TestAssemblerDropsUnlabeledSnapshots(t *testing.T) {
	_, db, _ := assemble(t, labeledFeed(t, nil), 0)
	checkRows(t, db, map[string][]string{})
}

// Only "begin <id>" and "end <id>" marks (collect.JobMark) bound a job.
func TestJobMark(t *testing.T) {
	for mark, want := range map[string][2]string{
		collect.JobMark(collect.MarkBegin, "4001"):    {collect.MarkBegin, "4001"},
		collect.JobMark(collect.MarkEnd, "4001"):      {collect.MarkEnd, "4001"},
		collect.JobMark(collect.MarkBegin, ""):        {},
		collect.MarkEnd:                               {},
		collect.JobMark(collect.MarkProcExec, "4001"): {},
		"": {},
	} {
		if kind, id := jobMark(mark); kind != want[0] || id != want[1] {
			t.Errorf("jobMark(%q) = %q, %q; want %q, %q", mark, kind, id, want[0], want[1])
		}
	}
}
