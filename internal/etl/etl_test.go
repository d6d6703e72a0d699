package etl

import (
	"testing"

	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/reldb"
	"gostats/internal/workload"
)

func spec(id string, nodes int, runtime float64) workload.Spec {
	return workload.Spec{
		JobID: id, User: "u1", Account: "TG-u1", Exe: "wrf.exe", JobName: "wrf",
		Queue: "normal", Nodes: nodes, Wayness: 16, Runtime: runtime,
		Status: workload.StatusCompleted,
		Model:  workload.Steady{Label: "wrf", P: workload.WRFProfile("u1")},
	}
}

func TestBuildRow(t *testing.T) {
	cfg := chip.StampedeNode()
	run, err := cluster.RunJob(spec("100", 2, 1800), cfg, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	row, err := BuildRow(run, cfg.Registry(), cfg.Desc.VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	if row.JobID != "100" || row.User != "u1" || row.Exe != "wrf.exe" {
		t.Errorf("row meta = %+v", row)
	}
	if row.RunTime() != 1800 {
		t.Errorf("runtime = %g", row.RunTime())
	}
	if row.Metrics.CPUUsage < 0.5 {
		t.Errorf("metrics look unpopulated: %+v", row.Metrics)
	}
	if len(row.Hosts) != 2 {
		t.Errorf("hosts = %v", row.Hosts)
	}
}

func TestRunFleetParallelDeterministic(t *testing.T) {
	specs := []workload.Spec{
		spec("1", 1, 1200), spec("2", 2, 1800), spec("3", 1, 900), spec("4", 4, 1500),
	}
	db1, st1, err := RunFleet(specs, chip.StampedeNode(), 600, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	db4, st4, err := RunFleet(specs, chip.StampedeNode(), 600, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Jobs != 4 || st4.Jobs != 4 || st1.Failed != 0 {
		t.Fatalf("stats = %+v / %+v", st1, st4)
	}
	for _, s := range specs {
		a, b := db1.Get(s.JobID), db4.Get(s.JobID)
		if a == nil || b == nil {
			t.Fatalf("job %s missing", s.JobID)
		}
		if a.Metrics.Flops != b.Metrics.Flops || a.Metrics.CPUUsage != b.Metrics.CPUUsage {
			t.Errorf("job %s metrics differ across worker counts", s.JobID)
		}
	}
	if st1.CollectCost <= 0 || st1.NodeSeconds <= 0 {
		t.Errorf("accounting empty: %+v", st1)
	}
}

func TestRunFleetCountsFailures(t *testing.T) {
	bad := workload.Spec{JobID: "bad"} // invalid: no nodes/model
	_, st, err := RunFleet([]workload.Spec{bad, spec("ok", 1, 900)}, chip.StampedeNode(), 600, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 1 || st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRunFleetMixedRoutesLargemem(t *testing.T) {
	lm := spec("big", 1, 900)
	lm.Queue = "largemem"
	p := workload.MemoryBound("u1", "big.x")
	p.MemBytes = 600 << 30
	lm.Model = workload.Steady{Label: "largemem", P: p}
	db, st, err := RunFleetMixed([]workload.Spec{spec("a", 1, 900), lm}, 600, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	row := db.Get("big")
	if row == nil {
		t.Fatal("largemem job missing")
	}
	// A 600 GB footprint only fits on the 1 TB largemem node.
	if row.Metrics.MemUsage < 500<<30 {
		t.Errorf("largemem MemUsage = %g, want ~600 GiB", row.Metrics.MemUsage)
	}
}

func TestIngestStoreJoinsMetadata(t *testing.T) {
	st, err := rawfile.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chip.StampedeNode()
	// Simulate cron-mode collection for one job on one node.
	n, err := hwsim.NewNode("c401-101", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	col := collect.New(n)
	logger, err := rawfile.NewNodeLogger(t.TempDir()+"/spool", col.Header())
	if err != nil {
		t.Fatal(err)
	}
	tick := func(now float64, mark string) {
		t.Helper()
		snap, _ := col.Collect(now, []string{"55"}, mark)
		if err := logger.Log(snap); err != nil {
			t.Fatal(err)
		}
	}
	tick(1000, collect.JobMark(collect.MarkBegin, "55"))
	n.Advance(600, hwsim.Demand{CPUUserFrac: 0.7, IPC: 1})
	tick(1600, "")
	n.Advance(600, hwsim.Demand{CPUUserFrac: 0.7, IPC: 1})
	tick(2200, collect.JobMark(collect.MarkEnd, "55"))
	if err := logger.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.SyncFrom("c401-101", logger.Dir()); err != nil {
		t.Fatal(err)
	}

	db := reldb.New()
	meta := map[string]Meta{"55": MetaFromSpec(spec("55", 1, 1200))}
	ids, err := IngestStore(st, cfg.Registry(), meta, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "55" {
		t.Fatalf("ingested = %v", ids)
	}
	row := db.Get("55")
	if row.User != "u1" || row.Exe != "wrf.exe" {
		t.Errorf("metadata not joined: %+v", row)
	}
	if row.StartTime != 1000 || row.EndTime != 2200 {
		t.Errorf("bounds = %g/%g", row.StartTime, row.EndTime)
	}
	if row.Metrics.CPUUsage < 0.5 {
		t.Errorf("metrics = %+v", row.Metrics)
	}
}

func TestIngestStoreWithoutMetadata(t *testing.T) {
	st, err := rawfile.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chip.StampedeNode()
	n, _ := hwsim.NewNode("c1", cfg, 1)
	col := collect.New(n)
	s1, _ := col.Collect(0, []string{"9"}, "")
	n.Advance(600, hwsim.Demand{CPUUserFrac: 0.5, IPC: 1})
	s2, _ := col.Collect(600, []string{"9"}, "")
	arch := rawfile.NewArchiver(st, 0)
	for _, s := range []model.Snapshot{s1, s2} {
		if err := arch.Append("c1", col.Header(), s); err != nil {
			t.Fatal(err)
		}
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	db := reldb.New()
	ids, err := IngestStore(st, cfg.Registry(), nil, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("ingested = %v", ids)
	}
	row := db.Get("9")
	if row.Nodes != 1 {
		t.Errorf("nodes fallback = %d", row.Nodes)
	}
	if row.User != "" {
		t.Errorf("unexpected metadata: %+v", row)
	}
}

func TestDefaultNodeConfig(t *testing.T) {
	if DefaultNodeConfig("largemem").MemBytes != 1<<40 {
		t.Error("largemem queue not routed to largemem node")
	}
	if DefaultNodeConfig("normal").MemBytes != 32<<30 {
		t.Error("normal queue not routed to stampede node")
	}
}

// TestIngestStoreCreditsFleetVecWidth archives a job run on Nehalem
// (SSE, two flops per vector instruction) to a raw store and ingests it
// as jobetl -arch nehalem does: the row's Flops must be the ones
// BuildRow gives the same run at the fleet's width, not the AVX ones.
func TestIngestStoreCreditsFleetVecWidth(t *testing.T) {
	cfg, err := chip.Fleet("nehalem")
	if err != nil {
		t.Fatal(err)
	}
	reg := cfg.Registry()
	s := spec("61", 2, 1800)
	s.Model = workload.Steady{Label: "v", P: workload.VectorizedCompute("u1", "old.x", 0.6)}
	run, err := cluster.RunJob(s, cfg, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildRow(run, reg, cfg.Desc.VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rawfile.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	arch := rawfile.NewArchiver(st, 0)
	for _, snap := range run.Snapshots {
		if err := arch.Append(snap.Host, rawfile.Header{Hostname: snap.Host, Arch: string(cfg.Desc.Arch), Registry: reg}, snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	db := reldb.New()
	if ids, err := IngestStoreJournaled(st, reg, cfg.Desc.VecWidth, nil, db, nil); err != nil || len(ids) != 1 {
		t.Fatalf("ingested %v, err %v", ids, err)
	}
	got := db.Get("61").Metrics.Flops
	if got == 0 || got != want.Metrics.Flops {
		t.Fatalf("ingested Flops %g, BuildRow at width %d gives %g", got, cfg.Desc.VecWidth, want.Metrics.Flops)
	}
}
