package flagging

import (
	"testing"

	"gostats/internal/core"
	"gostats/internal/reldb"
)

func cleanRow(id string) *reldb.JobRow {
	return &reldb.JobRow{
		JobID: id, User: "u1", Exe: "a.out", Queue: "normal", Status: "COMPLETED",
		Nodes: 4, StartTime: 0, EndTime: 3600,
		Metrics: core.Summary{
			CPUUsage: 0.9, Idle: 0.95, Catastrophe: 0.9, CPI: 0.8,
			MetaDataRate: 100, GigEBW: 1e3, MemUsage: 8 << 30,
		},
	}
}

func TestCleanJobRaisesNothing(t *testing.T) {
	flags := Default(DefaultThresholds())
	if got := Evaluate(flags, cleanRow("1")); len(got) != 0 {
		t.Errorf("clean job flagged: %v", got)
	}
}

func TestEachFlagFires(t *testing.T) {
	flags := Default(DefaultThresholds())
	cases := []struct {
		name  string
		tweak func(*reldb.JobRow)
	}{
		{"high_metadata_rate", func(r *reldb.JobRow) { r.Metrics.MetaDataRate = 500000 }},
		{"gige_mpi", func(r *reldb.JobRow) { r.Metrics.GigEBW = 100e6 }},
		{"largemem_waste", func(r *reldb.JobRow) { r.Queue = "largemem"; r.Metrics.MemUsage = 4 << 30 }},
		{"idle_nodes", func(r *reldb.JobRow) { r.Metrics.Idle = 0.001 }},
		{"usage_swing", func(r *reldb.JobRow) { r.Metrics.Catastrophe = 0.01 }},
		{"high_cpi", func(r *reldb.JobRow) { r.Metrics.CPI = 3.0 }},
		{"low_cpu_usage", func(r *reldb.JobRow) { r.Metrics.CPUUsage = 0.1 }},
	}
	for _, c := range cases {
		r := cleanRow("x")
		c.tweak(r)
		got := Evaluate(flags, r)
		found := false
		for _, g := range got {
			if g == c.name {
				found = true
			}
		}
		if !found {
			t.Errorf("%s did not fire: raised %v", c.name, got)
		}
	}
}

func TestLargememLegitimateUseNotFlagged(t *testing.T) {
	flags := Default(DefaultThresholds())
	r := cleanRow("big")
	r.Queue = "largemem"
	r.Metrics.MemUsage = 600 << 30
	for _, g := range Evaluate(flags, r) {
		if g == "largemem_waste" {
			t.Error("legitimate largemem job flagged")
		}
	}
}

func TestIdleNodesRequiresMultiNode(t *testing.T) {
	flags := Default(DefaultThresholds())
	r := cleanRow("solo")
	r.Nodes = 1
	r.Metrics.Idle = 0.0001
	for _, g := range Evaluate(flags, r) {
		if g == "idle_nodes" {
			t.Error("single-node job flagged for idle nodes")
		}
	}
}

func TestSweepAndReport(t *testing.T) {
	db := reldb.New()
	db.Insert(cleanRow("1"), cleanRow("2"))
	bad := cleanRow("3")
	bad.Metrics.MetaDataRate = 1e6
	bad.Metrics.CPUUsage = 0.05
	db.Insert(bad)

	rep, err := Sweep(db, Default(DefaultThresholds()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 3 {
		t.Errorf("total = %d", rep.Total)
	}
	if len(rep.ByJob) != 1 {
		t.Errorf("flagged = %v", rep.ByJob)
	}
	if len(rep.ByJob["3"]) != 2 {
		t.Errorf("job 3 flags = %v", rep.ByJob["3"])
	}
	if rep.Counts["high_metadata_rate"] != 1 {
		t.Errorf("counts = %v", rep.Counts)
	}
	if f := rep.Fraction("high_metadata_rate"); f < 0.33 || f > 0.34 {
		t.Errorf("fraction = %g", f)
	}
	// Filtered sweep.
	rep, err = Sweep(db, Default(DefaultThresholds()), reldb.F("jobid", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 1 || len(rep.ByJob) != 0 {
		t.Errorf("filtered sweep = %+v", rep)
	}
	if _, err := Sweep(db, nil, reldb.F("bogus", 1)); err == nil {
		t.Error("bad filter accepted")
	}
}

func TestEmptyReportFraction(t *testing.T) {
	r := &Report{Counts: map[string]int{}}
	if r.Fraction("x") != 0 {
		t.Error("empty report fraction != 0")
	}
}
