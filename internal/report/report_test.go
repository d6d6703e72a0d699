package report

import (
	"strings"
	"testing"

	"gostats/internal/core"
	"gostats/internal/flagging"
	"gostats/internal/reldb"
	"gostats/internal/xalt"
)

func cleanRow() *reldb.JobRow {
	return &reldb.JobRow{
		JobID: "4001", User: "u042", Account: "TG-u042", Exe: "wrf.exe",
		Queue: "normal", Status: "COMPLETED", Nodes: 4, Wayness: 16,
		SubmitTime: 0, StartTime: 600, EndTime: 8 * 3600,
		Hosts: []string{"c401-101", "c401-102"},
		Metrics: core.Summary{
			CPUUsage: 0.85, CPI: 0.9, Flops: 2e10, VecPercent: 0.5,
			MemBW: 1e10, MemUsage: 40 << 30, Idle: 0.95, Catastrophe: 0.9,
			MDCReqs: 3, MetaDataRate: 100, LLiteOpenClose: 2,
			LnetAveBW: 1e6, InternodeIBAveBW: 1e8, PacketSize: 2048,
			PkgWatts: 200, CoreWatts: 140, DRAMWatts: 20,
		},
	}
}

// raisedBy is the set of default flags the job raises.
func raisedBy(r *reldb.JobRow) map[string]bool {
	raised := map[string]bool{}
	for _, name := range flagging.Evaluate(flagging.Default(flagging.DefaultThresholds()), r) {
		raised[name] = true
	}
	return raised
}

func TestRecommendCleanJobIsQuiet(t *testing.T) {
	if got := Recommend(cleanRow(), raisedBy(cleanRow()), nil); len(got) != 0 {
		t.Errorf("clean job advised: %+v", got)
	}
}

func TestRecommendRules(t *testing.T) {
	cases := []struct {
		issue string
		tweak func(*reldb.JobRow)
	}{
		{"file open/close loop", func(r *reldb.JobRow) { r.Metrics.LLiteOpenClose = 30884 }},
		{"metadata server abuse", func(r *reldb.JobRow) { r.Metrics.MetaDataRate = 5e5 }},
		{"MPI over Ethernet", func(r *reldb.JobRow) { r.Metrics.GigEBW = 1e8 }},
		{"largemem queue misuse", func(r *reldb.JobRow) { r.Queue = "largemem"; r.Metrics.MemUsage = 4 << 30 }},
		{"idle reserved nodes", func(r *reldb.JobRow) { r.Metrics.Idle = 0.001 }},
		{"unvectorized floating point", func(r *reldb.JobRow) { r.Metrics.VecPercent = 0.001 }},
		{"high cycles per instruction", func(r *reldb.JobRow) { r.Metrics.CPI = 2.5 }},
		{"sudden performance change", func(r *reldb.JobRow) { r.Metrics.Catastrophe = 0.01 }},
	}
	for _, c := range cases {
		r := cleanRow()
		c.tweak(r)
		got := Recommend(r, raisedBy(r), nil)
		found := false
		for _, a := range got {
			if a.Issue == c.issue {
				found = true
				if a.Evidence == "" || a.Suggestion == "" {
					t.Errorf("%s: advice incomplete: %+v", c.issue, a)
				}
			}
		}
		if !found {
			t.Errorf("%s: rule did not fire (got %+v)", c.issue, got)
		}
	}
}

func TestRecommendUsesXALTForVectorization(t *testing.T) {
	r := cleanRow()
	r.Metrics.VecPercent = 0.001
	x := xalt.Capture(r.JobID, r.Exe, r.User, false, 1)
	got := Recommend(r, raisedBy(r), &x)
	found := false
	for _, a := range got {
		if a.Issue == "unvectorized floating point" {
			found = true
			if !strings.Contains(a.Suggestion, "-xAVX") {
				t.Errorf("xalt-aware suggestion missing compile flag: %q", a.Suggestion)
			}
			if !strings.Contains(a.Evidence, "SSE2") {
				t.Errorf("evidence lacks XALT ISA: %q", a.Evidence)
			}
		}
	}
	if !found {
		t.Fatal("vectorization rule did not fire")
	}
}

func TestRecommendFailedJobAdvice(t *testing.T) {
	r := cleanRow()
	r.Status = "FAILED"
	r.Metrics.Catastrophe = 0.01
	got := Recommend(r, raisedBy(r), nil)
	ok := false
	for _, a := range got {
		if strings.Contains(a.Suggestion, "died mid-run") {
			ok = true
		}
	}
	if !ok {
		t.Errorf("failed-job advice missing: %+v", got)
	}
}

func TestJobReportSections(t *testing.T) {
	r := cleanRow()
	r.Metrics.LLiteOpenClose = 30884
	r.Metrics.MICUsage = 0.2
	x := xalt.Capture(r.JobID, r.Exe, r.User, true, 1)
	flags := flagging.Default(flagging.DefaultThresholds())
	text := Job(r, flags, &x)
	for _, want := range []string{
		"Job 4001 resource use profile",
		"-- computation --",
		"-- I/O and network --",
		"-- energy --",
		"-- environment (XALT) --",
		"-- checks --",
		"-- targeted advice --",
		"open files once",
		"MIC usage",
		"netcdf", // wrf links netcdf per xalt
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestJobAdviceFollowsThresholds: the advice comes from the checks
// that ran, so a lowered metadata limit both fails the check and
// advises on it, and a raised one does neither.
func TestJobAdviceFollowsThresholds(t *testing.T) {
	r := cleanRow()
	r.Metrics.MetaDataRate = 1000
	for _, c := range []struct {
		limit  float64
		raised bool
	}{{500, true}, {10000, false}} {
		th := flagging.DefaultThresholds()
		th.MetaDataRate = c.limit
		text := Job(r, flagging.Default(th), nil)
		failed := strings.Contains(text, "[FAIL] high_metadata_rate")
		advised := strings.Contains(text, "metadata server abuse")
		if failed != c.raised || advised != c.raised {
			t.Errorf("limit %g at 1000 req/s: FAIL line %v, advice %v, want both %v\n%s",
				c.limit, failed, advised, c.raised, text)
		}
	}
}

func TestJobReportHealthy(t *testing.T) {
	text := Job(cleanRow(), flagging.Default(flagging.DefaultThresholds()), nil)
	if !strings.Contains(text, "looks healthy") {
		t.Error("healthy job report missing all-clear")
	}
	if strings.Contains(text, "XALT") {
		t.Error("report shows XALT section without a record")
	}
}

func TestFleetSummary(t *testing.T) {
	db := reldb.New()
	db.Insert(cleanRow())
	bad := cleanRow()
	bad.JobID = "4002"
	bad.Metrics.MetaDataRate = 1e6
	db.Insert(bad)
	text, err := FleetSummary(db, flagging.Default(flagging.DefaultThresholds()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "2 jobs, 1 flagged") {
		t.Errorf("summary header wrong: %s", text)
	}
	if !strings.Contains(text, "high_metadata_rate") {
		t.Errorf("summary missing flag counts: %s", text)
	}
}
