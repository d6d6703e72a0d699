package gostats

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"gostats/internal/acct"
	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/collect"
	"gostats/internal/etl"
	"gostats/internal/flagging"
	"gostats/internal/hwsim"
	"gostats/internal/lustresim"
	"gostats/internal/model"
	"gostats/internal/portal"
	"gostats/internal/rawfile"
	"gostats/internal/reldb"
	"gostats/internal/report"
	"gostats/internal/workload"
	"gostats/internal/xalt"
)

// TestEndToEndCronDeployment drives the whole Fig 1 deployment in one
// test: a cluster with a shared filesystem runs a mixed day of jobs under
// cron-mode collection; spools rsync to the central store; the ETL maps,
// reduces and joins accounting metadata; the portal serves the result;
// and the consulting report renders with targeted advice.
func TestEndToEndCronDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end deployment test skipped in -short mode")
	}
	tmp := t.TempDir()
	store, err := rawfile.NewStore(filepath.Join(tmp, "central"))
	if err != nil {
		t.Fatal(err)
	}

	eng, err := cluster.NewEngine(8, chip.StampedeNode(), 600, 21)
	if err != nil {
		t.Fatal(err)
	}
	eng.FS = lustresim.New(lustresim.DefaultConfig())
	spoolOf := func(host string) string { return filepath.Join(tmp, "spool", host) }
	eng.NewSink = func(n *hwsim.Node, col *collect.Collector) (cluster.Sink, error) {
		logger, err := rawfile.NewNodeLogger(spoolOf(n.Host()), col.Header())
		if err != nil {
			return nil, err
		}
		return &loggerSink{logger}, nil
	}
	eng.SyncHook = func(host string, now float64) error {
		return store.SyncFrom(host, spoolOf(host))
	}

	// Accounting + XALT capture on job end, as the scheduler would.
	var acctBuf strings.Builder
	acctW := acct.NewWriter(&acctBuf)
	xdb := xalt.NewDB()
	eng.OnJobEnd = func(spec workload.Spec, start, end float64, hosts []string) error {
		if err := xdb.Put(xalt.Capture(spec.JobID, spec.Exe, spec.User, false, 21)); err != nil {
			return err
		}
		return acctW.Append(acct.FromSpec(spec, start, end, hosts))
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	// A clean job, a metadata storm, and an idle-node job.
	mk := func(id, user string, m workload.Model, nodes int) workload.Spec {
		return workload.Spec{
			JobID: id, User: user, Exe: "wrf.exe", Queue: "normal",
			Nodes: nodes, Wayness: 16, Runtime: 3 * 3600,
			Status: workload.StatusCompleted, Model: m,
		}
	}
	eng.Submit(
		mk("clean", "u100", workload.Steady{Label: "wrf", P: workload.WRFProfile("u100")}, 2),
		mk("storm", "u042", workload.PathologicalWRF("u042"), 2),
		mk("halfidle", "u200", workload.IdleNodes{
			Inner: workload.Steady{Label: "v", P: workload.VectorizedCompute("u200", "a.out", 0.8)},
			Idle:  1,
		}, 2),
	)
	if err := eng.Run(86400); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if eng.Finished != 3 {
		t.Fatalf("finished = %d", eng.Finished)
	}
	for _, host := range eng.Nodes() {
		if err := store.SyncFrom(host, spoolOf(host)); err != nil {
			t.Fatal(err)
		}
	}

	// ETL with the accounting join.
	recs, err := acct.Parse(strings.NewReader(acctBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("accounting records = %d", len(recs))
	}
	meta := map[string]etl.Meta{}
	for _, r := range recs {
		meta[r.JobID] = etl.MetaFromAcct(r)
	}
	db := reldb.New()
	reg := chip.StampedeNode().Registry()
	ids, err := etl.IngestStore(store, reg, meta, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ingested = %v", ids)
	}

	// The metrics tell the right stories.
	storm := db.Get("storm")
	if storm.User != "u042" {
		t.Errorf("acct join failed: %+v", storm)
	}
	if storm.Metrics.MetaDataRate < 1e5 {
		t.Errorf("storm MetaDataRate = %g", storm.Metrics.MetaDataRate)
	}
	clean := db.Get("clean")
	if clean.Metrics.CPUUsage < 0.7 {
		t.Errorf("clean CPU = %g", clean.Metrics.CPUUsage)
	}
	// The clean job shares the MDS with the storm: its metadata waits
	// must exceed the unloaded baseline (emergent interference).
	if clean.Metrics.MDCWait <= lustresim.DefaultConfig().BaseMDSWaitUs {
		t.Errorf("clean MDCWait = %g, want interference above %g",
			clean.Metrics.MDCWait, lustresim.DefaultConfig().BaseMDSWaitUs)
	}
	half := db.Get("halfidle")
	if half.Metrics.Idle > 0.1 {
		t.Errorf("halfidle Idle = %g", half.Metrics.Idle)
	}

	// Flag sweep finds both pathologies.
	rep, err := flagging.Sweep(db, flagging.Default(flagging.DefaultThresholds()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ByJob["storm"]) == 0 || len(rep.ByJob["halfidle"]) == 0 {
		t.Errorf("flags = %+v", rep.ByJob)
	}

	// The portal serves it all, with Fig 5 plots from the raw archive.
	srv := portal.NewServer(db, reg, portal.StoreSeries(store))
	srv.XALT = xdb
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := httpGet(t, ts.URL+"/jobs?exe=wrf.exe")
	if !strings.Contains(body, "3 jobs match") || !strings.Contains(body, "high_metadata_rate") {
		t.Errorf("portal jobs page wrong:\n%s", body[:200])
	}
	detail := httpGet(t, ts.URL+"/job/storm")
	for _, want := range []string{"Per-node time series", "Environment (XALT)", "FAIL"} {
		if !strings.Contains(detail, want) {
			t.Errorf("detail page missing %q", want)
		}
	}

	// And the consulting report gives the §V-B advice.
	xrec, _ := xdb.Get("storm")
	text := report.Job(storm, flagging.Default(flagging.DefaultThresholds()), &xrec)
	if !strings.Contains(text, "open files once") {
		t.Errorf("report missing targeted advice:\n%s", text)
	}
}

type loggerSink struct{ logger *rawfile.NodeLogger }

func (s *loggerSink) Handle(snap model.Snapshot) error { return s.logger.Log(snap) }
func (s *loggerSink) Close() error                     { return s.logger.Close() }

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
