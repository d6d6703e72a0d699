package portal

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/collect"
	"gostats/internal/core"
	"gostats/internal/etl"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/reldb"
	"gostats/internal/schema"
	"gostats/internal/stats"
	"gostats/internal/telemetry"
	"gostats/internal/trace"
	"gostats/internal/workload"
	"gostats/internal/xalt"
)

// buildPortal assembles a portal over a small simulated population with
// real per-job series for one job.
func buildPortal(t *testing.T) (*Server, string) {
	t.Helper()
	cfg := chip.StampedeNode()
	db := reldb.New()
	seriesData := map[string]*model.JobData{}

	mk := func(id, user, exe string, nodes int, runtime float64, m workload.Model) {
		spec := workload.Spec{
			JobID: id, User: user, Exe: exe, Queue: "normal", Nodes: nodes,
			Wayness: 16, Runtime: runtime, Status: workload.StatusCompleted,
			Model: m,
		}
		run, err := cluster.RunJob(spec, cfg, 600, 13)
		if err != nil {
			t.Fatal(err)
		}
		row, err := etl.BuildRow(run, cfg.Registry(), cfg.Desc.VecWidth)
		if err != nil {
			t.Fatal(err)
		}
		db.Insert(row)
		seriesData[id] = run.JobData()
	}
	mk("100", "u042", "wrf.exe", 2, 3000, workload.PathologicalWRF("u042"))
	mk("101", "u100", "wrf.exe", 4, 3000, workload.Steady{Label: "wrf", P: workload.WRFProfile("u100")})
	mk("102", "u101", "namd2", 2, 1800, workload.Steady{Label: "v", P: workload.VectorizedCompute("u101", "namd2", 0.8)})

	s := NewServer(db, cfg.Registry(), func(id string) (*model.JobData, error) {
		return seriesData[id], nil
	})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv.URL
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

func TestIndexPage(t *testing.T) {
	_, url := buildPortal(t)
	code, body := get(t, url+"/")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"Search fields", "metadatarate", "cpu_usage", "3 jobs"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestJobIDRedirect(t *testing.T) {
	_, url := buildPortal(t)
	client := &http.Client{CheckRedirect: func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(url + "/?jobid=100")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound || resp.Header.Get("Location") != "/job/100" {
		t.Errorf("redirect = %d %q", resp.StatusCode, resp.Header.Get("Location"))
	}
}

func TestJobsQueryWithHistogramsAndFlags(t *testing.T) {
	_, url := buildPortal(t)
	code, body := get(t, url+"/jobs?exe=wrf.exe&field1=runtime&op1=gte&val1=600")
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	if !strings.Contains(body, "2 jobs match") {
		t.Errorf("wrong match count: %s", body[:200])
	}
	// Four histogram SVGs (Fig 4).
	if n := strings.Count(body, "<svg"); n != 4 {
		t.Errorf("svg count = %d, want 4", n)
	}
	// The pathological job must appear in the flagged sublist.
	if !strings.Contains(body, "Flagged jobs") || !strings.Contains(body, "high_metadata_rate") {
		t.Error("pathological job not flagged on query page")
	}
	// Job rows link to detail pages.
	if !strings.Contains(body, `href="/job/100"`) {
		t.Error("job links missing")
	}
}

func TestJobsBadQuery(t *testing.T) {
	_, url := buildPortal(t)
	code, _ := get(t, url+"/jobs?field1=runtime&val1=abc")
	if code != http.StatusBadRequest {
		t.Errorf("bad value status = %d", code)
	}
	code, _ = get(t, url+"/jobs?field1=bogus&val1=1")
	if code != http.StatusBadRequest {
		t.Errorf("bad field status = %d", code)
	}
	code, _ = get(t, url+"/jobs?start=xyz")
	if code != http.StatusBadRequest {
		t.Errorf("bad start status = %d", code)
	}
}

func TestJobDetailPage(t *testing.T) {
	_, url := buildPortal(t)
	code, body := get(t, url+"/job/100")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"Job 100", "u042", "wrf.exe", "MetaDataRate", "Metric checks",
		"Per-node time series", "Gigaflops", "CPU User Fraction",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("detail missing %q", want)
		}
	}
	// Six Fig 5 panels.
	if n := strings.Count(body, "<svg"); n != 6 {
		t.Errorf("panel count = %d, want 6", n)
	}
	// The metadata check must FAIL for the pathological job.
	if !strings.Contains(body, "FAIL") {
		t.Error("no failed checks for pathological job")
	}
}

func TestJobDetailNotFound(t *testing.T) {
	_, url := buildPortal(t)
	code, _ := get(t, url+"/job/999999")
	if code != http.StatusNotFound {
		t.Errorf("status = %d", code)
	}
}

func TestFieldsAPI(t *testing.T) {
	_, url := buildPortal(t)
	code, body := get(t, url+"/api/fields")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var fields []string
	if err := json.Unmarshal([]byte(body), &fields); err != nil {
		t.Fatal(err)
	}
	if len(fields) < 25 {
		t.Errorf("fields = %d", len(fields))
	}
}

func TestJobsAPI(t *testing.T) {
	_, url := buildPortal(t)
	code, body := get(t, url+"/api/jobs?exe=wrf.exe")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var rows []map[string]interface{}
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("api rows = %d", len(rows))
	}
	if rows[0]["jobid"] == "" {
		t.Errorf("row = %v", rows[0])
	}
}

func TestPanelSVGShapes(t *testing.T) {
	p := core.Panel{
		Name: "Test", Unit: "GF/s",
		Times: []float64{0, 600, 1200},
		Nodes: []core.NodeSeries{
			{Host: "a", Values: []float64{1, 2, 3}},
			{Host: "b", Values: []float64{3, 2, 1}},
		},
	}
	svg := PanelSVG(p)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Error("not an svg")
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Errorf("polyline count = %d", strings.Count(svg, "<polyline"))
	}
	// Empty panel renders a placeholder, not a panic.
	empty := PanelSVG(core.Panel{Name: "Empty"})
	if !strings.Contains(empty, "no data") {
		t.Error("empty panel missing placeholder")
	}
	// Single-point series renders a dot.
	dot := PanelSVG(core.Panel{Name: "Dot", Times: []float64{5},
		Nodes: []core.NodeSeries{{Host: "a", Values: []float64{1}}}})
	if !strings.Contains(dot, "<circle") {
		t.Error("single point not rendered as circle")
	}
}

func TestHistogramSVG(t *testing.T) {
	h := stats.NewHistogram(0, 10, 5)
	for i := 0; i < 20; i++ {
		h.Add(float64(i % 10))
	}
	svg := HistogramSVG(h, "Run Time")
	if strings.Count(svg, "<rect") != 5 {
		t.Errorf("rect count = %d", strings.Count(svg, "<rect"))
	}
	if !strings.Contains(svg, "Run Time (n=20)") {
		t.Error("title missing")
	}
	// Empty histogram renders without division by zero.
	empty := HistogramSVG(stats.NewHistogram(0, 1, 3), "Empty")
	if !strings.Contains(empty, "<svg") {
		t.Error("empty histogram failed to render")
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{
		5:     "5",
		1500:  "1.5k",
		2.5e6: "2.5M",
		3e9:   "3G",
	}
	for v, want := range cases {
		if got := fmtTick(v); got != want {
			t.Errorf("fmtTick(%g) = %q, want %q", v, got, want)
		}
	}
}

func ExampleHistogramSVG() {
	h := stats.NewHistogram(0, 4, 2)
	h.Add(1)
	svg := HistogramSVG(h, "demo")
	fmt.Println(strings.Contains(svg, "demo (n=1)"))
	// Output: true
}

func TestDatesPage(t *testing.T) {
	_, url := buildPortal(t)
	code, body := get(t, url+"/dates")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "day 0") {
		t.Errorf("dates page missing day rows: %s", body)
	}
	if !strings.Contains(body, "/jobs?start=0&amp;end=86400") &&
		!strings.Contains(body, "/jobs?start=0&end=86400") {
		t.Error("dates page missing day links")
	}
}

func TestUserPage(t *testing.T) {
	_, url := buildPortal(t)
	code, body := get(t, url+"/user/u042")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"User u042", "node-hours", "wrf.exe"} {
		if !strings.Contains(body, want) {
			t.Errorf("user page missing %q", want)
		}
	}
	code, _ = get(t, url+"/user/ghost")
	if code != http.StatusNotFound {
		t.Errorf("unknown user status = %d", code)
	}
}

func TestEnergyPage(t *testing.T) {
	_, url := buildPortal(t)
	code, body := get(t, url+"/energy")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"Energy use", "kWh total", "DRAM", "Top consumers"} {
		if !strings.Contains(body, want) {
			t.Errorf("energy page missing %q", want)
		}
	}
}

func TestDetailPageShowsXALT(t *testing.T) {
	s, url := buildPortal(t)
	s.XALT = xalt.NewDB()
	rec := xalt.Capture("100", "wrf.exe", "u042", false, 1)
	if err := s.XALT.Put(rec); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, url+"/job/100")
	for _, want := range []string{"Environment (XALT)", "netcdf", rec.Compiler} {
		if !strings.Contains(body, want) {
			t.Errorf("detail page missing %q", want)
		}
	}
	// A job without a record degrades gracefully.
	_, body = get(t, url+"/job/101")
	if strings.Contains(body, "Environment (XALT)") {
		t.Error("XALT section shown without a record")
	}
}

func TestAPILag(t *testing.T) {
	s, url := buildPortal(t)

	// No recorder wired: the endpoint degrades to an empty summary.
	code, body := get(t, url+"/api/lag")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var empty trace.LagSummary
	if err := json.Unmarshal([]byte(body), &empty); err != nil {
		t.Fatalf("bad empty lag JSON %q: %v", body, err)
	}
	if len(empty.Stages) != 0 || len(empty.Hosts) != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}

	// Wire a recorder and run two snapshots through simulated hops.
	rec := trace.NewRecorder(telemetry.NewRegistry())
	now := int64(1e12)
	rec.Now = func() int64 { now += 3_000_000; return now }
	for _, host := range []string{"c1", "c2"} {
		snap := model.Snapshot{Host: host}
		rec.Stamp(&snap, model.StageCollect)
		rec.Stamp(&snap, model.StagePublish)
		rec.Stamp(&snap, model.StageBrokerDeliver)
		rec.Stamp(&snap, model.StageStoreIngest)
		rec.MarkQueryable(host, snap)
	}
	s.Lag = rec

	code, body = get(t, url+"/api/lag")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var sum trace.LagSummary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatalf("bad lag JSON %q: %v", body, err)
	}
	if len(sum.Stages) != 3 {
		t.Fatalf("stages = %+v, want publish/broker_deliver/store_ingest", sum.Stages)
	}
	for _, st := range sum.Stages {
		if st.Count != 2 || st.MeanSeconds <= 0 {
			t.Errorf("stage %s: count %d mean %g", st.Stage, st.Count, st.MeanSeconds)
		}
	}
	if len(sum.Hosts) != 2 || sum.Hosts[0].Host != "c1" || sum.Hosts[1].Host != "c2" {
		t.Fatalf("hosts = %+v", sum.Hosts)
	}
	for _, h := range sum.Hosts {
		if h.FreshnessSeconds <= 0 || h.NewestOriginUnixNs == 0 {
			t.Errorf("host %s freshness = %+v", h.Host, h)
		}
	}
}

// StoreSeries resolves a job's plots from a cron-mode raw store: collect
// on two nodes, spool, sync, then fold the job's labeled snapshots.
func TestStoreSeries(t *testing.T) {
	st, err := rawfile.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, host := range []string{"c401-101", "c401-102"} {
		n, err := hwsim.NewNode(host, chip.StampedeNode(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		agent, err := collect.NewCronAgent(collect.New(n), t.TempDir()+"/"+host)
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Tick(100, []string{"77"}, collect.JobMark(collect.MarkBegin, "77")); err != nil {
			t.Fatal(err)
		}
		n.Advance(600, hwsim.Demand{CPUUserFrac: 0.5, IPC: 1})
		if err := agent.Tick(700, []string{"77"}, collect.JobMark(collect.MarkEnd, "77")); err != nil {
			t.Fatal(err)
		}
		if err := agent.Tick(1300, nil, ""); err != nil {
			t.Fatal(err)
		}
		if err := agent.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.SyncFrom(host, agent.Logger.Dir()); err != nil {
			t.Fatal(err)
		}
	}
	series := StoreSeries(st)
	jd, err := series("77")
	if err != nil {
		t.Fatal(err)
	}
	if jd == nil || len(jd.Hosts) != 2 {
		t.Fatalf("job 77 series = %+v", jd)
	}
	for host, hd := range jd.Hosts {
		if n := len(hd.Series[schema.ClassCPU]["0"].Samples); n != 2 {
			t.Errorf("host %s: %d cpu samples, want 2 (unlabeled tick excluded)", host, n)
		}
	}
	if jd, err := series("78"); err != nil || jd != nil {
		t.Errorf("unknown job = %+v, %v; want nil", jd, err)
	}
}
