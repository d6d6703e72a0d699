// Package portal is gostats' web front end — the Django application of
// §IV-B rebuilt on net/http. It serves the Fig 3 search page (metadata
// plus up to three metric Search fields with comparison suffixes), job
// lists with the Fig 4 histogram quartet and the flagged-jobs sublist,
// and per-job detail pages with the Fig 5 per-node plots, the metric
// pass/fail report, and procfs process data.
package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"

	"gostats/internal/analysis"
	"gostats/internal/core"
	"gostats/internal/flagging"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/reldb"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
	"gostats/internal/trace"
	"gostats/internal/tsdb"
	"gostats/internal/xalt"
)

// SeriesSource resolves the assembled per-host series of a job for the
// detail page plots; nil means plots are unavailable (metadata only).
type SeriesSource func(jobID string) (*model.JobData, error)

// StoreSeries resolves a job's series from a central raw store: one
// lenient Store.Walk folding every snapshot labeled with the job id (a
// shared node's snapshots count for each of its jobs). A job with no
// archived samples resolves to nil.
func StoreSeries(st *rawfile.Store) SeriesSource {
	return func(jobID string) (*model.JobData, error) {
		jd := model.NewJobData(jobID)
		if _, err := st.Walk(func(s model.Snapshot) error {
			if slices.Contains(s.JobIDs, jobID) {
				jd.AddSnapshot(s)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if len(jd.Hosts) == 0 {
			return nil, nil
		}
		return jd, nil
	}
}

// Server is the portal.
type Server struct {
	DB     *reldb.DB
	Reg    *schema.Registry
	Flags  []flagging.Flag
	Series SeriesSource
	// XALT, if set, supplies per-job environment records for the detail
	// page (modules, libraries, compiler) — the optional plugin of
	// §IV-B.
	XALT *xalt.DB
	// Metrics selects the registry request telemetry lands in; set
	// before the first request. Nil uses telemetry.Default().
	Metrics *telemetry.Registry
	// Cache is the generation-stamped response cache for the list and
	// aggregate pages; set it to nil (before the first request) to
	// disable caching.
	Cache *Cache
	// Lag, if set, backs the /api/lag endpoint with the ingest
	// pipeline's provenance recorder (per-stage latencies and per-host
	// freshness). Nil serves an empty summary.
	Lag *trace.Recorder
	// TSDB, if set, backs the /api/v1 metric routes (time-range queries,
	// top-N rankings, gauges). Nil answers those routes 503.
	TSDB *tsdb.DB
	// Limiter, if set, rate-limits every /api/v1 route per client
	// (X-Client-ID header, else peer host) with 429 + Retry-After. The
	// limiter sits outside the response cache, so rejected requests
	// never populate or evict cache entries. Nil means unlimited.
	Limiter *Limiter
	mux     *http.ServeMux
}

// NewServer builds a portal over the given job table.
func NewServer(db *reldb.DB, reg *schema.Registry, series SeriesSource) *Server {
	s := &Server{
		DB:     db,
		Reg:    reg,
		Flags:  flagging.Default(flagging.DefaultThresholds()),
		Series: series,
		Cache:  NewCache(512),
		mux:    http.NewServeMux(),
	}
	s.mux.HandleFunc("/", s.instrument("/", s.handleIndex))
	s.mux.HandleFunc("/jobs", s.instrument("/jobs", s.cacheable("/jobs", s.handleJobs)))
	s.mux.HandleFunc("/job/", s.instrument("/job/", s.limit(s.handleJobDetail)))
	s.mux.HandleFunc("/dates", s.instrument("/dates", s.cacheable("/dates", s.handleDates)))
	s.mux.HandleFunc("/user/", s.instrument("/user/", s.handleUser))
	s.mux.HandleFunc("/energy", s.instrument("/energy", s.cacheable("/energy", s.handleEnergy)))
	s.mux.HandleFunc("/api/fields", s.instrument("/api/fields", s.handleFields))
	s.mux.HandleFunc("/api/jobs", s.instrument("/api/jobs", s.cacheable("/api/jobs", s.handleAPIJobs)))
	// /api/lag is live pipeline state, never cached.
	s.mux.HandleFunc("/api/lag", s.instrument("/api/lag", s.handleAPILag))
	// The versioned query API. Wrapping order matters: the limiter sits
	// outside the cache so a 429 never renders or poisons an entry, and
	// each route's cache is stamped by the generation of the store that
	// actually backs it (job table vs metric store).
	jobGen := func() uint64 { return s.DB.Generation() }
	for route, h := range map[string]struct {
		gen func() uint64
		h   http.HandlerFunc
	}{
		"/api/v1/jobs":      {jobGen, s.handleV1Jobs},
		"/api/v1/top/jobs":  {jobGen, s.handleV1TopJobs},
		"/api/v1/metrics":   {s.tsdbGen, s.handleV1Metrics},
		"/api/v1/top/hosts": {s.tsdbGen, s.handleV1TopHosts},
		"/api/v1/gauges":    {s.tsdbGen, s.handleV1Gauges},
	} {
		s.mux.HandleFunc(route, s.instrument(route, s.limit(s.cacheableGen(route, h.gen, h.h))))
	}
	return s
}

// registry returns the telemetry registry requests are recorded in.
func (s *Server) registry() *telemetry.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return telemetry.Default()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request count/latency/status
// telemetry, labeled by the mux route pattern (not the raw URL, which
// would explode series cardinality).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reg := s.registry()
		timer := reg.Histogram("gostats_portal_request_seconds",
			"Portal request latency by route.", telemetry.LatencyBuckets,
			"route", route).Start()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		timer.Stop()
		reg.Counter("gostats_portal_requests_total",
			"Portal requests by route and status.",
			"route", route, "status", strconv.Itoa(sw.status)).Inc()
	}
}

// parseFilters converts request query parameters into reldb filters.
// Supported: exe, user, queue, status (exact); jobid (redirect target);
// fieldN/opN/valN triples (N = 1..3) for the portal Search fields;
// start/end bounds on job end time.
func parseFilters(r *http.Request) ([]reldb.Filter, error) {
	q := r.URL.Query()
	var fs []reldb.Filter
	for _, meta := range []string{"exe", "user", "queue", "status", "jobname"} {
		if v := q.Get(meta); v != "" {
			fs = append(fs, reldb.F(meta, v))
		}
	}
	for i := 1; i <= 3; i++ {
		field := q.Get(fmt.Sprintf("field%d", i))
		if field == "" {
			continue
		}
		op := q.Get(fmt.Sprintf("op%d", i))
		if op == "" {
			op = "gte"
		}
		valStr := q.Get(fmt.Sprintf("val%d", i))
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("portal: search field %d: bad value %q", i, valStr)
		}
		fs = append(fs, reldb.F(field+"__"+op, val))
	}
	if v := q.Get("start"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("portal: bad start %q", v)
		}
		fs = append(fs, reldb.F("endtime__gte", t))
	}
	if v := q.Get("end"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("portal: bad end %q", v)
		}
		fs = append(fs, reldb.F("endtime__lte", t))
	}
	return fs, nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	// Job ID box shortcut.
	if id := r.URL.Query().Get("jobid"); id != "" {
		http.Redirect(w, r, "/job/"+id, http.StatusFound)
		return
	}
	data := struct {
		Fields []string
		Total  int
	}{reldb.NumericFields(), s.DB.Len()}
	render(w, indexTmpl, data)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	filters, err := parseFilters(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rows, err := s.DB.QueryOrdered(reldb.QueryOpts{OrderBy: "-starttime"}, filters...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// One sweep over the rows already fetched builds all four Fig 4
	// histograms — no second pass over the table.
	hist, err := analysis.HistogramsRows(rows, 20)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Flagged sublist (§V-A): run the flags over the result set.
	type flagged struct {
		JobID string
		Flags string
	}
	var flaggedJobs []flagged
	for _, row := range rows {
		if raised := flagging.Evaluate(s.Flags, row); len(raised) > 0 {
			flaggedJobs = append(flaggedJobs, flagged{row.JobID, strings.Join(raised, ", ")})
		}
	}
	limit := 200
	display := rows
	if len(display) > limit {
		display = display[:limit]
	}
	data := struct {
		Query     string
		Rows      []*reldb.JobRow
		Total     int
		Truncated bool
		Flagged   []flagged
		HistSVGs  []template.HTML
	}{
		Query:     r.URL.RawQuery,
		Rows:      display,
		Total:     len(rows),
		Truncated: len(rows) > limit,
		Flagged:   flaggedJobs,
		HistSVGs: []template.HTML{
			template.HTML(HistogramSVG(hist.Runtime, "Run Time (s)")),
			template.HTML(HistogramSVG(hist.Nodes, "Nodes")),
			template.HTML(HistogramSVG(hist.Wait, "Queue Wait (s)")),
			template.HTML(HistogramSVG(hist.MaxMD, "Max Metadata Reqs (/s)")),
		},
	}
	render(w, jobsTmpl, data)
}

func (s *Server) handleJobDetail(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/job/")
	row := s.DB.Get(id)
	if row == nil {
		http.NotFound(w, r)
		return
	}
	// Metric pass/fail report.
	type check struct {
		Flag   string
		Desc   string
		Passed bool
	}
	var checks []check
	for _, f := range s.Flags {
		checks = append(checks, check{f.Name, f.Desc, !f.Test(row)})
	}
	// Fig 5 panels when series data is available.
	var panels []template.HTML
	if s.Series != nil {
		if jd, err := s.Series(id); err == nil && jd != nil {
			if js, err := core.TimeSeries(jd, s.Reg); err == nil {
				for _, p := range js.Panels {
					panels = append(panels, template.HTML(PanelSVG(p)))
				}
			}
		}
	}
	// Environment from the XALT plugin, when enabled.
	var env *xalt.Record
	if s.XALT != nil {
		if rec, ok := s.XALT.Get(id); ok {
			env = &rec
		}
	}
	data := struct {
		Row    *reldb.JobRow
		M      core.Summary
		Checks []check
		Panels []template.HTML
		Env    *xalt.Record
	}{row, row.Metrics, checks, panels, env}
	render(w, detailTmpl, data)
}

// handleDates is the Fig 3 "view all jobs for a given date" browser: one
// row per simulated day with its completed-job count.
func (s *Server) handleDates(w http.ResponseWriter, r *http.Request) {
	type day struct {
		Start float64
		End   float64
		Label string
		Count int
	}
	counts := map[int64]int{}
	for _, row := range s.DB.All() {
		counts[int64(row.EndTime)/86400]++
	}
	keys := make([]int64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	days := make([]day, 0, len(keys))
	for _, k := range keys {
		days = append(days, day{
			Start: float64(k * 86400),
			End:   float64((k + 1) * 86400),
			Label: fmt.Sprintf("day %d", k),
			Count: counts[k],
		})
	}
	render(w, datesTmpl, struct{ Days []day }{days})
}

// handleUser summarizes one user's jobs.
func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/user/")
	rows, err := s.DB.Query(reldb.F("user", name))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(rows) == 0 {
		http.NotFound(w, r)
		return
	}
	var nodeHours, cpu float64
	for _, row := range rows {
		nodeHours += row.NodeHours()
		cpu += row.Metrics.CPUUsage
	}
	limit := rows
	if len(limit) > 200 {
		limit = limit[:200]
	}
	data := struct {
		User      string
		Jobs      int
		NodeHours float64
		AvgCPU    float64
		Rows      []*reldb.JobRow
	}{name, len(rows), nodeHours, cpu / float64(len(rows)), limit}
	render(w, userTmpl, data)
}

// handleEnergy serves the §I-C energy breakdown for the whole table.
func (s *Server) handleEnergy(w http.ResponseWriter, r *http.Request) {
	es, err := analysis.Energy(s.DB, 15)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	render(w, energyTmpl, es)
}

func (s *Server) handleFields(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reldb.NumericFields())
}

func (s *Server) handleAPIJobs(w http.ResponseWriter, r *http.Request) {
	filters, err := parseFilters(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rows, err := s.DB.Query(filters...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := make([]v1JobRow, len(rows))
	for i, row := range rows {
		out[i] = v1Row(row)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleAPILag summarizes ingest pipeline lag: per-stage hop latencies
// and per-host freshness (now - origin of the newest queryable
// snapshot), straight from the provenance recorder. Before serving, the
// freshness gauges are re-aged against the current clock so a quiet
// pipeline reads as growing staleness, not frozen health.
func (s *Server) handleAPILag(w http.ResponseWriter, r *http.Request) {
	s.Lag.RefreshFreshness()
	sum := s.Lag.Snapshot()
	if sum.Stages == nil {
		sum.Stages = []trace.StageLag{}
	}
	if sum.Hosts == nil {
		sum.Hosts = []trace.HostFreshness{}
	}
	if sum.Partitions == nil {
		// Partition rows appear only in fabric mode; an empty list (not
		// null) keeps the field shape stable for clients either way.
		sum.Partitions = []trace.PartitionLag{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sum)
}

func render(w http.ResponseWriter, t *template.Template, data interface{}) {
	// Render into a buffer first so a template error can still produce a
	// clean 500 instead of a half-written page.
	var buf bytes.Buffer
	if err := t.Execute(&buf, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(buf.Bytes())
}
