// The versioned query API: /api/v1 endpoints for programmatic
// consumers. Job routes page and rank the reldb table; metric routes
// run time-range, top-N, and current-value queries against the tsdb —
// including its indexed cold-read path when a durable store is
// attached. Every route sits behind the generation-stamped response
// cache (stamped by whichever store backs it) and the per-client rate
// limiter.
package portal

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"gostats/internal/reldb"
	"gostats/internal/tsdb"
)

// tsdbGen is the cache generation source for metric routes; without an
// attached metric store the generation is constant, which is correct —
// nothing can change.
func (s *Server) tsdbGen() uint64 {
	if s.TSDB == nil {
		return 0
	}
	return s.TSDB.Generation()
}

// writeJSON renders a JSON response.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// intParam reads a non-negative integer query parameter with a default.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("portal: bad %s %q", name, v)
	}
	return n, nil
}

// v1JobRow is the job shape served by /api/jobs and the v1 job routes.
type v1JobRow struct {
	JobID    string  `json:"jobid"`
	User     string  `json:"user"`
	Exe      string  `json:"exe"`
	Nodes    int     `json:"nodes"`
	RunTime  float64 `json:"runtime"`
	CPUUsage float64 `json:"cpu_usage"`
}

func v1Row(r *reldb.JobRow) v1JobRow {
	return v1JobRow{r.JobID, r.User, r.Exe, r.Nodes, r.RunTime(), r.Metrics.CPUUsage}
}

// handleV1Jobs is the paginated job list: the /api/jobs filters plus
// order_by (numeric field, "-" prefix for descending), offset, and
// limit (default 100, capped at 1000). The envelope carries the total
// match count so clients can page without a separate count query.
func (s *Server) handleV1Jobs(w http.ResponseWriter, r *http.Request) {
	filters, err := parseFilters(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	offset, err := intParam(r, "offset", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	limit, err := intParam(r, "limit", 100)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if limit == 0 || limit > 1000 {
		limit = 1000
	}
	all, err := s.DB.Query(filters...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts := reldb.QueryOpts{OrderBy: r.URL.Query().Get("order_by"), Offset: offset, Limit: limit}
	rows, err := opts.Page(all)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	jobs := make([]v1JobRow, len(rows))
	for i, row := range rows {
		jobs[i] = v1Row(row)
	}
	writeJSON(w, struct {
		Total  int        `json:"total"`
		Offset int        `json:"offset"`
		Limit  int        `json:"limit"`
		Jobs   []v1JobRow `json:"jobs"`
	}{len(all), offset, limit, jobs})
}

// handleV1TopJobs ranks jobs by a numeric field with the bounded-heap
// plan: field (required), n (default 10, capped at 100), order=top or
// bottom, plus the usual filters. Each entry carries the ranked value.
func (s *Server) handleV1TopJobs(w http.ResponseWriter, r *http.Request) {
	field := r.URL.Query().Get("field")
	if field == "" {
		http.Error(w, "portal: field parameter required", http.StatusBadRequest)
		return
	}
	n, bottom, err := rankParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	filters, err := parseFilters(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rows, err := s.DB.TopN(field, n, bottom, filters...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	type ranked struct {
		v1JobRow
		Value float64 `json:"value"`
	}
	out := make([]ranked, len(rows))
	for i, row := range rows {
		v, _ := reldb.NumField(row, field)
		out[i] = ranked{v1Row(row), v}
	}
	writeJSON(w, out)
}

// rankParams reads the shared ranking parameters n and order.
func rankParams(r *http.Request) (n int, bottom bool, err error) {
	n, err = intParam(r, "n", 10)
	if err != nil {
		return 0, false, err
	}
	if n == 0 || n > 100 {
		n = 100
	}
	switch ord := r.URL.Query().Get("order"); ord {
	case "", "top":
	case "bottom":
		bottom = true
	default:
		return 0, false, fmt.Errorf("portal: bad order %q (want top or bottom)", ord)
	}
	return n, bottom, nil
}

// parseMetricQuery builds a tsdb query from request parameters: tag
// filters host/devtype/device/event, start/end seconds, agg
// (sum/avg/max/min), step (downsample bucket seconds), and group_by (a
// comma-separated tag key list).
func parseMetricQuery(r *http.Request) (tsdb.Query, error) {
	v := r.URL.Query()
	q := tsdb.Query{
		Host:    v.Get("host"),
		DevType: v.Get("devtype"),
		Device:  v.Get("device"),
		Event:   v.Get("event"),
	}
	var err error
	if s := v.Get("start"); s != "" {
		if q.Start, err = strconv.ParseFloat(s, 64); err != nil {
			return q, fmt.Errorf("portal: bad start %q", s)
		}
	}
	if s := v.Get("end"); s != "" {
		if q.End, err = strconv.ParseFloat(s, 64); err != nil {
			return q, fmt.Errorf("portal: bad end %q", s)
		}
	}
	if s := v.Get("step"); s != "" {
		if q.Downsample, err = strconv.ParseFloat(s, 64); err != nil || q.Downsample < 0 {
			return q, fmt.Errorf("portal: bad step %q", s)
		}
	}
	switch agg := v.Get("agg"); agg {
	case "", "sum":
		q.Aggregate = tsdb.Sum
	case "avg":
		q.Aggregate = tsdb.Avg
	case "max":
		q.Aggregate = tsdb.Max
	case "min":
		q.Aggregate = tsdb.Min
	default:
		return q, fmt.Errorf("portal: bad agg %q", agg)
	}
	if g := v.Get("group_by"); g != "" {
		q.GroupBy = strings.Split(g, ",")
	}
	return q, nil
}

// requireTSDB reports whether a metric store is attached, answering 503
// when not.
func (s *Server) requireTSDB(w http.ResponseWriter) bool {
	if s.TSDB == nil {
		http.Error(w, "portal: no metric store attached", http.StatusServiceUnavailable)
		return false
	}
	return true
}

// handleV1Metrics runs a time-range metric query: grouped, aggregated,
// optionally downsampled series, served from RAM and — for ranges past
// the hot boundary — the indexed cold-read path.
func (s *Server) handleV1Metrics(w http.ResponseWriter, r *http.Request) {
	if !s.requireTSDB(w) {
		return
	}
	q, err := parseMetricQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	results, err := s.TSDB.Do(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	type series struct {
		Group  map[string]string `json:"group,omitempty"`
		Points [][2]float64      `json:"points"`
	}
	out := make([]series, len(results))
	for i, res := range results {
		pts := make([][2]float64, len(res.Points))
		for j, p := range res.Points {
			pts[j] = [2]float64{p.Time, p.Value}
		}
		out[i] = series{res.Group, pts}
	}
	writeJSON(w, out)
}

// handleV1TopHosts ranks metric groups (hosts by default) by their
// aggregate value over the query range with the bounded-heap plan.
func (s *Server) handleV1TopHosts(w http.ResponseWriter, r *http.Request) {
	if !s.requireTSDB(w) {
		return
	}
	q, err := parseMetricQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(q.GroupBy) == 0 {
		q.GroupBy = []string{"host"}
	}
	n, bottom, err := rankParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ranked, err := s.TSDB.TopN(q, n, bottom)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	type entry struct {
		Group map[string]string `json:"group"`
		Value float64           `json:"value"`
	}
	out := make([]entry, len(ranked))
	for i, rk := range ranked {
		out[i] = entry{rk.Group, rk.Value}
	}
	writeJSON(w, out)
}

// handleV1Gauges serves current values: the newest point of every
// series matching the tag filters, straight from the RAM hot set.
func (s *Server) handleV1Gauges(w http.ResponseWriter, r *http.Request) {
	if !s.requireTSDB(w) {
		return
	}
	q, err := parseMetricQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	type gauge struct {
		Host    string  `json:"host"`
		DevType string  `json:"devtype"`
		Device  string  `json:"device"`
		Event   string  `json:"event"`
		Time    float64 `json:"time"`
		Value   float64 `json:"value"`
	}
	gs := s.TSDB.Latest(q)
	out := make([]gauge, len(gs))
	for i, g := range gs {
		out[i] = gauge{g.Tags.Host, g.Tags.DevType, g.Tags.Device, g.Tags.Event, g.Time, g.Value}
	}
	writeJSON(w, out)
}
