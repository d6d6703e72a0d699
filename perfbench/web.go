package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"time"

	"gostats/internal/reldb"
	"gostats/internal/tsdb"
)

// Headers that carry a request's trace identity to the server-side span.
const (
	hdrID   = "X-Bench-Id"
	hdrSpan = "X-Bench-Span"
)

// webClient is one dashboard or analyst client: one keep-alive
// connection to the portal.
type webClient struct {
	base string
	tr   *http.Transport
	c    *http.Client
}

func newWebClient(base string) *webClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &webClient{base: base, tr: tr, c: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// get fetches path and returns the body. Anything but a 200 with a JSON
// body is an error.
func (w *webClient) get(path string, id, parent int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, w.base+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(hdrID, strconv.Itoa(id))
	req.Header.Set(hdrSpan, strconv.Itoa(parent))
	resp, err := w.c.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("GET %s: response is not JSON", path)
	}
	return body, nil
}

func (w *webClient) close() { w.tr.CloseIdleConnections() }

// The /api/v1 response shapes, mirrored so direct store answers can be
// compared with what the portal served.
type (
	apiSeries struct {
		Group  map[string]string `json:"group,omitempty"`
		Points [][2]float64      `json:"points"`
	}
	apiRanked struct {
		Group map[string]string `json:"group"`
		Value float64           `json:"value"`
	}
	apiGauge struct {
		Host    string  `json:"host"`
		DevType string  `json:"devtype"`
		Device  string  `json:"device"`
		Event   string  `json:"event"`
		Time    float64 `json:"time"`
		Value   float64 `json:"value"`
	}
	apiJob struct {
		JobID    string  `json:"jobid"`
		User     string  `json:"user"`
		Exe      string  `json:"exe"`
		Nodes    int     `json:"nodes"`
		RunTime  float64 `json:"runtime"`
		CPUUsage float64 `json:"cpu_usage"`
	}
	apiJobs struct {
		Total  int      `json:"total"`
		Offset int      `json:"offset"`
		Limit  int      `json:"limit"`
		Jobs   []apiJob `json:"jobs"`
	}
	apiTopJob struct {
		apiJob
		Value float64 `json:"value"`
	}
)

func jobOf(r *reldb.JobRow) apiJob {
	return apiJob{r.JobID, r.User, r.Exe, r.Nodes, r.RunTime(), r.Metrics.CPUUsage}
}

// metricQuery reads the tsdb query parameters the benchmark's URLs use.
func metricQuery(v url.Values) (tsdb.Query, error) {
	q := tsdb.Query{Host: v.Get("host"), DevType: v.Get("devtype"), Device: v.Get("device"), Event: v.Get("event")}
	var err error
	for _, p := range []struct {
		name string
		dst  *float64
	}{{"start", &q.Start}, {"end", &q.End}, {"step", &q.Downsample}} {
		if s := v.Get(p.name); s != "" {
			if *p.dst, err = strconv.ParseFloat(s, 64); err != nil {
				return q, fmt.Errorf("bad %s %q", p.name, s)
			}
		}
	}
	switch v.Get("agg") {
	case "", "sum":
		q.Aggregate = tsdb.Sum
	case "avg":
		q.Aggregate = tsdb.Avg
	case "max":
		q.Aggregate = tsdb.Max
	case "min":
		q.Aggregate = tsdb.Min
	default:
		return q, fmt.Errorf("bad agg %q", v.Get("agg"))
	}
	if g := v.Get("group_by"); g != "" {
		q.GroupBy = strings.Split(g, ",")
	}
	return q, nil
}

// rank reads n and order as the portal does.
func rank(v url.Values) (int, bool) {
	n, _ := strconv.Atoi(v.Get("n"))
	if n <= 0 || n > 100 {
		n = 100
	}
	return n, v.Get("order") == "bottom"
}

// direct answers a request by calling the store the portal would call,
// and returns the answer in the portal's response shape.
func (s *stack) direct(path string) (interface{}, error) {
	u, err := url.Parse(path)
	if err != nil {
		return nil, err
	}
	v := u.Query()
	switch u.Path {
	case "/api/v1/metrics", "/api/v1/top/hosts", "/api/v1/gauges":
		q, err := metricQuery(v)
		if err != nil {
			return nil, err
		}
		switch u.Path {
		case "/api/v1/metrics":
			res, err := s.tdb.Do(q)
			if err != nil {
				return nil, err
			}
			out := make([]apiSeries, len(res))
			for i, r := range res {
				pts := make([][2]float64, len(r.Points))
				for j, p := range r.Points {
					pts[j] = [2]float64{p.Time, p.Value}
				}
				out[i] = apiSeries{r.Group, pts}
			}
			return out, nil
		case "/api/v1/top/hosts":
			if len(q.GroupBy) == 0 {
				q.GroupBy = []string{"host"}
			}
			n, bottom := rank(v)
			res, err := s.tdb.TopN(q, n, bottom)
			if err != nil {
				return nil, err
			}
			out := make([]apiRanked, len(res))
			for i, r := range res {
				out[i] = apiRanked{r.Group, r.Value}
			}
			return out, nil
		default:
			gs := s.tdb.Latest(q)
			out := make([]apiGauge, len(gs))
			for i, g := range gs {
				out[i] = apiGauge{g.Tags.Host, g.Tags.DevType, g.Tags.Device, g.Tags.Event, g.Time, g.Value}
			}
			return out, nil
		}
	case "/api/v1/jobs":
		offset, _ := strconv.Atoi(v.Get("offset"))
		limit, _ := strconv.Atoi(v.Get("limit"))
		if limit <= 0 || limit > 1000 {
			limit = 1000
		}
		all, err := s.rdb.Query()
		if err != nil {
			return nil, err
		}
		rows, err := s.rdb.QueryOrdered(reldb.QueryOpts{OrderBy: v.Get("order_by"), Offset: offset, Limit: limit})
		if err != nil {
			return nil, err
		}
		out := apiJobs{Total: len(all), Offset: offset, Limit: limit, Jobs: make([]apiJob, len(rows))}
		for i, r := range rows {
			out.Jobs[i] = jobOf(r)
		}
		return out, nil
	case "/api/v1/top/jobs":
		n, bottom := rank(v)
		rows, err := s.rdb.TopN(v.Get("field"), n, bottom)
		if err != nil {
			return nil, err
		}
		out := make([]apiTopJob, len(rows))
		for i, r := range rows {
			val, _ := reldb.NumField(r, v.Get("field"))
			out[i] = apiTopJob{jobOf(r), val}
		}
		return out, nil
	}
	return nil, fmt.Errorf("no direct call for %s", u.Path)
}

// sameAnswer reports whether a served body equals the direct answer.
func sameAnswer(body []byte, want interface{}) error {
	wb, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var a, b interface{}
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(wb, &b); err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("served %d bytes differ from the direct store answer (%d bytes)", len(body), len(wb))
	}
	return nil
}

// checkParity fetches each path once more and compares the answer with
// direct store calls. The stores must be quiet while it runs.
func (s *stack) checkParity(paths []string) error {
	c := newWebClient(s.webURL)
	defer c.close()
	for _, p := range paths {
		body, err := c.get(p, 0, -1)
		if err != nil {
			return err
		}
		want, err := s.direct(p)
		if err != nil {
			return fmt.Errorf("direct %s: %w", p, err)
		}
		if err := sameAnswer(body, want); err != nil {
			return fmt.Errorf("parity %s: %w", p, err)
		}
	}
	return nil
}
