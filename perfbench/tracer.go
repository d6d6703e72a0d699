package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. ID names the snapshot (stream
// index) or request (sequence number) the call served; Parent indexes
// the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths share the
// traced ones without a branch at every call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, id, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanCost is what recording one span costs, measured on a throwaway
// tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", i, -1))
	}
	return time.Since(t0) / n
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name    string
	Count   int
	SelfSum time.Duration
	SelfMax time.Duration
}

// MeanSelf is the mean self time per span.
func (l layerStat) MeanSelf() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.SelfSum / time.Duration(l.Count)
}

// stats computes each span name's self time: its duration minus the
// part its child spans cover (children of one span never overlap here,
// because each layer call is synchronous).
func (t *tracer) stats() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerStat)
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		self := time.Duration(s.End - s.Start - child[i])
		if self < 0 {
			self = 0
		}
		st := out[s.Name]
		st.Name = s.Name
		st.Count++
		st.SelfSum += self
		if self > st.SelfMax {
			st.SelfMax = self
		}
		out[s.Name] = st
	}
	return out
}

// writeTable prints each layer's self time, slowest total first.
func writeTable(w io.Writer, workload string, st map[string]layerStat) {
	rows := make([]layerStat, 0, len(st))
	var total time.Duration
	for _, l := range st {
		rows = append(rows, l)
		total += l.SelfSum
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfSum > rows[j].SelfSum })
	fmt.Fprintf(w, "%-10s %-18s %8s %12s %12s %7s\n", "workload", "span", "count", "self_mean_us", "self_max_us", "share")
	for _, l := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(l.SelfSum) / float64(total)
		}
		fmt.Fprintf(w, "%-10s %-18s %8d %12.1f %12.1f %6.1f%%\n",
			workload, l.Name, l.Count, us(l.MeanSelf()), us(l.SelfMax), share)
	}
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storeSpans are the direct store calls made for a request.
var storeSpans = map[string]bool{
	"tsdb.latest": true, "tsdb.topn_hot": true, "tsdb.do_span": true,
	"tsdb.do_cold": true, "tsdb.topn_cold": true, "reldb.query": true, "reldb.topn": true,
}

// renderUs is the portal's own time on the given requests: the mean of
// ServeHTTP's duration minus the duration of the store calls the same
// request needs.
func (t *tracer) renderUs(ids map[int]bool) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	seen := map[int]bool{}
	for _, s := range t.spans {
		if !ids[s.ID] || s.End == 0 {
			continue
		}
		switch {
		case s.Name == "portal.serve":
			sum += s.End - s.Start
			seen[s.ID] = true
		case storeSpans[s.Name]:
			sum -= s.End - s.Start
		}
	}
	if len(seen) == 0 {
		return 0
	}
	return us(time.Duration(sum / int64(len(seen))))
}
