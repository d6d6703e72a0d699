// Ranking and gauge operators for the query API: TopN reduces a query
// to one aggregate value per group and selects the n highest (or
// lowest) with a bounded heap — the full group set is swept exactly
// once and the sorted set is never materialized — and Latest reports
// each matching series' newest point for current-value gauges.
package tsdb

import (
	"container/heap"
	"sort"
)

// Ranked is one entry of a TopN result, best first.
type Ranked struct {
	Group map[string]string
	Value float64
}

// rankAllWindow is a downsample width wide enough that every realistic
// timestamp truncates into bucket zero, collapsing a whole query range
// into one aggregate cell per group.
const rankAllWindow = 1e15

// groupKey renders a deterministic ordering key for tie-breaking.
func groupKey(g map[string]string, keys []string) string {
	s := ""
	for _, k := range keys {
		s += k + "=" + g[k] + ";"
	}
	return s
}

// rankHeap keeps the current n best candidates with the worst at the
// root, so each new candidate is one comparison in the common case.
type rankHeap struct {
	items  []Ranked
	keys   []string // GroupBy keys, for deterministic tie-breaks
	bottom bool
}

// worse reports whether a ranks strictly worse than b for this
// direction, with the group key as tie-break so results are stable.
func (h *rankHeap) worse(a, b Ranked) bool {
	if a.Value != b.Value {
		if h.bottom {
			return a.Value > b.Value
		}
		return a.Value < b.Value
	}
	return groupKey(a.Group, h.keys) > groupKey(b.Group, h.keys)
}

func (h *rankHeap) Len() int           { return len(h.items) }
func (h *rankHeap) Less(i, j int) bool { return h.worse(h.items[i], h.items[j]) }
func (h *rankHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *rankHeap) Push(x interface{}) { h.items = append(h.items, x.(Ranked)) }
func (h *rankHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// TopN ranks the query's groups by their aggregate value over the whole
// time range and returns the best n — the highest values, or the lowest
// when bottom is set. Groups tie-break on their group key so the result
// is deterministic. The sweep is the same single pass Do makes; only a
// bounded heap of n candidates is kept beyond it.
func (db *DB) TopN(q Query, n int, bottom bool) ([]Ranked, error) {
	if n <= 0 {
		return nil, nil
	}
	qq := q
	qq.Downsample = rankAllWindow
	results, err := db.Do(qq)
	if err != nil {
		return nil, err
	}
	h := &rankHeap{keys: q.GroupBy, bottom: bottom}
	for _, r := range results {
		if len(r.Points) == 0 {
			continue
		}
		cand := Ranked{Group: r.Group, Value: r.Points[0].Value}
		if h.Len() < n {
			heap.Push(h, cand)
		} else if h.worse(h.items[0], cand) {
			h.items[0] = cand
			heap.Fix(h, 0)
		}
	}
	// Drain worst-first, then reverse into best-first order.
	out := make([]Ranked, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Ranked)
	}
	return out, nil
}

// Gauge is one series' newest point.
type Gauge struct {
	Tags  Tags
	Time  float64
	Value float64
}

// Latest returns the newest point of every series matching the query's
// tag filters (time range and aggregation are ignored), sorted by tag
// tuple. It reads the RAM hot set only: any series actively reporting
// has its newest points in RAM, which is exactly what a current-value
// gauge wants. A series' newest point is in the newest of its host's
// rows that holds its column — the last row, for a series in the
// host's current layout.
func (db *DB) Latest(q Query) []Gauge {
	shFirst, shLast := 0, numShards
	if q.Host != "" {
		shFirst = int(hostHash(q.Host) % numShards)
		shLast = shFirst + 1
	}
	var out []Gauge
	for i := shFirst; i < shLast; i++ {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.matchingSeries(q) {
			if g, ok := s.latest(); ok {
				g.Tags = s.tags
				out = append(out, g)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Tags, out[j].Tags
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.DevType != b.DevType {
			return a.DevType < b.DevType
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Event < b.Event
	})
	return out
}

// latest returns the series' newest point, the last one written at its
// newest time.
func (s *series) latest() (Gauge, bool) {
	if s.col < 0 {
		return Gauge{}, false
	}
	hr := s.host
	for k := len(hr.times) - 1; k >= hr.off; k-- {
		if hr.holds(k, s.col) {
			return Gauge{Time: hr.times[k], Value: hr.vals[k*hr.stride+s.col]}, true
		}
	}
	return Gauge{}, false
}
