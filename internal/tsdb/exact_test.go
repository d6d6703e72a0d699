package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gostats/internal/segstore"
	"gostats/internal/telemetry"
)

// hotPoints returns the series' RAM points in [start, end] (end <= 0
// means +inf), in fold order.
func (s *series) hotPoints(start, end float64) []DataPoint {
	if s.col < 0 {
		return nil
	}
	var g gather
	g.host(s.host, start, end)
	lo, hi := g.column(s.col)
	var out []DataPoint
	for k := lo; k < hi; k++ {
		out = append(out, DataPoint{Time: g.ts[k], Value: g.vs[k]})
	}
	return out
}

// refDo answers q the way Do did before cold scans returned runs: every
// shard's hot series first, then every cold series flattened into one
// slice, stable-sorted by time and merged point by point into a map of
// cells. Groups open for every matching hot series, points or not.
func refDo(t *testing.T, db *DB, q Query) []Result {
	t.Helper()
	return refDoHot(t, db, q, func(tags Tags, start, end float64) []DataPoint {
		return db.shards[hostHash(tags.Host)%numShards].series[tags].hotPoints(start, end)
	})
}

// refDoHot is refDo with the hot points of series tags in [start, end]
// taken from hot.
func refDoHot(t *testing.T, db *DB, q Query, hot func(tags Tags, start, end float64) []DataPoint) []Result {
	t.Helper()
	type group struct {
		group map[string]string
		cells map[float64]*bucket
	}
	groups := map[string]*group{}
	get := func(tags Tags) *group {
		key := ""
		g := map[string]string{}
		for _, k := range q.GroupBy {
			v, _ := tags.tagValue(k)
			key += k + "=" + v + ";"
			g[k] = v
		}
		if groups[key] == nil {
			groups[key] = &group{group: g, cells: map[float64]*bucket{}}
		}
		return groups[key]
	}
	cell := func(g *group, tm float64) *bucket {
		if q.Downsample > 0 {
			tm = float64(int64(tm/q.Downsample)) * q.Downsample
		}
		if g.cells[tm] == nil {
			g.cells[tm] = &bucket{}
		}
		return g.cells[tm]
	}
	type coldSeries struct {
		tags Tags
		pts  []segstore.AggPoint
	}
	var cold []coldSeries
	filter := segstore.Filter{Host: q.Host, DevType: q.DevType, Device: q.Device, Event: q.Event}
	for i := range db.shards {
		if q.Host != "" && i != int(hostHash(q.Host)%numShards) {
			continue
		}
		sh := &db.shards[i]
		sh.mu.RLock()
		boundary := sh.coldBoundary
		hotStart := max(q.Start, boundary)
		for _, s := range sh.matchingSeries(q) {
			g := get(s.tags)
			for _, p := range hot(s.tags, hotStart, q.End) {
				cell(g, p.Time).add(p.Value)
			}
		}
		sh.mu.RUnlock()
		end, ok := coldWindow(q, boundary)
		if !ok {
			continue
		}
		series, err := db.cold.ScanShard(i, filter, q.Start, end)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			pts := slices.Concat(s.Runs...)
			for _, p := range pts {
				if p.Time < q.Start || p.Time >= end {
					t.Fatalf("cold scan [%g, %g) of shard %d returned a point at %g", q.Start, end, i, p.Time)
				}
			}
			slices.SortStableFunc(pts, func(a, b segstore.AggPoint) int {
				switch {
				case a.Time < b.Time:
					return -1
				case a.Time > b.Time:
					return 1
				}
				return 0
			})
			l := s.Labels
			cold = append(cold, coldSeries{Tags{Host: l.Host, DevType: l.DevType, Device: l.Device, Event: l.Event}, pts})
		}
	}
	for _, c := range cold {
		g := get(c.tags)
		for _, p := range c.pts {
			cell(g, p.Time).merge(p)
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Result, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		res := Result{Group: g.group}
		times := make([]float64, 0, len(g.cells))
		for tm := range g.cells {
			times = append(times, tm)
		}
		sort.Float64s(times)
		for _, tm := range times {
			res.Points = append(res.Points, DataPoint{Time: tm, Value: g.cells[tm].result(q.Aggregate)})
		}
		out = append(out, res)
	}
	return out
}

// sameBits fails t unless got equals want group for group and point for
// point, times and values compared bit for bit.
func sameBits(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d groups, reference %d", label, len(got), len(want))
	}
	for gi := range want {
		w, g := want[gi], got[gi]
		if !reflect.DeepEqual(w.Group, g.Group) || len(w.Points) != len(g.Points) {
			t.Fatalf("%s: group %d is %v with %d points, reference %v with %d",
				label, gi, g.Group, len(g.Points), w.Group, len(w.Points))
		}
		for pi := range w.Points {
			wp, gp := w.Points[pi], g.Points[pi]
			if math.Float64bits(wp.Time) != math.Float64bits(gp.Time) || math.Float64bits(wp.Value) != math.Float64bits(gp.Value) {
				t.Fatalf("%s: group %v point %d is %v, reference %v", label, w.Group, pi, gp, wp)
			}
		}
	}
}

// sameTopN fails t unless TopN(q, 3, bottom) answers, in both
// directions, what a full sort of the reference's per-group aggregates
// answers, ties broken by group key ascending, as rankHeap.worse does.
// It returns how many adjacent pairs of the sorted reference, within
// the first four, tie bit for bit: ties at or just past the cut are the
// ones the tie-break decides.
func sameTopN(t *testing.T, label string, db *DB, q Query, ref func(Query) []Result) (ties int) {
	t.Helper()
	qq := q
	qq.Downsample = rankAllWindow
	var all []Ranked
	for _, r := range ref(qq) {
		if len(r.Points) > 0 {
			all = append(all, Ranked{Group: r.Group, Value: r.Points[0].Value})
		}
	}
	for _, bottom := range []bool{false, true} {
		top, err := db.TopN(q, 3, bottom)
		if err != nil {
			t.Fatal(err)
		}
		ranked := slices.Clone(all)
		sort.SliceStable(ranked, func(i, j int) bool {
			a, b := ranked[i], ranked[j]
			if a.Value != b.Value {
				return a.Value > b.Value != bottom
			}
			return groupKey(a.Group, q.GroupBy) < groupKey(b.Group, q.GroupBy)
		})
		for i := 1; i < min(4, len(ranked)); i++ {
			if math.Float64bits(ranked[i].Value) == math.Float64bits(ranked[i-1].Value) {
				ties++
			}
		}
		ranked = ranked[:min(3, len(ranked))]
		if len(top) != len(ranked) {
			t.Fatalf("%s TopN(bottom=%v): %d entries, reference %d", label, bottom, len(top), len(ranked))
		}
		for i := range top {
			if !reflect.DeepEqual(top[i].Group, ranked[i].Group) ||
				math.Float64bits(top[i].Value) != math.Float64bits(ranked[i].Value) {
				t.Fatalf("%s TopN(bottom=%v) #%d: %+v, reference %+v", label, bottom, i, top[i], ranked[i])
			}
		}
	}
	return ties
}

// TestDoExactAgainstFlatMerge is the exactness differential for the
// cold read path: Do and TopN, which fold the cold scan's borrowed runs,
// must answer bit for bit what the flatten, stable-sort and merge point
// by point reference answers. The store holds sealed raw, compacted and
// active segments (flushed frames and a pending one); values carry
// fractions so any change in summation order shows; late points put
// unsorted runs inside frames and behind sealed data; the windows
// straddle frame, segment and hot/cold boundaries or lie wholly cold or
// wholly hot; and the filters include none at all, which folds every
// series of a stripe, and an event-only one.
func TestDoExactAgainstFlatMerge(t *testing.T) {
	cs, err := segstore.Open(t.TempDir(), segstore.Options{
		Shards:          numShards,
		SegmentBytes:    4 << 10,
		FlushBytes:      1 << 10,
		CompactRawAfter: 6 * 3600,
		CompactMidAfter: 1e9,
		Metrics:         telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	db := New()
	if err := db.AttachCold(cs, 2*3600); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Forty hosts over 32 stripes: several share a shard, so scans pick
	// a few series out of frames holding many.
	hosts := make([]string, 40)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("c%03d", i)
	}
	devs := []string{"0", "1"}
	// Two pairs of twin hosts mirror hosts[0], scaled exactly by +1024
	// and -1024: grouped by host, each pair's aggregates are equal bit
	// for bit and rank at the top or the bottom, so TopN's group-key
	// tie-break decides between them.
	twins := []struct {
		host  string
		scale float64
	}{{"t0", 1024}, {"t1", 1024}, {"u0", -1024}, {"u1", -1024}}
	put := func(tags Tags, tm, v float64) {
		db.Put(tags, tm, v)
		if tags.Host == hosts[0] {
			for _, tw := range twins {
				tags.Host = tw.host
				db.Put(tags, tm, v*tw.scale)
			}
		}
	}
	const span, step = 12 * 3600, 60
	for tm := 0; tm < span; tm += step {
		for _, h := range hosts {
			for _, d := range devs {
				put(Tags{Host: h, DevType: "cpu", Device: d, Event: "user"}, float64(tm), rng.Float64()*100)
			}
			put(Tags{Host: h, DevType: "mem", Device: "0", Event: "used"}, float64(tm), rng.Float64()*1000)
			if tm%1800 == 900 {
				// A late point, five minutes back.
				put(Tags{Host: h, DevType: "cpu", Device: "0", Event: "user"}, float64(tm-300)+0.5, rng.Float64()*100)
			}
		}
		if err := db.CommitCold(); err != nil {
			t.Fatal(err)
		}
		if tm%3600 == 0 {
			if err := cs.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Very late points, behind data already sealed: they reach the
	// active segments' pending frames (nothing commits after them), so
	// their series' runs join out of order.
	for _, h := range hosts[:6] {
		put(Tags{Host: h, DevType: "cpu", Device: "1", Event: "user"}, 1000.25, rng.Float64()*100)
	}
	st := cs.Stats()
	if st.TierSegments[0] == 0 || st.TierSegments[1] == 0 || st.ActivePoints == 0 {
		t.Fatalf("fixture lacks a layer: %+v", st)
	}

	boundary := db.shards[hostHash(hosts[0])%numShards].coldBoundary
	windows := [][2]float64{
		{0, 0},                                   // everything
		{3600, 5 * 3600},                         // cold only, compacted tier
		{2 * 3600, boundary - 1},                 // cold only, raw and active
		{boundary - 5400.5, span},                // across the hot/cold boundary
		{boundary - 1, boundary + 1},             // just around it
		{span - 1800, 0},                         // hot only
		{boundary, 0},                            // hot only, from the boundary
		{boundary + 600.5, span - 60},            // hot only, closed
		{999, 1001},                              // the very late points
		{6*3600 - 0.5, 6*3600 + 0.5},             // the compaction edge
		{float64(rng.Intn(span)), float64(span)}, // a random start
	}
	for i := 0; i < 6; i++ {
		lo := rng.Float64() * span
		windows = append(windows, [2]float64{lo, lo + rng.Float64()*4*3600})
	}
	aggs := []Agg{Sum, Avg, Max, Min}
	groupings := [][]string{nil, {"host"}, {"device"}}
	filters := []Query{{DevType: "cpu"}, {}, {Event: "used"}}
	n, ties := 0, 0
	for _, w := range windows {
		for fi, filter := range filters {
			for _, host := range []string{"", hosts[3]} {
				if fi > 0 && host != "" {
					continue // one pinned host is covered with the devtype filter
				}
				for _, gb := range groupings {
					for ai, agg := range aggs {
						q := filter
						q.Host, q.Start, q.End, q.GroupBy, q.Aggregate = host, w[0], w[1], gb, agg
						q.Downsample = []float64{0, 600, 1800, 3600}[(ai+n)%4]
						n++
						label := fmt.Sprintf("%+v", q)
						got, err := db.Do(q)
						if err != nil {
							t.Fatal(err)
						}
						sameBits(t, label, refDo(t, db, q), got)
						ties += sameTopN(t, label, db, q, func(q Query) []Result { return refDo(t, db, q) })
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no TopN candidates tied: the group-key tie-break went unchecked")
	}
	// A window wholly below the boundary still returns a group for each
	// matching hot series, even one whose cold points all lie elsewhere.
	res, err := db.Do(Query{Host: hosts[3], DevType: "cpu", Start: 0, End: 10, GroupBy: []string{"device"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(devs) {
		t.Fatalf("cold-only window: %d groups, want %d", len(res), len(devs))
	}
}

// TestDoSumWithoutFilterIsOneAnswer pins the fold order of a query with
// no tag filter, which folds every series of a stripe into one bucket:
// 200 series of one host at one time, summed 50 times, must give one
// sum. Folded in map order they give several.
func TestDoSumWithoutFilterIsOneAnswer(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(5))
	for d := 0; d < 200; d++ {
		db.Put(Tags{Host: "h", DevType: "cpu", Device: fmt.Sprint(d), Event: "user"}, 60, rng.Float64()*100)
	}
	sums := map[uint64]int{}
	for i := 0; i < 50; i++ {
		res, err := db.Do(Query{Aggregate: Sum})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || len(res[0].Points) != 1 {
			t.Fatalf("got %+v, want one group of one point", res)
		}
		sums[math.Float64bits(res[0].Points[0].Value)]++
	}
	if len(sums) != 1 {
		t.Fatalf("50 identical queries gave %d distinct sums: %v", len(sums), sums)
	}
}
