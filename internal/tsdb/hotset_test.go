package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gostats/internal/segstore"
	"gostats/internal/telemetry"
)

// modelHot is the hot-set oracle: the store as it was before host rows,
// one time-sorted point slice per series, a point written at a time
// already present going after the points of that time. A stripe's
// points older than its cold boundary go when the boundary advances.
type modelHot struct {
	series map[Tags][]DataPoint
	bounds [numShards]float64
}

func (m *modelHot) put(tags Tags, t, v float64) {
	pts := m.series[tags]
	i := sort.Search(len(pts), func(k int) bool { return pts[k].Time > t })
	m.series[tags] = slices.Insert(pts, i, DataPoint{Time: t, Value: v})
}

// evict follows db's stripe boundaries: where one advanced, the
// stripe's points below it go.
func (m *modelHot) evict(db *DB) {
	for tags, pts := range m.series {
		i := hostHash(tags.Host) % numShards
		if b := db.shards[i].coldBoundary; b > m.bounds[i] {
			k := sort.Search(len(pts), func(k int) bool { return pts[k].Time >= b })
			m.series[tags] = pts[k:]
		}
	}
	for i := range db.shards {
		m.bounds[i] = db.shards[i].coldBoundary
	}
}

func (m *modelHot) window(tags Tags, start, end float64) []DataPoint {
	var out []DataPoint
	for _, p := range m.series[tags] {
		if p.Time >= start && (end <= 0 || p.Time <= end) {
			out = append(out, p)
		}
	}
	return out
}

// latest answers Latest(q) from the model.
func (m *modelHot) latest(q Query) []Gauge {
	var out []Gauge
	for tags, pts := range m.series {
		if len(pts) == 0 || (q.Host != "" && tags.Host != q.Host) || (q.DevType != "" && tags.DevType != q.DevType) ||
			(q.Device != "" && tags.Device != q.Device) || (q.Event != "" && tags.Event != q.Event) {
			continue
		}
		p := pts[len(pts)-1]
		out = append(out, Gauge{Tags: tags, Time: p.Time, Value: p.Value})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Tags, out[j].Tags
		return a.Host+"\x00"+a.DevType+"\x00"+a.Device+"\x00"+a.Event <
			b.Host+"\x00"+b.DevType+"\x00"+b.Device+"\x00"+b.Event
	})
	return out
}

// hotWrite is one host row of the generated stream: points of one host
// at one time. dupHandle marks a point written through a second handle
// for a series the row already names, as the ingester does for a
// snapshot that repeats a record.
type hotWrite struct {
	host string
	t    float64
	pts  []hotPoint
}

type hotPoint struct {
	tags      Tags
	v         float64
	dupHandle bool
}

// hotStream generates one seeded point set for hosts over steps
// collection times, per host in write order. Each host's first row
// holds only its gauges (a first snapshot has no rates); a host
// changes layout once, losing one series and gaining two, and its
// process series are replaced by new ones every 16 steps, longer than
// the 12-step hot window, so columns are freed and handed out again;
// some rows repeat a column, some times get a second row, and, when
// late is set, some rows arrive up to an hour late. Host wide reports
// 45 CPUs and 40 processes, so its rows span three presence words, its
// layout change adds 70 series more, so its rows are re-laid over a
// fourth, and its freed process columns share their bit positions with
// held CPU columns of the higher words.
func hotStream(rng *rand.Rand, hosts []string, wide string, steps int, late bool) map[string][]hotWrite {
	out := map[string][]hotWrite{}
	for _, h := range hosts {
		ncpu, nps := 3, 3
		if h == wide {
			ncpu, nps = 45, 40
		}
		var layout []Tags
		for d := 0; d < ncpu; d++ {
			for _, ev := range []string{"user", "sys"} {
				layout = append(layout, Tags{Host: h, DevType: "cpu", Device: fmt.Sprint(d), Event: ev})
			}
		}
		layout = append(layout, Tags{Host: h, DevType: "mem", Device: "0", Event: "used"})
		gauges := layout[len(layout)-1:]
		change := 1 + rng.Intn(steps-1)
		var ws []hotWrite
		for s := 0; s < steps; s++ {
			t := float64(600 * s)
			if s == change {
				layout = append(slices.Delete(slices.Clone(layout), 1, 2),
					Tags{Host: h, DevType: "mdc", Device: "scratch", Event: "reqs"},
					Tags{Host: h, DevType: "mdc", Device: "work", Event: "reqs"})
				if h == wide {
					for o := 0; o < 70; o++ {
						layout = append(layout, Tags{Host: h, DevType: "llite", Device: fmt.Sprintf("ost%02d", o), Event: "reqs"})
					}
				}
			}
			cols := gauges
			if s > 0 {
				// Process records come first, so their columns are low.
				cols = nil
				for p := 0; p < nps; p++ {
					pid := fmt.Sprintf("%d/u/a.out", 100*(s/16)+p)
					cols = append(cols, Tags{Host: h, DevType: "ps", Device: pid, Event: "rss"})
				}
				cols = append(cols, layout...)
			}
			w := hotWrite{host: h, t: t}
			for _, tags := range cols {
				w.pts = append(w.pts, hotPoint{tags: tags, v: rng.Float64() * 100})
			}
			if rng.Intn(4) == 0 {
				// A repeated column, through the same or a second handle,
				// anywhere in the row: it spills into a second row.
				p := w.pts[rng.Intn(len(w.pts))]
				p.v, p.dupHandle = rng.Float64()*100, rng.Intn(2) == 0
				w.pts = slices.Insert(w.pts, rng.Intn(len(w.pts)+1), p)
			}
			ws = append(ws, w)
			if rng.Intn(4) == 0 {
				// A second row at the same time, over a few columns.
				again := hotWrite{host: h, t: t}
				for _, i := range rng.Perm(len(cols))[:1+rng.Intn(len(cols))] {
					again.pts = append(again.pts, hotPoint{tags: cols[i], v: rng.Float64() * 100})
				}
				ws = append(ws, again)
			}
			if late && s > 0 && rng.Intn(3) == 0 {
				// A late row, at or between earlier collection times.
				lt := float64(600 * (s - 1 - rng.Intn(min(s, 6))))
				if rng.Intn(2) == 0 {
					lt += 299.5
				}
				w := hotWrite{host: h, t: lt}
				for _, i := range rng.Perm(len(cols))[:1+rng.Intn(3)] {
					w.pts = append(w.pts, hotPoint{tags: cols[i], v: rng.Float64() * 100})
				}
				ws = append(ws, w)
			}
		}
		out[h] = ws
	}
	return out
}

// hotFeed is one database under test, its oracle, and how it is fed:
// through putRow, as the Ingester writes (one row per write, series
// resolved through handles kept per host), or one Put per point. next
// is each host's next write in the stream.
type hotFeed struct {
	name    string
	db      *DB
	model   *modelHot
	rows    bool
	handles map[Tags]*handle
	next    map[string]int
}

func (f *hotFeed) write(w hotWrite) {
	for _, p := range w.pts {
		f.model.put(p.tags, w.t, p.v)
	}
	if !f.rows {
		for _, p := range w.pts {
			f.db.Put(p.tags, w.t, p.v)
		}
		return
	}
	var r row
	for _, p := range w.pts {
		h := f.handles[p.tags]
		if h == nil || p.dupHandle {
			nh := newHandle(p.tags)
			h = &nh
			if f.handles[p.tags] == nil {
				f.handles[p.tags] = h
			}
		}
		r.add(h, p.v)
	}
	f.db.putRow(w.host, w.t, &r)
}

func (f *hotFeed) commit(t *testing.T) {
	t.Helper()
	if err := f.db.CommitCold(); err != nil {
		t.Fatal(err)
	}
	f.model.evict(f.db)
}

// TestHotSetMatchesSeriesModel checks the host-row hot set against the
// slice-per-series oracle. One seeded point set goes into two stores,
// one through putRow rows in one host interleaving, one through Put
// calls in another, with CommitCold at random points; half the seeds
// deliver rows late. At two checkpoints every Agg × group_by × window
// of Do, TopN both ways and Latest must answer, bit for bit, what the
// oracle's hot points plus the cold store's scan answer.
func TestHotSetMatchesSeriesModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			checkHotSetModel(t, seed)
		})
	}
}

func checkHotSetModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	hosts := []string{"a1", "b2", "c3", "d4", "e5"}
	const steps, hotWindow = 50, 2 * 3600
	stream := hotStream(rng, hosts, "c3", steps, seed%2 == 0)
	var feeds []*hotFeed
	for _, rows := range []bool{true, false} {
		cs, err := segstore.Open(t.TempDir(), segstore.Options{
			Shards: numShards, SegmentBytes: 64 << 10, FlushBytes: 1 << 10,
			CompactRawAfter: -1, CompactMidAfter: -1, Metrics: telemetry.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cs.Close() })
		db := New()
		if err := db.AttachCold(cs, hotWindow); err != nil {
			t.Fatal(err)
		}
		f := &hotFeed{name: "put", db: db, model: &modelHot{series: map[Tags][]DataPoint{}},
			rows: rows, handles: map[Tags]*handle{}, next: map[string]int{}}
		if rows {
			f.name = "rows"
		}
		feeds = append(feeds, f)
	}
	// Each feed takes every host's writes in that host's order; the
	// host interleaving differs per feed.
	// Before the first eviction (first rows and sparse rows still hot),
	// and at the end.
	checkpoints := map[int]bool{steps / 4: true, steps - 1: true}
	for s := 0; s < steps; s++ {
		until := float64(600 * s)
		for fi, f := range feeds {
			order := slices.Clone(hosts)
			if fi == 1 {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			for _, h := range order {
				ws := stream[h]
				for f.next[h] < len(ws) && ws[f.next[h]].t <= until {
					f.write(ws[f.next[h]])
					f.next[h]++
					if rng.Intn(8) == 0 {
						f.commit(t)
					}
				}
			}
			f.commit(t)
		}
		if checkpoints[s] {
			for _, f := range feeds {
				checkHotSetAnswers(t, fmt.Sprintf("seed %d step %d %s", seed, s, f.name), f, rng, until)
			}
		}
	}
}

// checkHotSetAnswers compares f's store with its oracle on every query.
func checkHotSetAnswers(t *testing.T, label string, f *hotFeed, rng *rand.Rand, newest float64) {
	t.Helper()
	db := f.db
	boundary := 0.0
	for i := range db.shards {
		boundary = max(boundary, db.shards[i].coldBoundary)
	}
	hot := func(tags Tags, start, end float64) []DataPoint { return f.model.window(tags, start, end) }
	ref := func(q Query) []Result { return refDoHot(t, db, q, hot) }
	windows := [][2]float64{
		{0, 0},                              // everything
		{boundary, 0},                       // from the boundary
		{boundary, boundary},                // only the boundary's time
		{boundary - 600, boundary + 1200.5}, // across it
		{newest - 1800, newest},             // the newest rows
		{rng.Float64() * newest, 0},         // a random start
	}
	filters := []Query{{}, {Host: "c3"}, {Event: "reqs"}}
	groupings := [][]string{nil, {"host"}, {"device"}, {"host", "event"}}
	for wi, w := range windows {
		for fi, filter := range filters {
			for _, gb := range groupings {
				for ai, agg := range []Agg{Sum, Avg, Max, Min} {
					q := filter
					q.Start, q.End, q.GroupBy, q.Aggregate = w[0], w[1], gb, agg
					q.Downsample = []float64{0, 600, 1800}[(wi+fi+ai)%3]
					l := fmt.Sprintf("%s %+v", label, q)
					got, err := db.Do(q)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, l, ref(q), got)
					sameTopN(t, l, db, q, ref)
				}
			}
		}
	}
	for _, q := range append(filters, Query{DevType: "cpu"}, Query{Device: "0"}) {
		want, got := f.model.latest(q), db.Latest(q)
		if len(got) != len(want) {
			t.Fatalf("%s Latest(%+v): %d gauges, model %d", label, q, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if w.Tags != g.Tags || math.Float64bits(w.Time) != math.Float64bits(g.Time) ||
				math.Float64bits(w.Value) != math.Float64bits(g.Value) {
				t.Fatalf("%s Latest(%+v) #%d: %+v, model %+v", label, q, i, g, w)
			}
		}
	}
}
