package tsdb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gostats/internal/segstore"
	"gostats/internal/telemetry"
)

// streamPoint is one point of a test ingest stream.
type streamPoint struct {
	tags Tags
	t, v float64
}

// frameStream is a point stream built to cross segment frames in the
// middle of what the raw entry format elides: every host writes rows
// whose points share a time, an iowait series that is +0.0 for long
// runs and sometimes −0.0, a mem series that holds each value for seven
// rows, fractional cpu values, and late points half a step off the
// grid, some far behind data already sealed.
func frameStream(seed int64) []streamPoint {
	rng := rand.New(rand.NewSource(seed))
	var out []streamPoint
	const span, step = 10 * 3600, 60
	for tm := 0; tm < span; tm += step {
		for h := 0; h < 12; h++ {
			host := fmt.Sprintf("c%03d", h)
			t := float64(tm)
			for d := 0; d < 2; d++ {
				dev := fmt.Sprint(d)
				out = append(out, streamPoint{Tags{host, "cpu", dev, "user"}, t, rng.Float64() * 100})
				iow := 0.0
				switch rng.Intn(10) {
				case 0:
					iow = math.Copysign(0, -1)
				case 1:
					iow = rng.Float64()
				}
				out = append(out, streamPoint{Tags{host, "cpu", dev, "iowait"}, t, iow})
			}
			out = append(out, streamPoint{Tags{host, "mem", "0", "used"}, t, float64((tm/step/7)%5) * 1024.5})
			if rng.Intn(40) == 0 {
				back := float64(rng.Intn(tm/step+1)*step) + 30.5
				out = append(out, streamPoint{Tags{host, "cpu", "1", "user"}, back, rng.Float64() * 100})
			}
		}
	}
	return out
}

// TestScheduleIndependentFrames feeds one stream to four stores, the
// default frame flush size or 256 bytes crossed with the default block
// cache or a one-frame one. The frame cadence decides which entries
// open a frame, and so which can elide a repeated value; the cache
// decides whether a sealed frame is decoded once or per read. Neither
// may change a bit of any answer: every store must hand back the stream
// point for point, and every Agg × group_by × window must give equal
// bits through Do and TopN.
func TestScheduleIndependentFrames(t *testing.T) {
	stream := frameStream(17)
	type variant struct {
		flush int
		cache int64
	}
	variants := []variant{{0, 0}, {256, 0}, {0, -1}, {256, -1}}
	dbs := make([]*DB, len(variants))
	for i, v := range variants {
		cs, err := segstore.Open(t.TempDir(), segstore.Options{
			Shards:          numShards,
			SegmentBytes:    8 << 10,
			FlushBytes:      v.flush,
			BlockCacheBytes: v.cache,
			CompactRawAfter: -1,
			CompactMidAfter: -1,
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
		for j, p := range stream {
			db.Put(p.tags, p.t, p.v)
			if j%500 == 499 {
				if err := db.CommitCold(); err != nil {
					t.Fatal(err)
				}
			}
		}
		dbs[i] = db
		st := cs.Stats()
		if st.TierSegments[0] == 0 || st.ActivePoints == 0 {
			t.Fatalf("%+v: fixture lacks sealed or active segments: %+v", v, st)
		}
		checkStoreHoldsStream(t, fmt.Sprintf("%+v", v), cs, stream)
	}

	boundary := dbs[0].shards[hostHash("c000")%numShards].coldBoundary
	if boundary <= 0 {
		t.Fatal("the cold boundary never advanced")
	}
	windows := [][2]float64{
		{0, 0},
		{3600, 3 * 3600},
		{boundary - 2400.5, boundary + 1800},
		{boundary, 0},
		{1234.5, 1234.5 + 600},
		{30.5, 7 * 3600},
	}
	aggs := []Agg{Sum, Avg, Max, Min}
	groupings := [][]string{nil, {"host"}, {"device"}, {"event"}}
	filters := []Query{{}, {DevType: "cpu"}, {Event: "iowait"}, {Host: "c003"}}
	n := 0
	for _, w := range windows {
		for _, f := range filters {
			for _, gb := range groupings {
				for _, agg := range aggs {
					q := f
					q.Start, q.End, q.GroupBy, q.Aggregate = w[0], w[1], gb, agg
					q.Downsample = []float64{0, 600, 3600}[n%3]
					n++
					want, err := dbs[0].Do(q)
					if err != nil {
						t.Fatal(err)
					}
					var wantTop [2][]Ranked
					for k := range wantTop {
						if wantTop[k], err = dbs[0].TopN(q, 3, k == 1); err != nil {
							t.Fatal(err)
						}
					}
					for i, db := range dbs[1:] {
						label := fmt.Sprintf("%+v on %+v", q, variants[i+1])
						got, err := db.Do(q)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameBits(t, label, want, got)
						for k := range wantTop {
							top, err := db.TopN(q, 3, k == 1)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if !sameRanked(wantTop[k], top) {
								t.Fatalf("%s TopN(bottom=%v): %+v, reference %+v", label, k == 1, top, wantTop[k])
							}
						}
					}
				}
			}
		}
	}
}

// checkStoreHoldsStream fails t unless a full scan of cs returns every
// point of stream, value bits and all, each series in time order with
// equal times in stream order.
func checkStoreHoldsStream(t *testing.T, label string, cs *segstore.Store, stream []streamPoint) {
	t.Helper()
	want := map[segstore.Labels][]segstore.AggPoint{}
	for _, p := range stream {
		l := segstore.Labels(p.tags)
		want[l] = append(want[l], segstore.AggPoint{Time: p.t, Count: 1, Sum: p.v, Min: p.v, Max: p.v})
	}
	for _, pts := range want {
		slices.SortStableFunc(pts, func(a, b segstore.AggPoint) int { return cmp.Compare(a.Time, b.Time) })
	}
	chunks, err := cs.Scan(segstore.Filter{}, 0, math.Inf(1))
	if err != nil {
		t.Fatalf("%s: scan: %v", label, err)
	}
	if len(chunks) != len(want) {
		t.Fatalf("%s: store holds %d series, stream %d", label, len(chunks), len(want))
	}
	bits := math.Float64bits
	for _, c := range chunks {
		w := want[c.Labels]
		if len(c.Points) != len(w) {
			t.Fatalf("%s: %v: %d points, stream %d", label, c.Labels, len(c.Points), len(w))
		}
		for i, p := range c.Points {
			if bits(p.Time) != bits(w[i].Time) || bits(p.Sum) != bits(w[i].Sum) || bits(p.Min) != bits(w[i].Min) ||
				bits(p.Max) != bits(w[i].Max) || p.Count != 1 {
				t.Fatalf("%s: %v point %d is %+v, stream %+v", label, c.Labels, i, p, w[i])
			}
		}
	}
}

// sameRanked compares TopN answers, values bit for bit.
func sameRanked(a, b []Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Group, b[i].Group) || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}
