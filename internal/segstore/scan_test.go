package segstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// linearCommon is the plain merge walk: every (want, refs) position
// pair holding the same ref, in order.
func linearCommon(want []uint32, refs []uint64) [][2]int {
	var out [][2]int
	for w, i := 0, 0; w < len(want) && i < len(refs); {
		switch {
		case uint64(want[w]) < refs[i]:
			w++
		case uint64(want[w]) > refs[i]:
			i++
		default:
			out = append(out, [2]int{w, i})
			w++
			i++
		}
	}
	return out
}

// randRefs draws n distinct ascending refs below limit.
func randRefs(rng *rand.Rand, n, limit int) []uint64 {
	set := map[uint64]bool{}
	for len(set) < n {
		set[uint64(rng.Intn(limit))] = true
	}
	out := make([]uint64, 0, n)
	for r := range set {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// TestGallopMatchesLinearMerge checks the galloping intersection
// against the linear merge walk on empty, identical, disjoint, dense
// and sparse ascending lists, and gallop itself against a linear
// search from every start.
func TestGallopMatchesLinearMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	narrow := func(rs []uint64) []uint32 {
		out := make([]uint32, len(rs))
		for i, r := range rs {
			out[i] = uint32(r)
		}
		return out
	}
	type pair struct {
		name string
		want []uint32
		refs []uint64
	}
	var cases []pair
	for k := 0; k < 40; k++ {
		same := randRefs(rng, 1+rng.Intn(50), 200)
		var evens, odds []uint64
		for r := uint64(0); r < uint64(2+rng.Intn(100)); r++ {
			if r%2 == 0 {
				evens = append(evens, r)
			} else {
				odds = append(odds, r)
			}
		}
		cases = append(cases,
			pair{"empty want", nil, randRefs(rng, rng.Intn(20), 100)},
			pair{"empty refs", narrow(randRefs(rng, rng.Intn(20), 100)), nil},
			pair{"identical", narrow(same), same},
			pair{"disjoint", narrow(evens), odds},
			pair{"dense", narrow(randRefs(rng, 80, 100)), randRefs(rng, 90, 100)},
			pair{"sparse want", narrow(randRefs(rng, 1+rng.Intn(4), 5000)), randRefs(rng, 600, 5000)},
			pair{"sparse refs", narrow(randRefs(rng, 600, 5000)), randRefs(rng, 1+rng.Intn(4), 5000)},
			pair{"few of many", narrow(randRefs(rng, 5, 300)), randRefs(rng, 290, 300)},
		)
	}
	for _, c := range cases {
		want := linearCommon(c.want, c.refs)
		var got [][2]int
		for w, i, ok := nextCommon(c.want, c.refs, 0, 0); ok; w, i, ok = nextCommon(c.want, c.refs, w+1, i+1) {
			got = append(got, [2]int{w, i})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: want %v refs %v: galloping %v, linear %v", c.name, c.want, c.refs, got, want)
		}
		if intersects(c.want, c.refs) != (len(want) > 0) {
			t.Fatalf("%s: intersects disagrees with the linear walk's %d matches", c.name, len(want))
		}
		for lo := 0; lo <= len(c.refs); lo++ {
			for _, x := range []uint64{0, 1, 57, 99, 100, 4999, 1 << 40} {
				lin := lo
				for lin < len(c.refs) && c.refs[lin] < x {
					lin++
				}
				if g := gallop(c.refs, lo, x); g != lin {
					t.Fatalf("%s: gallop(%v, %d, %d) = %d, want %d", c.name, c.refs, lo, x, g, lin)
				}
			}
		}
	}
}

// TestWarmScanAllocsFlat: a cache-warm ScanShard hands out sub-slices
// of the cached frame, so a 12 h window allocates no more than a 1 h
// window over the same frame, while returning twelve times the points.
func TestWarmScanAllocsFlat(t *testing.T) {
	opts := testOpts()
	opts.FlushBytes = 8 << 20
	opts.SegmentBytes = 16 << 20
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for tm := 0; tm < 24*3600; tm += 10 {
		for d := 0; d < 4; d++ {
			s.Append(Point{Labels: Labels{Host: "h1", DevType: "block", Device: fmt.Sprint("sd", d), Event: "rd"},
				Time: float64(tm), Value: float64(tm % 97)})
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	shard := s.ShardFor("h1")
	sealed := s.shards[shard].sealed[tierRaw]
	if len(sealed) != 1 || len(sealed[0].index.frames) != 1 {
		t.Fatalf("fixture: want one sealed segment of one frame, got %d segments", len(sealed))
	}
	f := Filter{Host: "h1", DevType: "block", Event: "rd"}
	scan := func(hours float64) (int, func()) {
		start := 6 * 3600.0
		end := start + hours*3600
		points := 0
		series, err := s.ScanShard(shard, f, start, end)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range series {
			for _, run := range r.Runs {
				points += len(run)
			}
		}
		return points, func() {
			if _, err := s.ScanShard(shard, f, start, end); err != nil {
				t.Fatal(err)
			}
		}
	}
	n1, run1 := scan(1)
	n12, run12 := scan(12)
	if n1 != 4*360 || n12 != 12*n1 {
		t.Fatalf("1 h window returned %d points, 12 h %d", n1, n12)
	}
	a1 := testing.AllocsPerRun(50, run1)
	a12 := testing.AllocsPerRun(50, run12)
	if a12 > a1+2 {
		t.Fatalf("warm scan allocations grow with the window: %.0f for 1 h, %.0f for 12 h", a1, a12)
	}
}
