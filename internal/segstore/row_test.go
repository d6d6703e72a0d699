package segstore

import (
	"fmt"
	"math"
	"testing"
)

// TestAppendRowRefsAcrossSealsCompactionAndReopen appends rows through
// long-lived Refs while the store seals segments in the middle of rows,
// compacts, and is closed and reopened. A Ref whose cached dictionary
// ref outlived its segment would write a point under another series'
// labels (or an undecodable ref) in the next segment, so every point
// must scan back exactly once, under its own labels, with its value.
func TestAppendRowRefsAcrossSealsCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 1 << 10
	opts.FlushBytes = 256
	opts.CompactRawAfter = 1800
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []string{"alpha", "beta", "gamma"}
	const perHost, steps, step = 10, 180, 60.0
	refs := make([][]*Ref, len(hosts))
	id := make(map[Labels]int)
	for h, host := range hosts {
		for i := 0; i < perHost; i++ {
			l := Labels{Host: host, DevType: "cpu", Device: fmt.Sprintf("cpu%d", i/2), Event: []string{"user", "sys"}[i%2]}
			id[l] = h*perHost + i
			refs[h] = append(refs[h], &Ref{Labels: l})
		}
	}
	value := func(series, k int) float64 { return float64(series*100000 + k) }

	vals := make([]float64, perHost)
	for k := 0; k < steps; k++ {
		switch k {
		case steps / 3:
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		case 2 * steps / 3:
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
		}
		for h, host := range hosts {
			for i, r := range refs[h] {
				vals[i] = value(id[r.Labels], k)
			}
			s.AppendRow(host, float64(k)*step, refs[h], vals)
		}
	}
	defer s.Close()
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// Stats count from the reopen; the 10-minute tier shows the
	// compaction before it.
	st := s.Stats()
	if st.TierSegments[tierMid] == 0 || st.Quarantined != 0 || st.Seals < 10 {
		t.Fatalf("want several seals, a compaction and no quarantine: %+v", st)
	}

	chunks, err := s.Scan(Filter{}, 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != len(id) {
		t.Fatalf("scanned %d series, want %d", len(chunks), len(id))
	}
	for _, c := range chunks {
		series, ok := id[c.Labels]
		if !ok {
			t.Fatalf("scanned unknown series %+v", c.Labels)
		}
		var n uint64
		var sum float64
		for _, p := range c.Points {
			if p.Min < value(series, 0) || p.Max > value(series, steps-1) {
				t.Fatalf("%+v holds values [%g, %g] of another series", c.Labels, p.Min, p.Max)
			}
			if p.Count == 1 && p.Sum != value(series, int(p.Time/step)) {
				t.Fatalf("%+v at t=%g: value %g, want %g", c.Labels, p.Time, p.Sum, value(series, int(p.Time/step)))
			}
			n += p.Count
			sum += p.Sum
		}
		if want := float64(steps)*value(series, 0) + steps*(steps-1)/2; n != steps || sum != want {
			t.Fatalf("%+v: %d points summing to %g, want %d summing to %g", c.Labels, n, sum, steps, want)
		}
	}
}
