package main

import (
	"testing"
)

// TestSmoke runs each workload at the tiny size, untraced and traced,
// with every output check, and looks for each metric the result must
// carry.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the composed system")
	}
	for _, w := range []string{"backfill", "live", "history"} {
		for _, traced := range []bool{false, true} {
			c, err := sized("small", config{workload: w, seed: 7, seconds: 1, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			res, err := runOnce(c, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := []string{"setup_s", "cpu_ms_per_op", "p50_ms", "peak_rss_mb",
				"archive_bytes_per_snap", "store_bytes_per_point"}
			if traced {
				want = want[:0]
				for _, pl := range perLayer {
					want = append(want, pl.name)
				}
			}
			for _, k := range want {
				m, ok := res.Metrics[k]
				if !ok {
					t.Fatalf("%s traced=%v: no metric %s", w, traced, k)
				}
				if !traced && m.Value <= 0 {
					t.Fatalf("%s: %s = %g, want > 0", w, k, m.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
		}
	}
}
