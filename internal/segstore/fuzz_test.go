package segstore

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentDecode throws arbitrary bytes at the segment reader. The
// decoder must never panic, never allocate absurdly, and — the recovery
// contract — whatever prefix it accepts must reparse to the identical
// result (truncating to the good length is what torn-tail recovery does,
// so the accepted prefix has to be a fixed point).
func FuzzSegmentDecode(f *testing.F) {
	// Seed with a real segment plus mutations of its interesting offsets.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.seg")
	w, err := newSegWriter(path, Meta{Tier: tierRaw, Shard: 3, Seq: 42, CoverLo: 42, CoverHi: 42}, false)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v := float64(i) * 1.5
		w.add(&Ref{Labels: Labels{Host: "fuzz", DevType: "cpu", Device: "cpu0", Event: "user"}},
			AggPoint{Time: 100 + float64(i), Count: 1, Sum: v, Min: v, Max: v})
		if i%2 == 1 {
			if err := w.flushFrame(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := w.close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	for _, off := range []int{0, 4, 8, len(seed) / 3, len(seed) - 2} {
		mut := append([]byte(nil), seed...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	// A bucket-tier seed too, so tier>0 decode paths get coverage.
	bpath := filepath.Join(dir, "bucket.seg")
	bw, err := newSegWriter(bpath, Meta{Tier: tierMid, Shard: 0, Seq: 9, CoverLo: 1, CoverHi: 8, BucketMs: 600000}, false)
	if err != nil {
		f.Fatal(err)
	}
	bw.add(&Ref{Labels: Labels{Host: "fuzz", DevType: "ib", Device: "mlx0", Event: "rx"}},
		AggPoint{Time: 600, Count: 20, Sum: 40, Min: 1, Max: 3})
	if err := bw.close(); err != nil {
		f.Fatal(err)
	}
	bseed, err := os.ReadFile(bpath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bseed)
	f.Add([]byte{})
	f.Add([]byte{0x00, 'G', 'S', 'S', 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, good, _ := parseSegment(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good prefix %d out of range [0,%d]", good, len(data))
		}
		if d == nil {
			return
		}
		d2, good2, derr2 := parseSegment(data[:good])
		if derr2 != nil && d2 != nil && d2.entries != d.entries {
			t.Fatalf("accepted prefix is not a fixed point: %d entries, then %d (err %v)",
				d.entries, d2.entries, derr2)
		}
		if d2 != nil {
			if good2 != good || d2.entries != d.entries || d2.count != d.count {
				t.Fatalf("reparse mismatch: good %d->%d entries %d->%d count %d->%d",
					good, good2, d.entries, d2.entries, d.count, d2.count)
			}
		}
	})
}
