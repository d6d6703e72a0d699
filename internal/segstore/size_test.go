package segstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gostats/internal/schema"
)

// churnHost is one simulated host of a process-churn stream: about 500
// steady series from the default schemas, and the ps class's 11-event
// series of processes that start at 8 new series per step on average
// (8 processes every 11 steps) and run for 6 steps each.
type churnHost struct {
	name   string
	steady []*Ref
	kinds  []int // by steady series: 0 always +0.0, 1 constant, 2 varying
	procs  []*churnProc
	rng    *rand.Rand
}

type churnProc struct {
	refs    []*Ref
	start   int
	varying []bool
}

// churnDevices is each steady class's device count.
var churnDevices = map[schema.Class]int{
	schema.ClassCPU: 22, schema.ClassPMC: 20, schema.ClassOSC: 24, schema.ClassIMC: 8,
	schema.ClassBlock: 4, schema.ClassQPI: 4, schema.ClassLlite: 3, schema.ClassMDC: 3,
	schema.ClassMem: 2, schema.ClassNet: 2, schema.ClassRAPL: 2, schema.ClassIB: 1,
	schema.ClassLnet: 1, schema.ClassVM: 1, schema.ClassMIC: 1,
}

func newChurnHost(i int) *churnHost {
	h := &churnHost{name: fmt.Sprintf("c%03d-%03d", 401+i/16, 101+i%16), rng: rand.New(rand.NewSource(int64(i)))}
	reg := schema.DefaultRegistry()
	for _, c := range reg.Classes() {
		for d := 0; d < churnDevices[c]; d++ {
			for _, ev := range reg.Get(c).Events {
				h.steady = append(h.steady, &Ref{Labels: Labels{Host: h.name, DevType: string(c), Device: fmt.Sprint(d), Event: ev.Name}})
				k := 2
				if r := h.rng.Intn(100); r < 40 {
					k = 0
				} else if r < 55 {
					k = 1
				}
				h.kinds = append(h.kinds, k)
			}
		}
	}
	return h
}

// row appends the host's step: every steady series and every running
// process's series, one point each at the step's time.
func (h *churnHost) row(s *Store, step int) {
	const lifetime = 6
	for k := len(h.procs); k*11/8 <= step; k++ {
		p := &churnProc{start: step}
		dev := fmt.Sprintf("%d/user%02d/app%d.exe", 20000+k, k%17, k%5)
		for j, ev := range schema.PSSchema().Events {
			p.refs = append(p.refs, &Ref{Labels: Labels{Host: h.name, DevType: string(schema.ClassPS), Device: dev, Event: ev.Name}})
			p.varying = append(p.varying, j%2 == 0)
		}
		h.procs = append(h.procs, p)
	}
	var refs []*Ref
	var vals []float64
	for i, r := range h.steady {
		v := 0.0
		switch h.kinds[i] {
		case 1:
			v = float64(1 + i)
		case 2:
			v = float64(h.rng.Intn(1<<20)) / 64
		}
		refs, vals = append(refs, r), append(vals, v)
	}
	for _, p := range h.procs {
		if step < p.start || step >= p.start+lifetime {
			continue
		}
		for j, r := range p.refs {
			v := float64(4096 * (j + 1))
			if p.varying[j] {
				v = float64(h.rng.Intn(1 << 30))
			}
			refs, vals = append(refs, r), append(vals, v)
		}
	}
	s.AppendRow(h.name, float64(600*(step+1)), refs, vals)
}

// labelShares seals a simulated day of the given number of churn hosts,
// all in one shard, committing a frame every 3 steps as a cold-attached
// tsdb does, and returns the shares of the sealed bytes spent on index
// frames and on label bytes: the introductions inline in the data
// frames plus the index's dictionary.
func labelShares(t *testing.T, hosts int) (index, labels float64) {
	t.Helper()
	opts := testOpts()
	opts.Shards = 1
	opts.SegmentBytes = 1 << 20
	opts.FlushBytes = 32 << 10
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var hs []*churnHost
	for i := 0; i < hosts; i++ {
		hs = append(hs, newChurnHost(i))
	}
	for step := 0; step < 144; step++ {
		for _, h := range hs {
			h.row(s, step)
		}
		if step%3 == 2 {
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	sealed := st.TierBytes[tierRaw]
	var indexBytes, labelBytes int64
	for _, info := range s.shards[0].sealed[tierRaw] {
		d, raw := readSealed(t, info.path)
		frames := walkSegFrames(t, raw)
		if last := frames[len(frames)-1]; last.typ == frameIndex {
			indexBytes += int64(last.size)
		}
		// The writer codes each series' labels once, in introduction
		// order; the index's labels are its payload without frames.
		lc := newLabelCoder()
		for _, l := range d.series {
			labelBytes += int64(len(lc.appendLabels(nil, l)))
		}
		labelBytes += int64(len(encodeIndexPayload(&segIndex{segDict: d.segDict})) - 1)
	}
	if indexBytes != st.TierIndexBytes[tierRaw] {
		t.Fatalf("Stats.TierIndexBytes %d, index frames on disk %d", st.TierIndexBytes[tierRaw], indexBytes)
	}
	t.Logf("%d host(s) per shard: %d sealed bytes in %d segments for %d points: index frames %.1f%%, label bytes %.1f%%, %.2f B/point",
		hosts, sealed, st.TierSegments[tierRaw], st.TierPoints[tierRaw],
		100*float64(indexBytes)/float64(sealed), 100*float64(labelBytes)/float64(sealed), float64(sealed)/float64(st.TierPoints[tierRaw]))
	return float64(indexBytes) / float64(sealed), float64(labelBytes) / float64(sealed)
}

// readSealed returns a sealed segment's parse and bytes.
func readSealed(t *testing.T, path string) (*segData, []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := parseSegment(raw)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return d, raw
}

// TestLabelAndIndexShare bounds what a process-churn day costs beyond
// its points: the index frames at most 4% of the sealed bytes, and the
// label bytes, inline and in the index, at most 6%. Format 2, which
// wrote each series' four strings inline and again in the index and
// listed every ref of every frame, spent 14.1% and 19.4% at one host
// per shard and 22.7% and 28.9% at eight.
func TestLabelAndIndexShare(t *testing.T) {
	for _, hosts := range []int{1, 8} {
		index, labels := labelShares(t, hosts)
		if index > 0.04 || labels > 0.06 {
			t.Errorf("%d host(s) per shard: index frames %.1f%% of sealed bytes (want ≤ 4%%), label bytes %.1f%% (want ≤ 6%%)",
				hosts, 100*index, 100*labels)
		}
	}
}

// TestIndexBytesFollowTheFiles checks Stats.TierIndexBytes and the
// gostats_segstore_index_bytes gauges against the index frames on disk
// after seals, a compaction and retention pass, and a reopen that
// recovers an active segment and quarantines a damaged one.
func TestIndexBytesFollowTheFiles(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.Shards = 1
	opts.SegmentBytes = 4 << 10
	opts.FlushBytes = 512
	opts.CompactRawAfter = 6 * 3600
	opts.RetainRaw = 30 * 3600
	opts.Logf = t.Logf
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	check := func(stage string) {
		t.Helper()
		paths, _ := filepath.Glob(filepath.Join(dir, "shard-*", "t*-*.seg"))
		var disk [numTiers]int64
		for _, path := range paths {
			tier, _, _ := parseSealedName(filepath.Base(path))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if frames := walkSegFrames(t, data); frames[len(frames)-1].typ == frameIndex {
				disk[tier] += int64(frames[len(frames)-1].size)
			}
		}
		st := s.Stats()
		for tier := 0; tier < numTiers; tier++ {
			if st.TierIndexBytes[tier] != disk[tier] || s.met.tierIndex[tier].Value() != float64(disk[tier]) {
				t.Fatalf("%s: tier %s index bytes: stats %d, gauge %g, on disk %d", stage, TierName(tier),
					st.TierIndexBytes[tier], s.met.tierIndex[tier].Value(), disk[tier])
			}
		}
	}
	for tm := 0.0; tm < 2*86400; tm += 60 {
		for h := 0; h < 3; h++ {
			s.Append(Point{Labels: Labels{Host: fmt.Sprint("h", h), DevType: "cpu", Device: "0", Event: "user"}, Time: tm, Value: tm})
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	check("seal")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions == 0 || st.Dropped == 0 {
		t.Fatalf("no compaction or retention: %+v", st)
	}
	check("compaction and retention")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Strip one raw segment's index and leave it as the active segment a
	// crash left behind; damage another's data.
	raws, _ := filepath.Glob(filepath.Join(dir, "shard-00", "t0-*.seg"))
	if len(raws) < 2 {
		t.Fatalf("%d raw segments left", len(raws))
	}
	data, err := os.ReadFile(raws[len(raws)-1])
	if err != nil {
		t.Fatal(err)
	}
	frames := walkSegFrames(t, data)
	_, seq, _ := parseSealedName(filepath.Base(raws[len(raws)-1]))
	if err := os.WriteFile(filepath.Join(dir, "shard-00", activeName(seq)), data[:frames[len(frames)-1].off], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(raws[len(raws)-1]); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(raws[0]); err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(raws[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Seals != 1 {
		t.Fatalf("reopen: %+v, want one quarantine and one recovery seal", st)
	}
	check("reopen")
}
