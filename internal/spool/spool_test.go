package spool

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
)

func testHeader() rawfile.Header {
	return rawfile.Header{
		Hostname: "c401-101",
		Arch:     "sandybridge",
		Registry: chip.StampedeNode().Registry(),
	}
}

func testSnap(t float64) model.Snapshot {
	return model.Snapshot{
		Time: t,
		Host: "c401-101",
		Records: []model.Record{
			{Class: schema.ClassCPU, Instance: "0", Values: []uint64{1, 2, 3, 4, 5, 6, 7}},
			{Class: schema.ClassLnet, Instance: "lnet", Values: []uint64{uint64(t), 200}},
		},
	}
}

func testOpts() Options {
	return Options{Metrics: telemetry.NewRegistry()}
}

func mustAppend(t *testing.T, s *Spool, times ...float64) {
	t.Helper()
	for _, tt := range times {
		if err := s.Append(testSnap(tt)); err != nil {
			t.Fatal(err)
		}
	}
}

func drainAll(t *testing.T, s *Spool) []float64 {
	t.Helper()
	var got []float64
	if _, err := s.Drain(func(snap model.Snapshot) error {
		got = append(got, snap.Time)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendDrainOrder(t *testing.T) {
	s, err := Open(t.TempDir(), testHeader(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, 100, 200, 300, 400)
	if d := s.Depth(); d != 4 {
		t.Fatalf("depth = %d", d)
	}
	got := drainAll(t, s)
	want := []float64{100, 200, 300, 400}
	if len(got) != len(want) {
		t.Fatalf("drained %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	if d := s.Depth(); d != 0 {
		t.Errorf("depth after drain = %d", d)
	}
	// Fully replayed segments are deleted from disk.
	entries, _ := os.ReadDir(s.Dir())
	if len(entries) != 0 {
		t.Errorf("%d files left after full drain", len(entries))
	}
}

func TestAppendDuringDrainPreservesOrder(t *testing.T) {
	s, err := Open(t.TempDir(), testHeader(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, 1, 2)
	var got []float64
	appended := false
	if _, err := s.Drain(func(snap model.Snapshot) error {
		got = append(got, snap.Time)
		if !appended {
			appended = true
			// A publish arriving mid-replay must land behind the backlog.
			return s.Append(testSnap(3))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("order = %v", got)
	}
}

func TestDrainStopsOnErrorAndResumes(t *testing.T) {
	s, err := Open(t.TempDir(), testHeader(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, 1, 2, 3)
	boom := errors.New("broker still down")
	n, err := s.Drain(func(snap model.Snapshot) error {
		if snap.Time >= 2 {
			return boom
		}
		return nil
	})
	if n != 1 || !errors.Is(err, boom) {
		t.Fatalf("drain = %d, %v", n, err)
	}
	if d := s.Depth(); d != 2 {
		t.Fatalf("depth after failed drain = %d", d)
	}
	got := drainAll(t, s)
	if fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("resume = %v", got)
	}
}

// TestCrashRecoveryTornTail kills the writer mid-frame, reopens, and
// asserts the torn tail is truncated and every complete frame replays
// exactly once.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testHeader(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, 10, 20, 30)
	// Simulate the crash: the process dies without Close; the last frame
	// is half-written. Chop the file mid-record rather than on a line
	// boundary.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.raw"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Find the final timestamp line ("30.000 -") and cut inside the
	// record block that follows it.
	idx := strings.LastIndex(string(data), "30.000")
	if idx < 0 {
		t.Fatalf("no final frame in %q", data)
	}
	if err := os.WriteFile(segs[0], data[:idx+len("30.000 -\ncpu 0 1 2")], 0o644); err != nil {
		t.Fatal(err)
	}
	// A file named like a segment plus a suffix (older releases left
	// rewrite temp files so) is not a segment and must not replay.
	if err := os.WriteFile(segs[0]+".tmp-1", data, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, testHeader(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	st := reopened.Stats()
	if st.Truncated != 1 {
		t.Errorf("truncated = %d, want 1", st.Truncated)
	}
	got := drainAll(t, reopened)
	if fmt.Sprint(got) != "[10 20]" {
		t.Fatalf("recovered frames = %v, want [10 20] exactly once", got)
	}
	if reopened.Depth() != 0 {
		t.Errorf("depth = %d", reopened.Depth())
	}
}

func TestReopenReplaysUnreplayed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testHeader(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, 1, 2, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, testHeader(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := drainAll(t, s2)
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("replay after reopen = %v", got)
	}
}

func TestSegmentRotationAndByteCap(t *testing.T) {
	// Tiny segments and a cap of ~3 segments force oldest-first eviction.
	opts := testOpts()
	opts.SegmentBytes = 1 // rotate after every append
	opts.MaxBytes = 1     // every closed segment is over budget
	s, err := Open(t.TempDir(), testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, 1, 2, 3, 4)
	st := s.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions under a 1-byte cap: %+v", st)
	}
	got := drainAll(t, s)
	// Whatever survived must be the newest suffix, in order.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order after eviction: %v", got)
		}
	}
	if len(got)+int(st.Evicted) != 4 {
		t.Errorf("survived %d + evicted %d != 4", len(got), st.Evicted)
	}
}

func TestAgeCapEvictsOldSegments(t *testing.T) {
	opts := testOpts()
	opts.SegmentBytes = 1 // every snapshot its own segment
	opts.MaxAge = 100
	s, err := Open(t.TempDir(), testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, 1000, 1010, 2000) // 1000,1010 are >100s older than 2000
	got := drainAll(t, s)
	if fmt.Sprint(got) != "[2000]" {
		t.Fatalf("survivors = %v, want [2000]", got)
	}
	if st := s.Stats(); st.Evicted != 2 {
		t.Errorf("evicted = %d, want 2", st.Evicted)
	}
}

func TestSpoolTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := Options{Metrics: reg}
	s, err := Open(t.TempDir(), testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, 5, 10)
	vals := telemetry.ParseExposition(reg.Exposition())
	if got := vals[`gostats_spool_depth{host="c401-101"}`]; got != 2 {
		t.Errorf("depth gauge = %g", got)
	}
	if got := vals[`gostats_spool_appended_total{host="c401-101"}`]; got != 2 {
		t.Errorf("appended = %g", got)
	}
	if got := vals[`gostats_spool_oldest_age_seconds{host="c401-101"}`]; got != 5 {
		t.Errorf("oldest age = %g", got)
	}
	drainAll(t, s)
	vals = telemetry.ParseExposition(reg.Exposition())
	if got := vals[`gostats_spool_replayed_total{host="c401-101"}`]; got != 2 {
		t.Errorf("replayed = %g", got)
	}
	if got := vals[`gostats_spool_depth{host="c401-101"}`]; got != 0 {
		t.Errorf("depth after drain = %g", got)
	}
}

func TestClosedSpoolRefusesWork(t *testing.T) {
	s, err := Open(t.TempDir(), testHeader(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, 1)
	s.Close()
	if err := s.Append(testSnap(2)); err == nil {
		t.Error("append after close succeeded")
	}
	if _, err := s.Drain(func(model.Snapshot) error { return nil }); err == nil {
		t.Error("drain after close succeeded")
	}
}

// TestAppendRejectsForeignHost pins the one-spool-per-host contract: a
// snapshot from another host is refused with ErrHostMismatch and never
// reaches disk, so a replay cannot refile it under the spool's host.
func TestAppendRejectsForeignHost(t *testing.T) {
	s, err := Open(t.TempDir(), testHeader(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, 1)
	foreign := testSnap(2)
	foreign.Host = "c401-102"
	if err := s.Append(foreign); !errors.Is(err, ErrHostMismatch) {
		t.Fatalf("foreign append err = %v, want ErrHostMismatch", err)
	}
	if d := s.Depth(); d != 1 {
		t.Errorf("depth = %d after a refused append, want 1", d)
	}
	if got := drainAll(t, s); fmt.Sprint(got) != "[1]" {
		t.Errorf("drained %v, want [1]", got)
	}
}

// TestBinaryCrashRecoveryFrameGranularity is the v2 twin of
// TestCrashRecoveryTornTail: a binary spool killed mid-frame must come
// back with the torn frame cut and every complete frame replaying
// exactly once — frames are atomic, so no partial snapshot survives.
func TestBinaryCrashRecoveryFrameGranularity(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.Codec = codec.V2Binary
	s, err := Open(dir, testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, 10, 20, 30)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.raw"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 5 || data[0] != 0x00 || data[1] != 'G' || data[2] != 'S' || data[3] != 'B' {
		t.Fatalf("segment is not binary: % x", data[:min(8, len(data))])
	}
	// Crash mid-frame: chop into the last frame's CRC trailer.
	if err := os.WriteFile(segs[0], data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.Truncated != 1 {
		t.Errorf("truncated = %d, want 1", st.Truncated)
	}
	got := drainAll(t, reopened)
	if fmt.Sprint(got) != "[10 20]" {
		t.Fatalf("recovered frames = %v, want [10 20] exactly once", got)
	}
}

// A mixed-codec spool directory — segments written before and after a
// codec upgrade — must replay every segment in order, each in its own
// codec.
func TestMixedCodecSegmentsReplayInOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testHeader(), testOpts()) // v1 text
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, 1, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	opts := testOpts()
	opts.Codec = codec.V2Binary
	up, err := Open(dir, testHeader(), opts) // upgraded daemon
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	mustAppend(t, up, 3, 4)
	got := drainAll(t, up)
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("mixed-codec replay = %v, want [1 2 3 4]", got)
	}
}

// TestDrainAfterTornWrite appends the block of t=400 to the active
// segment behind the spool's back, torn inside its last record line as
// a failed short write leaves it: Drain replays only the whole
// snapshots, the same ones a reopen's recovery scan would keep.
func TestDrainAfterTornWrite(t *testing.T) {
	for _, v := range []codec.Version{codec.V1Text, codec.V2Binary} {
		dir := t.TempDir()
		opts := testOpts()
		opts.Codec = v
		s, err := Open(dir, testHeader(), opts)
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, s, 100, 200, 300)

		var block bytes.Buffer
		enc, err := codec.NewContinuation(&block, testHeader(), v)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteSnapshot(testSnap(400)); err != nil {
			t.Fatal(err)
		}
		torn := block.Bytes()[:block.Len()-3]
		if v == codec.V1Text { // cut before the last value: 1 of 2 records whole
			torn = block.Bytes()[:bytes.LastIndexByte(block.Bytes(), ' ')]
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.raw"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments = %v (%v)", segs, err)
		}
		f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(torn); err != nil {
			t.Fatal(err)
		}
		f.Close()

		if got := drainAll(t, s); fmt.Sprint(got) != "[100 200 300]" {
			t.Errorf("%v: drained %v, want [100 200 300]", v, got)
		}
		s.Close()
	}
}

// TestUnencodableSnapshotDoesNotWedge gives a binary spool snapshots its
// codec cannot encode, first on a fresh segment and then mid-segment:
// each such append fails, the good ones after it still append, and
// Drain replays exactly the good ones. A segment whose appends all
// failed leaves nothing for the next Open to recover.
func TestUnencodableSnapshotDoesNotWedge(t *testing.T) {
	bad := func(t float64) model.Snapshot {
		s := testSnap(t)
		s.Records = append(s.Records, model.Record{Class: "nosuch", Instance: "0", Values: []uint64{1}})
		return s
	}
	dir := t.TempDir()
	opts := testOpts()
	opts.Codec = codec.V2Binary
	s, err := Open(dir, testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, snap := range []model.Snapshot{bad(100), testSnap(200), bad(300), testSnap(400)} {
		if err := s.Append(snap); (err != nil) != (i%2 == 0) {
			t.Fatalf("append %d (t=%g): err %v", i, snap.Time, err)
		}
	}
	if st := s.Stats(); st.Appended != 2 || st.Depth != 2 {
		t.Fatalf("stats after appends = %+v, want 2 appended, depth 2", st)
	}
	if got := drainAll(t, s); fmt.Sprint(got) != "[200 400]" {
		t.Fatalf("drained %v, want [200 400]", got)
	}
	if err := s.Append(bad(500)); err == nil {
		t.Fatal("unencodable append succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.Segments != 0 || st.Truncated != 0 {
		t.Errorf("reopened after a failed-only segment: %+v, want no segments and no truncations", st)
	}
}
