package watch_test

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/etl"
	"gostats/internal/flagging"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/reldb"
	"gostats/internal/telemetry"
	"gostats/internal/watch"
)

// parityFixture builds a deterministic two-node snapshot stream with
// three jobs engineered to trip distinct flags:
//
//   - job 10 (nodes c1+c2): c2 stays idle, so idle_nodes fires;
//   - job 11 (c1): metadata storm at low IPC, so high_metadata_rate and
//     high_cpi fire;
//   - job 12 (c2): healthy, no flags.
func parityFixture(t *testing.T) []model.Snapshot {
	t.Helper()
	cfg := chip.StampedeNode()
	mkNode := func(host string, seed int64) (*hwsim.Node, *collect.Collector) {
		n, err := hwsim.NewNode(host, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		return n, collect.New(n)
	}
	n1, c1 := mkNode("c1", 1)
	n2, c2 := mkNode("c2", 2)

	var snaps []model.Snapshot
	tick := func(col *collect.Collector, at float64, jobs []string, mark string) {
		s, _ := col.Collect(at, jobs, mark)
		snaps = append(snaps, s)
	}

	busy := hwsim.Demand{CPUUserFrac: 0.9, IPC: 1.2, LoadRate: 1e9, L1HitFrac: 0.95}
	idle := hwsim.Demand{}
	storm := hwsim.Demand{CPUUserFrac: 0.8, IPC: 0.4, MDCReqRate: 50000}

	// Job 10: t=0..1800 on both nodes, c2 idle.
	tick(c1, 0, []string{"10"}, collect.JobMark(collect.MarkBegin, "10"))
	tick(c2, 0, []string{"10"}, "")
	for _, at := range []float64{600, 1200} {
		n1.Advance(600, busy)
		n2.Advance(600, idle)
		tick(c1, at, []string{"10"}, "")
		tick(c2, at, []string{"10"}, "")
	}
	n1.Advance(600, busy)
	n2.Advance(600, idle)
	tick(c1, 1800, []string{"10"}, collect.JobMark(collect.MarkEnd, "10"))
	tick(c2, 1800, []string{"10"}, "")

	// Jobs 11 (c1, metadata storm) and 12 (c2, healthy): t=2400..4200.
	n1.Advance(600, idle)
	n2.Advance(600, idle)
	tick(c1, 2400, []string{"11"}, collect.JobMark(collect.MarkBegin, "11"))
	tick(c2, 2400, []string{"12"}, collect.JobMark(collect.MarkBegin, "12"))
	for _, at := range []float64{3000, 3600} {
		n1.Advance(600, storm)
		n2.Advance(600, busy)
		tick(c1, at, []string{"11"}, "")
		tick(c2, at, []string{"12"}, "")
	}
	n1.Advance(600, storm)
	n2.Advance(600, busy)
	tick(c1, 4200, []string{"11"}, collect.JobMark(collect.MarkEnd, "11"))
	tick(c2, 4200, []string{"12"}, collect.JobMark(collect.MarkEnd, "12"))

	// Trailing empty ticks push the watermark past every grace window.
	for _, at := range []float64{4800, 5400} {
		n1.Advance(600, idle)
		n2.Advance(600, idle)
		tick(c1, at, nil, "")
		tick(c2, at, nil, "")
	}
	return snaps
}

// watchStream feeds stream through an assembler (with the given
// lateness and scheduler meta) that the watcher observes, then flushes
// the assembler, which flushes the watcher.
func watchStream(t *testing.T, stream []model.Snapshot, lateness float64, meta map[string]etl.Meta, events *bytes.Buffer) (*watch.Watcher, *etl.Assembler) {
	t.Helper()
	reg := telemetry.NewRegistry()
	a := &etl.Assembler{Registry: chip.StampedeNode().Registry(), Meta: meta,
		EndGrace: etl.DefaultEndGrace, Lateness: lateness, Metrics: reg}
	w := &watch.Watcher{Thresholds: flagging.DefaultThresholds(), Metrics: reg}
	if events != nil {
		w.EventLog = events
	}
	w.Attach(a)
	for _, s := range stream {
		a.Feed(s)
	}
	a.Flush()
	return w, a
}

// skewedFixture is the parity fixture with c2's snapshots delivered one
// tick behind c1's — the broker's cross-host skew.
func skewedFixture(t *testing.T) []model.Snapshot {
	snaps := parityFixture(t)
	var c1s, c2s []model.Snapshot
	for _, s := range snaps {
		if s.Host == "c1" {
			c1s = append(c1s, s)
		} else {
			c2s = append(c2s, s)
		}
	}
	var skewed []model.Snapshot
	for i, s := range c1s {
		skewed = append(skewed, s)
		if i > 0 {
			skewed = append(skewed, c2s[i-1])
		}
	}
	skewed = append(skewed, c2s[len(c1s)-1:]...)
	if len(skewed) != len(snaps) {
		t.Fatalf("skewed stream has %d snapshots, want %d", len(skewed), len(snaps))
	}
	return skewed
}

// decodeEvents parses a JSON-lines event log.
func decodeEvents(t *testing.T, log *bytes.Buffer) []watch.Event {
	t.Helper()
	var out []watch.Event
	for _, line := range bytes.Split(bytes.TrimSpace(log.Bytes()), []byte("\n")) {
		var e watch.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

// TestOnlineFlagsMatchPostHoc is the flag-parity fixture: online watch
// flags over the live stream must exactly match the post-hoc batch
// sweep over the same data — same jobs, same flag sets. Run under
// -race via `make race`.
func TestOnlineFlagsMatchPostHoc(t *testing.T) {
	snaps := parityFixture(t)
	reg := chip.StampedeNode().Registry()
	thr := flagging.DefaultThresholds()

	// Post-hoc path: batch assemble then sweep, as the nightly ETL does.
	db := reldb.New()
	a := &etl.Assembler{Registry: reg, DB: db, EndGrace: etl.DefaultEndGrace,
		Metrics: telemetry.NewRegistry()}
	for _, s := range snaps {
		a.Feed(s)
	}
	a.Flush()
	rep, err := flagging.Sweep(db, flagging.Default(thr))
	if err != nil {
		t.Fatal(err)
	}

	// Online path: the watcher over the identical stream.
	var events bytes.Buffer
	w, _ := watchStream(t, snaps, 0, nil, &events)
	results := w.Results()

	if len(results) != rep.Total {
		t.Fatalf("watcher finalized %d jobs, batch swept %d", len(results), rep.Total)
	}
	if len(rep.ByJob) == 0 {
		t.Fatal("fixture raised no post-hoc flags; thresholds no longer bite")
	}
	for id, res := range results {
		want := append([]string(nil), rep.ByJob[id]...)
		got := append([]string(nil), res.Flags...)
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %s: online flags %v, post-hoc %v", id, got, want)
		}
	}

	// The two-node idle job must have been caught mid-run, not just at
	// finalize: its first idle_nodes raise precedes the job's end.
	res10 := results["10"]
	raiseAt, ok := res10.Raised["idle_nodes"]
	if !ok {
		t.Fatalf("job 10 idle_nodes never raised mid-run: %+v", res10)
	}
	if raiseAt >= res10.End {
		t.Errorf("job 10 idle_nodes raised at %g, not before end %g", raiseAt, res10.End)
	}

	// The event log is structured JSON lines covering raises and finals.
	var raises, finals int
	for _, e := range decodeEvents(t, &events) {
		switch e.Kind {
		case "flag_raised":
			raises++
		case "job_final":
			finals++
		default:
			t.Fatalf("unknown event kind %q", e.Kind)
		}
	}
	if raises == 0 || finals != len(results) {
		t.Fatalf("event log has %d raises, %d finals (want >0, %d)", raises, finals, len(results))
	}
}

// goldenRun is one recorded watcher run: verdicts, and each job's event
// sequence without wall-clock stamps.
type goldenRun struct {
	Results map[string]watch.Result  `json:"results"`
	Events  map[string][]goldenEvent `json:"events"`
}

type goldenEvent struct {
	Kind       string   `json:"kind"`
	Flag       string   `json:"flag,omitempty"`
	Flags      []string `json:"flags,omitempty"`
	StreamTime float64  `json:"stream_time"`
}

// TestVerdictsMatchGolden pins the watcher's observable output on the
// parity fixture — Results (flags, raise times, span) and every job's
// event sequence — ordered, skewed with a lateness window, and skewed
// without one. testdata/parity_golden.json was recorded from the
// standalone watcher that kept its own copy of every job's series,
// before it became an observer of the assembler; the two must agree.
func TestVerdictsMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/parity_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenRun
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		stream   []model.Snapshot
		lateness float64
	}{
		"ordered":        {parityFixture(t), 0},
		"skewed":         {skewedFixture(t), 600},
		"skewed_no_late": {skewedFixture(t), 0},
	}
	for name, c := range cases {
		var events bytes.Buffer
		w, _ := watchStream(t, c.stream, c.lateness, nil, &events)
		got := goldenRun{Results: w.Results(), Events: map[string][]goldenEvent{}}
		for _, e := range decodeEvents(t, &events) {
			got.Events[e.JobID] = append(got.Events[e.JobID],
				goldenEvent{Kind: e.Kind, Flag: e.Flag, Flags: e.Flags, StreamTime: e.StreamTime})
		}
		// Compare through JSON so nil and empty collections match the
		// recorded encoding.
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		var norm goldenRun
		if err := json.Unmarshal(b, &norm); err != nil {
			t.Fatal(err)
		}
		want, ok := golden[name]
		if !ok {
			t.Fatalf("golden has no %q run", name)
		}
		if !reflect.DeepEqual(norm, want) {
			t.Errorf("%s: watcher output diverged from golden\ngot  %s\nwant %+v", name, b, want)
		}
	}
}

// A job without scheduler meta must fall back to observed hosts for
// Nodes (idle_nodes needs Nodes > 1), while the assembler's etl.Meta
// join can override queue membership for largemem_waste.
func TestWatcherMetaJoin(t *testing.T) {
	snaps := parityFixture(t)
	meta := map[string]etl.Meta{"12": {Queue: "largemem", Nodes: 1}}
	w, _ := watchStream(t, snaps, 0, meta, nil)
	res := w.Results()
	found := false
	for _, f := range res["12"].Flags {
		if f == "largemem_waste" {
			found = true
		}
	}
	if !found {
		t.Errorf("job 12 in largemem queue should raise largemem_waste: %+v", res["12"])
	}
	found = false
	for _, f := range res["10"].Flags {
		if f == "idle_nodes" {
			found = true
		}
	}
	if !found {
		t.Errorf("meta-less two-node job 10 should raise idle_nodes: %+v", res["10"])
	}
}

// TestLatenessAbsorbsDeliverySkew replays the parity fixture with one
// host's deliveries lagging a full tick — the broker's cross-host skew.
// Without a lateness window the assembler would finalize jobs before
// the lagging host's tail samples (or end marks) arrive, and the
// watcher would report degenerate flag sets. With Lateness of one
// interval the results must match the time-ordered feed exactly, with
// one final per job.
func TestLatenessAbsorbsDeliverySkew(t *testing.T) {
	run := func(stream []model.Snapshot, lateness float64) (map[string]watch.Result, map[string]int) {
		var events bytes.Buffer
		w, _ := watchStream(t, stream, lateness, nil, &events)
		finals := map[string]int{}
		for _, e := range decodeEvents(t, &events) {
			if e.Kind == "job_final" {
				finals[e.JobID]++
			}
		}
		return w.Results(), finals
	}

	ordered, orderedFinals := run(parityFixture(t), 0)
	got, finals := run(skewedFixture(t), 600)
	if len(got) != len(ordered) {
		t.Fatalf("skewed feed finalized %d jobs, ordered %d", len(got), len(ordered))
	}
	for id, res := range ordered {
		want := append([]string(nil), res.Flags...)
		have := append([]string(nil), got[id].Flags...)
		sort.Strings(want)
		sort.Strings(have)
		if !reflect.DeepEqual(have, want) {
			t.Errorf("job %s: skewed flags %v, ordered %v", id, have, want)
		}
	}
	for id, n := range finals {
		if n != 1 {
			t.Errorf("job %s finalized %d times under skew, want exactly once", id, n)
		}
	}
	for id, n := range orderedFinals {
		if n != 1 {
			t.Errorf("job %s finalized %d times on ordered feed, want exactly once", id, n)
		}
	}
}
