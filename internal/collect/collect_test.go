package collect

import (
	"errors"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/schema"
)

func testCollector(t *testing.T) *Collector {
	t.Helper()
	n, err := hwsim.NewNode("c401-101", chip.StampedeNode(), 3)
	if err != nil {
		t.Fatal(err)
	}
	n.Advance(60, hwsim.Demand{CPUUserFrac: 0.8, IPC: 1.1, FlopsRate: 1e10,
		Processes: []hwsim.Process{{PID: 1, Exe: "wrf.exe", Owner: "u1", VmRSS: 1 << 30}}})
	return New(n)
}

func TestCollectProducesFullSweep(t *testing.T) {
	c := testCollector(t)
	snap, cost := c.Collect(1000, []string{"42"}, "")
	if snap.Time != 1000 || snap.Host != "c401-101" {
		t.Errorf("snapshot meta: %+v", snap)
	}
	if !snap.HasJob("42") {
		t.Error("job label missing")
	}
	classes := map[schema.Class]bool{}
	for _, r := range snap.Records {
		classes[r.Class] = true
	}
	for _, want := range c.Node().Registry().Classes() {
		if !classes[want] {
			t.Errorf("sweep missing class %s", want)
		}
	}
	if cost <= CostBase {
		t.Errorf("cost = %g, want > base", cost)
	}
}

func TestCollectCostScale(t *testing.T) {
	// The simulated cost of a full Stampede sweep should land near the
	// paper's ~0.09 s.
	c := testCollector(t)
	_, cost := c.Collect(0, nil, "")
	if cost < 0.05 || cost > 0.15 {
		t.Errorf("per-collection cost = %g s, want ~0.09 s", cost)
	}
}

func TestStatsAccumulateAndOverhead(t *testing.T) {
	c := testCollector(t)
	for i := 0; i < 6; i++ {
		c.Collect(float64(i)*600, nil, "")
	}
	st := c.Stats()
	if st.Collections != 6 {
		t.Errorf("collections = %d", st.Collections)
	}
	if st.Records == 0 {
		t.Error("no records counted")
	}
	// 6 collections over an hour at ~0.09 s each: overhead ~0.015%.
	ov := st.Overhead(3600)
	if ov < 5e-5 || ov > 5e-4 {
		t.Errorf("overhead = %g, want ~1.5e-4", ov)
	}
	if st.Overhead(0) != 0 {
		t.Error("zero-span overhead should be 0")
	}
}

func TestJobMark(t *testing.T) {
	if m := JobMark(MarkBegin, "77"); m != "begin 77" {
		t.Errorf("mark = %q", m)
	}
}

func TestCollectCopiesJobIDs(t *testing.T) {
	c := testCollector(t)
	ids := []string{"1"}
	snap, _ := c.Collect(0, ids, "")
	ids[0] = "mutated"
	if snap.JobIDs[0] != "1" {
		t.Error("snapshot aliases caller's job id slice")
	}
}

// TestCronAgentEndToEnd is the Fig 1 pipeline on one node: collections
// append to the node-local log, which the daily sync copies to the
// central store.
func TestCronAgentEndToEnd(t *testing.T) {
	c := testCollector(t)
	spool := t.TempDir()
	l, err := rawfile.NewNodeLogger(spool, c.Header())
	if err != nil {
		t.Fatal(err)
	}
	for _, tick := range []struct {
		now  float64
		mark string
	}{{100, JobMark(MarkBegin, "9")}, {700, ""}} {
		snap, _ := c.Collect(tick.now, []string{"9"}, tick.mark)
		if err := l.Log(snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := rawfile.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SyncFrom("c401-101", spool); err != nil {
		t.Fatal(err)
	}
	snaps, err := st.ReadHost("c401-101")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	if snaps[0].Mark != "begin 9" {
		t.Errorf("mark = %q", snaps[0].Mark)
	}
}

func TestDaemonAgentPublishes(t *testing.T) {
	c := testCollector(t)
	var got []model.Snapshot
	a := NewDaemonAgent(c, PublisherFunc(func(s model.Snapshot) error {
		got = append(got, s)
		return nil
	}))
	if err := a.Tick(100, []string{"5"}, ""); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Time != 100 {
		t.Fatalf("published = %+v", got)
	}
}

func TestDaemonAgentPublishFailure(t *testing.T) {
	c := testCollector(t)
	boom := errors.New("broker down")
	a := NewDaemonAgent(c, PublisherFunc(func(s model.Snapshot) error { return boom }))
	if err := a.Tick(0, nil, ""); !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped broker error", err)
	}
	// The collection itself still happened (cost was paid).
	if c.Stats().Collections != 1 {
		t.Error("failed publish should not erase the collection")
	}
}

func TestHeaderMatchesNode(t *testing.T) {
	c := testCollector(t)
	h := c.Header()
	if h.Hostname != "c401-101" || h.Arch != "sandybridge" || h.Registry == nil {
		t.Errorf("header = %+v", h)
	}
}
