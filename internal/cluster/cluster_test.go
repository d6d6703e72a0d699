package cluster

import (
	"fmt"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/lustresim"
	"gostats/internal/model"
	"gostats/internal/schema"
	"gostats/internal/workload"
)

func wrfSpec(id string, nodes int, runtime float64) workload.Spec {
	return workload.Spec{
		JobID: id, User: "u1", Exe: "wrf.exe", Queue: "normal",
		Nodes: nodes, Wayness: 16, Runtime: runtime,
		Status: workload.StatusCompleted,
		Model:  workload.Steady{Label: "wrf", P: workload.WRFProfile("u1")},
	}
}

func TestRunJobBasics(t *testing.T) {
	spec := wrfSpec("1001", 4, 3000)
	run, err := RunJob(spec, chip.StampedeNode(), 600, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Hosts) != 4 {
		t.Fatalf("hosts = %v", run.Hosts)
	}
	// begin + 4 interval ticks (600..2400) + end = 6 collections/node.
	if got := len(run.Snapshots); got != 6*4 {
		t.Fatalf("snapshots = %d, want 24", got)
	}
	if run.EndTime-run.StartTime != 3000 {
		t.Errorf("span = %g", run.EndTime-run.StartTime)
	}
	begins, ends := 0, 0
	for _, s := range run.Snapshots {
		if !s.HasJob("1001") {
			t.Error("snapshot missing job label")
		}
		switch s.Mark {
		case "begin 1001":
			begins++
		case "end 1001":
			ends++
		}
	}
	if begins != 4 || ends != 4 {
		t.Errorf("begin/end marks = %d/%d", begins, ends)
	}
	if run.CollectCost <= 0 {
		t.Error("no collect cost accounted")
	}
}

func TestRunJobShortJobStillGetsTwoPoints(t *testing.T) {
	// Shorter than the sampling interval: prolog + epilog only.
	spec := wrfSpec("7", 2, 120)
	run, err := RunJob(spec, chip.StampedeNode(), 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(run.Snapshots); got != 4 { // 2 nodes x (begin+end)
		t.Fatalf("snapshots = %d, want 4", got)
	}
	// Counters must still have advanced between the two points.
	user := map[string][]uint64{} // host -> cpu 0 user jiffies per sample
	for _, s := range run.Snapshots {
		for _, rec := range s.RecordsOf(schema.ClassCPU) {
			if rec.Instance == "0" {
				user[s.Host] = append(user[s.Host], rec.Values[0])
			}
		}
	}
	if len(user) != 2 {
		t.Fatalf("cpu series on %d hosts, want 2", len(user))
	}
	for host, u := range user {
		if len(u) != 2 {
			t.Fatalf("host %s: cpu samples = %d", host, len(u))
		}
		if u[1] <= u[0] {
			t.Error("user jiffies did not advance over the job")
		}
	}
}

func TestRunJobDeterministic(t *testing.T) {
	spec := wrfSpec("55", 2, 1800)
	a, err := RunJob(spec, chip.StampedeNode(), 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunJob(spec, chip.StampedeNode(), 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Snapshots) != len(b.Snapshots) {
		t.Fatal("snapshot counts differ")
	}
	for i := range a.Snapshots {
		ra, rb := a.Snapshots[i].Records, b.Snapshots[i].Records
		for j := range ra {
			for k := range ra[j].Values {
				if ra[j].Values[k] != rb[j].Values[k] {
					t.Fatalf("nondeterministic value at snap %d rec %d val %d", i, j, k)
				}
			}
		}
	}
}

func TestRunJobRejectsInvalidSpec(t *testing.T) {
	if _, err := RunJob(workload.Spec{}, chip.StampedeNode(), 600, 1); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestRunJobWarmCounters(t *testing.T) {
	spec := wrfSpec("9", 1, 1200)
	run, err := RunJob(spec, chip.StampedeNode(), 600, 9)
	if err != nil {
		t.Fatal(err)
	}
	first := run.Snapshots[0]
	cpu := first.RecordsOf(schema.ClassCPU)
	if cpu[0].Values[3] == 0 { // idle jiffies after a day of warm-up
		t.Error("counters start cold; warm-up missing")
	}
}

func TestEngineRunsJobsToCompletion(t *testing.T) {
	e, err := NewEngine(8, chip.StampedeNode(), 600, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	e.Submit(
		wrfSpec("1", 4, 1800),
		wrfSpec("2", 4, 1200),
	)
	if err := e.Run(4 * 3600); err != nil {
		t.Fatal(err)
	}
	if e.Started != 2 || e.Finished != 2 {
		t.Errorf("started/finished = %d/%d", e.Started, e.Finished)
	}
	if len(e.ActiveJobs()) != 0 {
		t.Errorf("jobs still active: %v", e.ActiveJobs())
	}
}

func TestEngineSinkCollection(t *testing.T) {
	e, err := NewEngine(2, chip.StampedeNode(), 600, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []model.Snapshot
	e.NewSink = func(n *hwsim.Node, c *collect.Collector) (Sink, error) {
		return SinkFunc(func(s model.Snapshot) error {
			got = append(got, s)
			return nil
		}), nil
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	e.Submit(wrfSpec("77", 2, 1500))
	if err := e.Run(3600); err != nil {
		t.Fatal(err)
	}
	begins, ends, intervals := 0, 0, 0
	for _, s := range got {
		switch s.Mark {
		case "begin 77":
			begins++
		case "end 77":
			ends++
		default:
			intervals++
		}
	}
	if begins != 2 || ends != 2 {
		t.Errorf("begin/end = %d/%d, want 2/2", begins, ends)
	}
	if intervals == 0 {
		t.Error("no interval collections")
	}
}

func TestEngineQueuesWhenFull(t *testing.T) {
	e, err := NewEngine(4, chip.StampedeNode(), 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// Two 4-node jobs on a 4-node cluster must serialize.
	e.Submit(wrfSpec("a", 4, 1200), wrfSpec("b", 4, 1200))
	if err := e.Step(); err != nil { // t=600: job a starts
		t.Fatal(err)
	}
	if len(e.ActiveJobs()) != 1 {
		t.Fatalf("active = %v, want just one", e.ActiveJobs())
	}
	if err := e.Run(2 * 3600); err != nil {
		t.Fatal(err)
	}
	if e.Finished != 2 {
		t.Errorf("finished = %d, want 2 (second job ran after first)", e.Finished)
	}
}

func TestEngineFailNode(t *testing.T) {
	e, err := NewEngine(2, chip.StampedeNode(), 600, 6)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	e.NewSink = func(n *hwsim.Node, c *collect.Collector) (Sink, error) {
		host := n.Host()
		return SinkFunc(func(s model.Snapshot) error {
			count[host]++
			return nil
		}), nil
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	hosts := e.Nodes()
	if err := e.Run(1800); err != nil {
		t.Fatal(err)
	}
	if !e.FailNode(hosts[0]) {
		t.Fatal("FailNode returned false for known host")
	}
	if e.FailNode("nope") {
		t.Error("FailNode accepted unknown host")
	}
	before := count[hosts[0]]
	if err := e.Run(3600); err != nil {
		t.Fatal(err)
	}
	if count[hosts[0]] != before {
		t.Error("failed node kept collecting")
	}
	if count[hosts[1]] <= before {
		t.Error("healthy node stopped collecting")
	}
}

func TestEngineDailySync(t *testing.T) {
	e, err := NewEngine(1, chip.StampedeNode(), 600, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var syncs []float64
	e.SyncHook = func(host string, now float64) error {
		syncs = append(syncs, now)
		return nil
	}
	if err := e.Run(2 * 86400); err != nil {
		t.Fatal(err)
	}
	if len(syncs) < 2 {
		t.Fatalf("syncs = %v, want at least 2 (daily)", syncs)
	}
	if d := syncs[1] - syncs[0]; d != 86400 {
		t.Errorf("sync period = %g, want 86400", d)
	}
}

func TestEngineOnJobEndHook(t *testing.T) {
	e, err := NewEngine(4, chip.StampedeNode(), 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	type ended struct {
		id    string
		start float64
		end   float64
		hosts int
	}
	var got []ended
	e.OnJobEnd = func(spec workload.Spec, start, end float64, hosts []string) error {
		got = append(got, ended{spec.JobID, start, end, len(hosts)})
		return nil
	}
	e.Submit(wrfSpec("acct-1", 2, 1500))
	if err := e.Run(3600); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("hook calls = %d", len(got))
	}
	if got[0].id != "acct-1" || got[0].hosts != 2 {
		t.Errorf("hook payload = %+v", got[0])
	}
	if got[0].end-got[0].start != 1500 {
		t.Errorf("span = %g", got[0].end-got[0].start)
	}
}

func TestEngineSharedFSInterferenceOrderIsDeterministic(t *testing.T) {
	// Two identical engines with a shared filesystem must produce
	// identical victim metrics (demand-draw order is sorted by job id).
	run := func() float64 {
		e, err := NewEngine(4, chip.StampedeNode(), 600, 7)
		if err != nil {
			t.Fatal(err)
		}
		e.FS = lustresim.New(lustresim.DefaultConfig())
		var mdcWait uint64
		e.NewSink = func(n *hwsim.Node, c *collect.Collector) (Sink, error) {
			return SinkFunc(func(s model.Snapshot) error {
				for _, r := range s.RecordsOf(schema.ClassMDC) {
					mdcWait = r.Values[1]
				}
				return nil
			}), nil
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		e.Submit(wrfSpec("a", 2, 1800), wrfSpec("b", 2, 1800))
		if err := e.Run(3600); err != nil {
			t.Fatal(err)
		}
		return float64(mdcWait)
	}
	if run() != run() {
		t.Error("shared-FS runs nondeterministic")
	}
}

func TestEngineSameSeedSameStream(t *testing.T) {
	// Eight jobs end in one step: their end marks and job-end hook calls
	// must come out in one order, so that one seed gives one stream.
	run := func() []string {
		e, err := NewEngine(8, chip.StampedeNode(), 600, 13)
		if err != nil {
			t.Fatal(err)
		}
		e.FS = lustresim.New(lustresim.DefaultConfig())
		var stream []string
		e.NewSink = func(n *hwsim.Node, c *collect.Collector) (Sink, error) {
			return SinkFunc(func(s model.Snapshot) error {
				stream = append(stream, fmt.Sprint(s))
				return nil
			}), nil
		}
		e.OnJobEnd = func(spec workload.Spec, start, end float64, hosts []string) error {
			stream = append(stream, fmt.Sprint("job end ", spec.JobID, hosts))
			return nil
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			e.Submit(wrfSpec(fmt.Sprint("j", i), 1, 1800))
		}
		if err := e.Run(3600); err != nil {
			t.Fatal(err)
		}
		return stream
	}
	a, b := run(), run()
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			t.Fatalf("streams of one seed differ at item %d:\n%.120s\n%.120s", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("streams of one seed hold %d and %d items", len(a), len(b))
	}
}
