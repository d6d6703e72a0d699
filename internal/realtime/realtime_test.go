package realtime

import (
	"sync"
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/codec"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
	"gostats/internal/tsdb"
)

func snapWithMDC(t float64, host string, reqs uint64, jobs ...string) model.Snapshot {
	return model.Snapshot{
		Time: t, Host: host, JobIDs: jobs,
		Records: []model.Record{
			{Class: schema.ClassMDC, Instance: "m0", Values: []uint64{reqs, 0}},
		},
	}
}

func TestMonitorRaisesOnThreshold(t *testing.T) {
	reg := schema.DefaultRegistry()
	m := NewMonitor(reg, DefaultRules())
	var notified []Alert
	m.Notify = func(a Alert) { notified = append(notified, a) }

	// Baseline.
	if got := m.Process(snapWithMDC(0, "n1", 0, "77")); got != nil {
		t.Errorf("first snapshot alerted: %v", got)
	}
	// 1000 reqs/s: below the 10k threshold.
	if got := m.Process(snapWithMDC(600, "n1", 600000, "77")); got != nil {
		t.Errorf("benign rate alerted: %v", got)
	}
	// 50k reqs/s: storm.
	got := m.Process(snapWithMDC(1200, "n1", 600000+30000000, "77"))
	if len(got) != 1 {
		t.Fatalf("alerts = %v", got)
	}
	a := got[0]
	if a.Rule != "high_metadata_rate" || a.Host != "n1" {
		t.Errorf("alert = %+v", a)
	}
	if a.Value < 49000 || a.Value > 51000 {
		t.Errorf("alert rate = %g", a.Value)
	}
	if len(a.JobIDs) != 1 || a.JobIDs[0] != "77" {
		t.Errorf("alert jobs = %v", a.JobIDs)
	}
	if len(notified) != 1 {
		t.Errorf("notify calls = %d", len(notified))
	}
	if a.String() == "" {
		t.Error("empty alert string")
	}
}

func TestMonitorPerHostBaselines(t *testing.T) {
	reg := schema.DefaultRegistry()
	m := NewMonitor(reg, DefaultRules())
	m.Process(snapWithMDC(0, "n1", 0))
	m.Process(snapWithMDC(0, "n2", 0))
	// Storm on n2 only.
	m.Process(snapWithMDC(600, "n1", 1000))
	got := m.Process(snapWithMDC(600, "n2", 30000000))
	if len(got) != 1 || got[0].Host != "n2" {
		t.Errorf("alerts = %v", got)
	}
}

func TestMonitorIgnoresNonMonotonicTime(t *testing.T) {
	reg := schema.DefaultRegistry()
	m := NewMonitor(reg, DefaultRules())
	m.Process(snapWithMDC(600, "n1", 0))
	if got := m.Process(snapWithMDC(600, "n1", 1e9)); got != nil {
		t.Errorf("same-time snapshot alerted: %v", got)
	}
	if got := m.Process(snapWithMDC(0, "n1", 2e9)); got != nil {
		t.Errorf("backwards snapshot alerted: %v", got)
	}
}

func TestListenerEndToEnd(t *testing.T) {
	// Full daemon-mode pipeline over a real socket: node daemon ->
	// broker -> listener -> monitor + store + tsdb.
	srv := broker.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := chip.StampedeNode()
	node, err := hwsim.NewNode("c401-101", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	col := collect.New(node)
	pub, err := broker.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	daemon := collect.NewDaemonAgent(col, collect.PublisherFunc(func(s model.Snapshot) error {
		body, err := broker.EncodeSnapshotWire(s, schema.DefaultRegistry(), codec.V1Text)
		if err != nil {
			return err
		}
		return pub.Publish(broker.StatsQueue, body)
	}))

	cons, err := broker.DialConsumer(addr, broker.StatsQueue)
	if err != nil {
		t.Fatal(err)
	}
	store, err := rawfile.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := cfg.Registry()
	tdb := tsdb.New()
	mon := NewMonitor(reg, DefaultRules())
	var alerts []Alert
	mon.Notify = func(a Alert) { alerts = append(alerts, a) }

	const want = 4
	var wg sync.WaitGroup
	var seen int
	done := make(chan struct{})
	l := &Listener{
		Cons:    cons,
		Monitor: mon,
		Store:   store,
		Headers: func(host string) rawfile.Header { return col.Header() },
		Ingest:  tsdb.NewIngester(tdb, reg),
		OnSnapshot: func(model.Snapshot) {
			seen++
			if seen == want {
				close(done)
			}
		},
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := l.Run(); err != nil {
			t.Error(err)
		}
	}()

	// Drive the node: idle, then a metadata storm.
	now := 0.0
	for i := 0; i < want; i++ {
		d := hwsim.Demand{CPUUserFrac: 0.5, IPC: 1}
		if i >= 2 {
			d.MDCReqRate = 50000
		}
		node.Advance(600, d)
		now += 600
		if err := daemon.Tick(now, []string{"9"}, ""); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("listener did not process all snapshots")
	}
	srv.Close()
	wg.Wait()

	if l.Processed() != want {
		t.Errorf("processed = %d", l.Processed())
	}
	// The storm must have raised an alert naming job 9.
	if len(alerts) == 0 {
		t.Fatal("no alerts from storm")
	}
	if alerts[0].JobIDs[0] != "9" {
		t.Errorf("alert jobs = %v", alerts[0].JobIDs)
	}
	// The stream was archived centrally in real time.
	snaps, err := store.ReadHost("c401-101")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != want {
		t.Errorf("archived snapshots = %d", len(snaps))
	}
	// And the TSDB has the metadata rate series.
	res, err := tdb.Do(tsdb.Query{Host: "c401-101", DevType: "mdc", Event: "reqs", Aggregate: tsdb.Sum})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != want-1 {
		t.Errorf("tsdb series = %+v", res)
	}
}

// TestListenerTelemetry checks the listener's series land in an injected
// registry.
func TestListenerTelemetry(t *testing.T) {
	srv := broker.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pub, _ := broker.Dial(addr)
	defer pub.Close()
	pub.Publish(broker.StatsQueue, []byte("garbage"))
	for i := 0; i < 3; i++ {
		b, _ := codec.EncodeWire(model.Snapshot{Time: float64(i), Host: "n1"}, nil, codec.V1Text)
		pub.Publish(broker.StatsQueue, b)
	}

	cons, err := broker.DialConsumer(addr, broker.StatsQueue)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var got int
	done := make(chan struct{})
	l := &Listener{Cons: cons, Metrics: reg, OnSnapshot: func(model.Snapshot) {
		if got++; got == 3 {
			close(done)
		}
	}}
	runErr := make(chan error, 1)
	go func() { runErr <- l.Run() }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("snapshots never arrived")
	}
	srv.Close() // Run ends at io.EOF, as the benchmark stops it
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	vals := telemetry.ParseExposition(reg.Exposition())
	if vals["gostats_listen_snapshots_total"] != 3 {
		t.Errorf("snapshots = %g", vals["gostats_listen_snapshots_total"])
	}
	if vals["gostats_listen_decode_failures_total"] != 1 {
		t.Errorf("decode failures = %g", vals["gostats_listen_decode_failures_total"])
	}
	if _, ok := vals["gostats_listen_drain_lag_seconds"]; !ok {
		t.Error("drain lag gauge missing")
	}
	// The steps' stage series: decode counts the corrupt frame it
	// dropped, the later steps only the three snapshots.
	for stage, want := range map[string]float64{"decode": 4, "archive": 3, "ingest": 3, "assemble": 3} {
		series := `{pipeline="listend",stage="` + stage + `"}`
		if got := vals["gostats_pipeline_stage_processed_total"+series]; got != want {
			t.Errorf("%s processed = %g, want %g", stage, got, want)
		}
		for _, g := range []string{"depth", "inflight"} {
			if got, ok := vals["gostats_pipeline_stage_"+g+series]; !ok || got != 0 {
				t.Errorf("%s %s = %g (present %v), want 0 at rest", stage, g, got, ok)
			}
		}
		if _, ok := vals["gostats_pipeline_stage_drain_seconds"+series]; ok {
			t.Errorf("%s exports drain_seconds; nothing queues between steps", stage)
		}
	}
}

func TestListenerSkipsCorruptMessages(t *testing.T) {
	srv := broker.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pub, _ := broker.Dial(addr)
	defer pub.Close()
	pub.Publish(broker.StatsQueue, []byte("garbage"))
	good, _ := codec.EncodeWire(model.Snapshot{Time: 1, Host: "n"}, nil, codec.V1Text)
	pub.Publish(broker.StatsQueue, good)

	cons, err := broker.DialConsumer(addr, broker.StatsQueue)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	done := make(chan struct{})
	l := &Listener{Cons: cons, OnSnapshot: func(model.Snapshot) {
		got++
		close(done)
	}}
	go l.Run()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("good message never arrived")
	}
	if got != 1 || l.Processed() != 1 {
		t.Errorf("processed = %d", l.Processed())
	}
}
