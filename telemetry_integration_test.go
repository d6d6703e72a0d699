package gostats

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/fabric"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/portal"
	"gostats/internal/rawfile"
	"gostats/internal/realtime"
	"gostats/internal/reldb"
	"gostats/internal/telemetry"
)

// TestSelfTelemetryEndToEnd drives the daemon-mode pipeline — collector
// -> node publisher -> standalone broker (a fabric of one) -> consumer
// group -> listener -> store, plus the portal — with every component
// wired to ONE registry, then scrapes the real
// ops HTTP endpoint and checks the monitor's self-description: the
// collection-cost histogram holding the paper's 0.09 s budget, the
// broker queue counters, the listener drain lag, and the portal request
// latencies.
func TestSelfTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()

	// Broker.
	srv := broker.NewServer()
	srv.Metrics = reg
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Node daemon: collector + redialing publisher, routed by the
	// fabric-of-one map the daemons bootstrap from a standalone broker.
	m, err := fabric.Bootstrap([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	view := fabric.NewView(m, broker.Policy{}, reg)
	pool := fabric.NewClientPool(broker.Policy{})
	defer pool.Close()
	cfg := chip.StampedeNode()
	node, err := hwsim.NewNode("c401-101", cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	queue := fabric.PartitionQueue(m.PartitionOf(node.Host()))
	col := collect.New(node)
	col.Metrics = reg
	pub := fabric.NewPublisher(view, pool)
	pub.Metrics = reg
	defer pub.Close()
	daemon := collect.NewDaemonAgent(col, pub)

	// Central consumer group archiving to the store.
	store, err := rawfile.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const want = 6
	done := make(chan struct{})
	var seen int
	l := &realtime.Listener{
		Monitor: realtime.NewMonitor(cfg.Registry(), realtime.DefaultRules()),
		Store:   store,
		Headers: func(host string) rawfile.Header { return col.Header() },
		Metrics: reg,
		OnSnapshot: func(model.Snapshot) {
			if seen++; seen == want {
				close(done)
			}
		},
	}
	g := fabric.NewGroup(view)
	g.Handle = l.HandleBody
	g.Metrics = reg
	g.Start()
	defer g.Stop() // idempotent; joins the consumers if an assertion fails first

	now := 0.0
	for i := 0; i < want; i++ {
		node.Advance(600, hwsim.Demand{CPUUserFrac: 0.5, IPC: 1})
		now += 600
		if err := daemon.Tick(now, []string{"42"}, ""); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("listener did not drain the stream")
	}

	// Portal over an empty job table; two requests to generate route
	// telemetry.
	p := portal.NewServer(reldb.New(), cfg.Registry(), nil)
	p.Metrics = reg
	ps := httptest.NewServer(p)
	defer ps.Close()
	httpGet(t, ps.URL+"/")
	httpGet(t, ps.URL+"/jobs")

	// Scrape over real HTTP, exactly as a fleet Prometheus would.
	ops, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	ops.SetHealth("pipeline", nil)
	text := httpGet(t, ops.URL()+"/metrics")

	// Every pipeline layer must be represented.
	for _, series := range []string{
		`gostats_collect_seconds_bucket{le="0.09"}`,
		"gostats_collect_seconds_sum",
		`gostats_collect_records_total{class="cpu"}`,
		fmt.Sprintf("gostats_broker_queue_depth{queue=%q}", queue),
		fmt.Sprintf("gostats_broker_published_total{queue=%q}", queue),
		fmt.Sprintf("gostats_broker_redelivered_total{queue=%q}", queue),
		"gostats_broker_connections",
		`gostats_publish_seconds_count{queue="fabric"}`,
		"gostats_listen_snapshots_total",
		"gostats_listen_drain_lag_seconds",
		"gostats_listen_store_write_seconds_count",
		`gostats_portal_request_seconds_count{route="/jobs"}`,
		`gostats_portal_requests_total{route="/jobs",status="200"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	vals := telemetry.ParseExposition(text)
	if got := vals["gostats_collect_seconds_count"]; got != want {
		t.Errorf("collections = %g, want %d", got, want)
	}
	// The continuously-verified overhead claim: mean sweep cost within
	// the paper's 0.09 s of one core.
	mean := vals["gostats_collect_seconds_sum"] / vals["gostats_collect_seconds_count"]
	if mean <= 0 || mean > 0.09 {
		t.Errorf("mean collection cost = %g s, want (0, 0.09]", mean)
	}
	if got := vals[fmt.Sprintf("gostats_broker_published_total{queue=%q}", queue)]; got != want {
		t.Errorf("published = %g, want %d", got, want)
	}
	if got := vals[`gostats_portal_requests_total{route="/jobs",status="200"}`]; got != 1 {
		t.Errorf("portal /jobs requests = %g, want 1", got)
	}

	// Healthz answers for the whole pipeline.
	if body := httpGet(t, ops.URL()+"/healthz"); !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthz = %s", body)
	}

	// Graceful drain to finish: nothing lost, nothing redelivered.
	g.Stop()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if qs := srv.QueueCounts(queue); qs.Redelivered != 0 {
		t.Errorf("redelivered = %d, want 0", qs.Redelivered)
	}
}
