package gostats

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/faultnet"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/node"
	"gostats/internal/simfleet"
	"gostats/internal/telemetry"
	"gostats/internal/trace"
)

// TestChaosBrokerOutageConservesSnapshots drives the full daemon-mode
// pipeline — collectors -> node publishers -> one standalone broker (a
// fabric of one) -> consumer group -> listener -> store — through a
// fault-injecting network that tears connections mid-frame, then hits
// the fleet with a hard broker outage spanning several collection
// rounds. The invariant under test is the transport's robustness
// guarantee: every snapshot a node collects is either archived
// centrally or still sits in that node's durable spool; outages and
// resets cost latency and duplicates, never data — and with the only
// broker never marked dead, recovery waits on nothing slower than the
// breaker.
func TestChaosBrokerOutageConservesSnapshots(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Provenance tracing rides the same run: stamps must survive the
	// spool round-trip and the freshness gauges must recover once the
	// outage ends and the spools drain.
	rec := trace.NewRecorder(reg)

	// All node traffic crosses one fault domain that also tears
	// connections mid-frame on a deterministic schedule.
	fnet := faultnet.New(faultnet.Faults{Seed: 11, ResetAfterBytes: 4 << 10})

	pol := broker.Policy{
		BackoffMin:       time.Millisecond,
		BackoffMax:       10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerWindow:    25 * time.Millisecond,
		BreakerMaxWindow: 100 * time.Millisecond,
	}

	// The standalone broker runs as a fabric of one. Every node agent
	// shares the view; each dials its own connection through the fault
	// domain.
	fab, err := simfleet.NewFabric(1, 0, 0, pol, reg, fnet.Dialer(func(a string) (net.Conn, error) {
		return net.DialTimeout("tcp", a, time.Second)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	led := simfleet.NewLedger(fab)

	cfg := chip.StampedeNode()
	const (
		nNodes      = 3
		ticks       = 12
		outageStart = 4 // outage covers rounds [outageStart, outageEnd)
		outageEnd   = 8
		interval    = 600.0
	)
	type nodeRT struct {
		daemon *collect.DaemonAgent
		node   *hwsim.Node
	}
	nodes := make([]*nodeRT, nNodes)
	spoolRoot := t.TempDir()
	for i := range nodes {
		host := fmt.Sprintf("c401-%03d", i+1)
		hw, err := hwsim.NewNode(host, cfg, int64(20+i))
		if err != nil {
			t.Fatal(err)
		}
		col := collect.New(hw)
		col.Metrics = reg
		col.Trace = rec
		pub, err := led.NewPublisher(node.AgentConfig{
			Header:   col.Header(),
			SpoolDir: filepath.Join(spoolRoot, host),
			Trace:    rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &nodeRT{daemon: collect.NewDaemonAgent(col, pub), node: hw}
	}

	// Central consumer group, booking everything it archives.
	ing, err := node.NewIngest(fab.View, node.IngestConfig{
		StoreDir:   t.TempDir(),
		Fleet:      cfg,
		Trace:      rec,
		OnSnapshot: led.Archive,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close() // idempotent; joins the consumers if an assertion fails first

	now := 0.0
	for tick := 0; tick < ticks; tick++ {
		if tick == outageStart {
			fnet.StartOutage()
		}
		if tick == outageEnd {
			fnet.StopOutage()
		}
		now += interval
		for _, rt := range nodes {
			rt.node.Advance(interval, hwsim.Demand{CPUUserFrac: 0.4, IPC: 1})
			// Tick must never fail: during the outage the snapshot goes
			// to the spool, not to the floor.
			if err := rt.daemon.Tick(now, []string{"42"}, ""); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
		}
	}

	// Broker is back: every spool must drain and the listener archive
	// every distinct snapshot, in order per host.
	if err := led.WaitCaughtUp(ing, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	st := led.PublisherStats()
	if c, err := led.Report(); err != nil || c.Emitted != nNodes*ticks {
		t.Errorf("%s: %v", c, err)
	}
	if st.Dropped != 0 {
		t.Errorf("transport dropped %d snapshots: %+v", st.Dropped, st)
	}
	if st.Spooled == 0 || st.Replayed != st.Spooled {
		t.Errorf("spool fallback unused or incomplete: %+v", st)
	}
	if fnet.Stats().Resets == 0 {
		t.Error("fault schedule injected no resets; the chaos proved nothing")
	}

	// The node-side robustness telemetry is visible exactly where a
	// fleet operator would look for it.
	vals := telemetry.ParseExposition(reg.Exposition())
	if got := vals[`gostats_publish_spooled_total{queue="fabric"}`]; got != float64(st.Spooled) {
		t.Errorf("spooled metric = %g, want %d", got, st.Spooled)
	}
	if got := vals[`gostats_publish_replayed_total{queue="fabric"}`]; got != float64(st.Replayed) {
		t.Errorf("replayed metric = %g, want %d", got, st.Replayed)
	}
	for _, rt := range nodes {
		series := fmt.Sprintf("gostats_spool_depth{host=%q}", rt.node.Host())
		if got, ok := vals[series]; !ok || got != 0 {
			t.Errorf("%s = %g, want 0 after drain", series, got)
		}
		backlog := fmt.Sprintf("gostats_spool_replay_backlog{host=%q}", rt.node.Host())
		if got, ok := vals[backlog]; !ok || got != 0 {
			t.Errorf("%s = %g, want 0 after drain", backlog, got)
		}
	}

	// Provenance survived the outage: snapshots that detoured through
	// the spool carry a replay stamp, and every host's freshness gauge
	// recovered to "seconds behind" once its backlog replayed. The
	// outage stranded several rounds, so an unrecovered host would sit
	// many simulated rounds (and wall seconds) stale here.
	rec.RefreshFreshness()
	sum := rec.Snapshot()
	var replayHops uint64
	for _, st := range sum.Stages {
		if st.Stage == model.StageSpoolReplay.String() {
			replayHops = st.Count
		}
	}
	if replayHops == 0 {
		t.Error("no spool_replay stage latency recorded; trace stamps did not survive the spool")
	}
	fresh := map[string]float64{}
	for _, h := range sum.Hosts {
		fresh[h.Host] = h.FreshnessSeconds
	}
	for _, rt := range nodes {
		f, ok := fresh[rt.node.Host()]
		if !ok {
			t.Errorf("host %s has no freshness gauge after drain", rt.node.Host())
			continue
		}
		if f < 0 || f > 60 {
			t.Errorf("host %s freshness %.1f s after drain; gauge did not recover", rt.node.Host(), f)
		}
	}

	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
}
