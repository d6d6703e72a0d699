package gostats

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/node"
	"gostats/internal/simfleet"
	"gostats/internal/telemetry"
)

// TestChaosBrokerKillRebalancesAndConserves drives the full partitioned
// fabric — collectors -> replicated publisher -> three brokers ->
// partition-group consumer -> store — and kills the busiest broker
// outright in the middle of the run. The invariants under test are the
// fabric's robustness guarantees: the partition map rebalances live
// (version bump, dead broker out of every owner set), every emitted
// snapshot is archived or still spooled, and the (host, sequence) dedup
// keeps replicated delivery invisible — zero duplicates reach the
// archive.
func TestChaosBrokerKillRebalancesAndConserves(t *testing.T) {
	reg := telemetry.NewRegistry()
	pol := broker.Policy{
		DialTimeout:      time.Second,
		BackoffMin:       time.Millisecond,
		BackoffMax:       10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerWindow:    25 * time.Millisecond,
		BreakerMaxWindow: 100 * time.Millisecond,
	}

	fab, err := simfleet.NewFabric(3, 8, 2, pol, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	led := simfleet.NewLedger(fab)
	victim := fab.Busiest()

	cfg := chip.StampedeNode()

	const (
		nNodes   = 3
		ticks    = 12
		killTick = 4
		interval = 600.0
	)
	nodes := make([]*hwsim.Node, nNodes)
	daemons := make([]*collect.DaemonAgent, nNodes)
	spoolRoot := t.TempDir()
	for i := range nodes {
		hw, err := hwsim.NewNode(fmt.Sprintf("c401-%03d", i+1), cfg, int64(30+i))
		if err != nil {
			t.Fatal(err)
		}
		col := collect.New(hw)
		col.Metrics = reg
		// Each node runs its own agent — publisher, connection pool and
		// spool — sharing the view.
		pub, err := led.NewPublisher(node.AgentConfig{
			Header:   col.Header(),
			SpoolDir: filepath.Join(spoolRoot, hw.Host()),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], daemons[i] = hw, collect.NewDaemonAgent(col, pub)
	}

	// Partition-group consumer feeding the central archiver, booking
	// every archive with the ledger.
	ing, err := node.NewIngest(fab.View, node.IngestConfig{
		StoreDir:   t.TempDir(),
		Fleet:      cfg,
		OnSnapshot: led.Archive,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	now := 0.0
	for tick := 0; tick < ticks; tick++ {
		if tick == killTick {
			if err := fab.Kill(victim); err != nil {
				t.Fatal(err)
			}
		}
		now += interval
		for i, hw := range nodes {
			hw.Advance(interval, hwsim.Demand{CPUUserFrac: 0.4, IPC: 1})
			// Tick must never fail: with a dead owner the snapshot fails
			// over to the rebalanced owner set or goes to the spool, not
			// to the floor.
			if err := daemons[i].Tick(now, []string{"42"}, ""); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
		}
	}

	// Whatever the kill stranded must replay to the survivors, and the
	// group must archive every distinct snapshot, none twice.
	if err := led.WaitCaughtUp(ing, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	c, err := led.Report()
	if err != nil || c.Emitted != nNodes*ticks {
		t.Errorf("%s: %v", c, err)
	}

	// The kill must have rebalanced the map: version bumped and the dead
	// broker out of every partition's owner set.
	cur := fab.View.Snapshot()
	if cur.Version < 2 {
		t.Errorf("map version = %d after broker kill, want a rebalance bump", cur.Version)
	}
	if !cur.IsDead(fab.Addrs[victim]) {
		t.Errorf("killed broker %s not marked dead in the map", fab.Addrs[victim])
	}
	for p := 0; p < cur.Partitions; p++ {
		for _, o := range cur.Owners(p) {
			if o == fab.Addrs[victim] {
				t.Errorf("partition %d still owned by killed broker %s", p, o)
			}
		}
	}

	pst := led.PublisherStats()
	if pst.Dropped != 0 {
		t.Errorf("publisher dropped %d snapshots: %+v", pst.Dropped, pst)
	}
	gst := ing.Stats()
	if gst.Deduped == 0 {
		t.Errorf("replication factor 2 delivered no duplicate frames to dedup: %+v", gst)
	}
	if gst.Handled != uint64(c.Archived) {
		t.Errorf("group handled %d frames but %d snapshots archived", gst.Handled, c.Archived)
	}
}
