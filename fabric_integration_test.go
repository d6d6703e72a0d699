package gostats

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/fabric"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/node"
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

	const nBrokers = 3
	srvs := make([]*broker.Server, nBrokers)
	addrs := make([]string, nBrokers)
	for i := range srvs {
		srvs[i] = broker.NewServer()
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		defer srvs[i].Close()
	}
	m := fabric.NewMap(addrs, 8, 2)
	view := fabric.NewView(m, pol, reg)
	for _, s := range srvs {
		s.MapProvider = view.Provider()
	}

	// The victim owns the most partitions as primary — the worst single
	// loss the map allows.
	victim := 0
	counts := m.PrimaryCount()
	for i, a := range addrs {
		if counts[a] > counts[addrs[victim]] {
			victim = i
		}
	}

	cfg := chip.StampedeNode()

	const (
		nNodes   = 3
		ticks    = 12
		killTick = 4
		interval = 600.0
	)
	type nodeRT struct {
		daemon *collect.DaemonAgent
		node   *hwsim.Node
		agent  *node.Agent
	}
	nodes := make([]*nodeRT, nNodes)
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
		agent, err := node.NewAgent(view, node.AgentConfig{
			Header:   col.Header(),
			SpoolDir: filepath.Join(spoolRoot, hw.Host()),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		nodes[i] = &nodeRT{daemon: collect.NewDaemonAgent(col, agent), node: hw, agent: agent}
	}
	// pubStats sums the node publishers' ledgers.
	pubStats := func() fabric.PublisherStats {
		var st fabric.PublisherStats
		for _, rt := range nodes {
			ps := rt.agent.Stats()
			st.Published += ps.Published
			st.Spooled += ps.Spooled
			st.Replayed += ps.Replayed
			st.Dropped += ps.Dropped
		}
		return st
	}

	// Partition-group consumer feeding the central archiver, recording
	// every first occurrence and flagging anything dedup let through.
	var mu sync.Mutex
	collected := map[string]bool{}
	duplicates := 0
	ing, err := node.NewIngest(view, node.IngestConfig{
		StoreDir: t.TempDir(),
		Fleet:    cfg,
		OnSnapshot: func(s model.Snapshot) {
			mu.Lock()
			defer mu.Unlock()
			k := fmt.Sprintf("%s@%.3f", s.Host, s.Time)
			if collected[k] {
				duplicates++
				return
			}
			collected[k] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	emitted := map[string]bool{}
	now := 0.0
	for tick := 0; tick < ticks; tick++ {
		if tick == killTick {
			if err := srvs[victim].Close(); err != nil {
				t.Fatal(err)
			}
		}
		now += interval
		for _, rt := range nodes {
			rt.node.Advance(interval, hwsim.Demand{CPUUserFrac: 0.4, IPC: 1})
			// Tick must never fail: with a dead owner the snapshot fails
			// over to the rebalanced owner set or goes to the spool, not
			// to the floor.
			if err := rt.daemon.Tick(now, []string{"42"}, ""); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
			emitted[fmt.Sprintf("%s@%.3f", rt.node.Host(), now)] = true
		}
	}

	// Whatever the kill stranded must replay to the survivors, and the
	// group must archive every distinct snapshot. The group counts a
	// frame as handled only after its handler returns, so wait for that
	// count to catch up with the archive too.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := pubStats()
		mu.Lock()
		got := len(collected)
		mu.Unlock()
		if st.Spooled == st.Replayed+st.Dropped && got >= len(emitted) && ing.Stats().Handled >= uint64(got) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("archived %d of %d snapshots before timeout (publisher %+v)", got, len(emitted), st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for k := range emitted {
		if !collected[k] {
			t.Errorf("snapshot %s lost", k)
		}
	}
	if duplicates != 0 {
		t.Errorf("%d duplicate snapshots got past (host, seq) dedup", duplicates)
	}

	// The kill must have rebalanced the map: version bumped and the dead
	// broker out of every partition's owner set.
	cur := view.Snapshot()
	if cur.Version < 2 {
		t.Errorf("map version = %d after broker kill, want a rebalance bump", cur.Version)
	}
	if !cur.IsDead(addrs[victim]) {
		t.Errorf("killed broker %s not marked dead in the map", addrs[victim])
	}
	for p := 0; p < cur.Partitions; p++ {
		for _, o := range cur.Owners(p) {
			if o == addrs[victim] {
				t.Errorf("partition %d still owned by killed broker %s", p, o)
			}
		}
	}

	pst := pubStats()
	if pst.Dropped != 0 {
		t.Errorf("publisher dropped %d snapshots: %+v", pst.Dropped, pst)
	}
	gst := ing.Stats()
	if gst.Deduped == 0 {
		t.Errorf("replication factor 2 delivered no duplicate frames to dedup: %+v", gst)
	}
	if gst.Handled != uint64(len(collected)) {
		t.Errorf("group handled %d frames but %d snapshots archived", gst.Handled, len(collected))
	}
}
