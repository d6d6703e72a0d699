package node

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/codec"
	"gostats/internal/collect"
	"gostats/internal/fabric"
	"gostats/internal/hwsim"
	"gostats/internal/leakcheck"
	"gostats/internal/model"
	"gostats/internal/telemetry"
)

// fabricOfOne starts one broker and returns a View over it, bootstrapped
// the way the daemons bootstrap a lone brokerd.
func fabricOfOne(t *testing.T) *fabric.View {
	t.Helper()
	srv := broker.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	m, err := fabric.Bootstrap([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	view := fabric.NewView(m, broker.DefaultPolicy(), telemetry.NewRegistry())
	t.Cleanup(view.Close)
	return view
}

// host is one simulated node publishing through its own agent.
type host struct {
	hw     *hwsim.Node
	daemon *collect.DaemonAgent
}

func newHost(t *testing.T, view *fabric.View, name string, cfg chip.NodeConfig) *host {
	t.Helper()
	hw, err := hwsim.NewNode(name, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	col := collect.New(hw)
	col.Metrics = view.Metrics()
	agent, err := NewAgent(view, AgentConfig{Header: col.Header()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agent.Close() })
	return &host{hw: hw, daemon: collect.NewDaemonAgent(col, agent)}
}

// tick advances every host one interval and publishes a collection,
// returning the snapshot keys emitted.
func tick(t *testing.T, hosts []*host, now float64) []string {
	t.Helper()
	var keys []string
	for _, h := range hosts {
		h.hw.Advance(600, hwsim.Demand{CPUUserFrac: 0.5, IPC: 1})
		if err := h.daemon.Tick(now, []string{"7"}, ""); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key(h.hw.Host(), now))
	}
	return keys
}

func key(host string, t float64) string { return fmt.Sprintf("%s@%.0f", host, t) }

// waitHandled blocks until the ingest nodes together handled want frames.
func waitHandled(t *testing.T, want int, nodes ...*Ingest) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		got := 0
		for _, n := range nodes {
			got += int(n.Stats().Handled)
		}
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest handled %d of %d snapshots before timeout", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseReportsSegmentStoreError: a segment store that cannot seal
// on shutdown must fail Close — listend exits non-zero on it instead of
// logging a clean stop over a lost tail.
func TestCloseReportsSegmentStoreError(t *testing.T) {
	view := fabricOfOne(t)
	cfg := chip.StampedeNode()
	dataDir := filepath.Join(t.TempDir(), "tsdb")
	ing, err := NewIngest(view, IngestConfig{
		StoreDir:  t.TempDir(),
		Fleet:     cfg,
		DataDir:   dataDir,
		HotWindow: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := []*host{newHost(t, view, "c401-101", cfg)}
	for i := 1; i <= 3; i++ {
		tick(t, hosts, float64(i)*600)
	}
	waitHandled(t, 3, ing)
	if ing.Segments.Stats().ActivePoints == 0 {
		t.Fatal("no points in active segments; nothing for the seal to fail on")
	}
	// The active segments lose their directory: the seal's rename (or
	// its directory fsync) cannot land.
	if err := os.RemoveAll(dataDir); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err == nil {
		t.Fatal("Close returned nil although the segment store could not seal")
	}
}

// TestArchiveHeaderMatchesCollector: a host archived by the ingest node
// carries the header its own collector writes in cron mode — the
// fleet's chip architecture, not the fleet's name.
func TestArchiveHeaderMatchesCollector(t *testing.T) {
	view := fabricOfOne(t)
	cfg, err := chip.Fleet("lonestar")
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewIngest(view, IngestConfig{StoreDir: t.TempDir(), Fleet: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	h := newHost(t, view, "nid00042", cfg)
	tick(t, []*host{h}, 600)
	tick(t, []*host{h}, 1200)
	waitHandled(t, 2, ing)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	want := collect.New(h.hw).Header()
	files, err := filepath.Glob(filepath.Join(ing.Store.Root(), h.hw.Host(), "*.raw"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no archive files for %s (%v)", h.hw.Host(), err)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := codec.DecodeAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if raw.Header.Hostname != want.Hostname || raw.Header.Arch != want.Arch {
			t.Errorf("%s: header hostname=%q arch=%q, collector writes hostname=%q arch=%q",
				path, raw.Header.Hostname, raw.Header.Arch, want.Hostname, want.Arch)
		}
	}
}

// TestTwoIngestMembersSplitTheFleet runs the node twice in one process:
// two group members (0/2 and 1/2) on one fabric of one, fed by four
// agents. Every emitted snapshot is archived exactly once, in one
// member's store, under the host that emitted it, and no host is split
// across members.
func TestTwoIngestMembersSplitTheFleet(t *testing.T) {
	view := fabricOfOne(t)
	cfg := chip.StampedeNode()
	m := view.Snapshot()

	// Two hosts land on each member's partitions, so both members work.
	var names []string
	perMember := [2]int{}
	for i := 101; len(names) < 4; i++ {
		name := fmt.Sprintf("c401-%03d", i)
		if mem := m.PartitionOf(name) % 2; perMember[mem] < 2 {
			perMember[mem]++
			names = append(names, name)
		}
	}

	var mu sync.Mutex
	tapped := [2]map[string]int{{}, {}}
	members := make([]*Ingest, 2)
	for i := range members {
		ing, err := NewIngest(view, IngestConfig{
			StoreDir:   t.TempDir(),
			Fleet:      cfg,
			GroupIndex: i,
			GroupCount: 2,
			OnSnapshot: func(s model.Snapshot) {
				mu.Lock()
				tapped[i][key(s.Host, s.Time)]++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ing.Close()
		members[i] = ing
	}
	var hosts []*host
	for _, name := range names {
		hosts = append(hosts, newHost(t, view, name, cfg))
	}
	var emitted []string
	for i := 1; i <= 6; i++ {
		emitted = append(emitted, tick(t, hosts, float64(i)*600)...)
	}
	waitHandled(t, len(emitted), members...)
	for _, ing := range members {
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}

	archived := map[string]int{} // snapshot key -> copies across stores
	ownerOf := map[string]int{}  // host -> member whose store holds it
	for i, ing := range members {
		stored, err := ing.Store.Hosts()
		if err != nil {
			t.Fatal(err)
		}
		if len(stored) == 0 {
			t.Errorf("member %d/2 archived no host", i)
		}
		for _, h := range stored {
			if prev, ok := ownerOf[h]; ok {
				t.Errorf("host %s split across members %d and %d", h, prev, i)
			}
			ownerOf[h] = i
			snaps, err := ing.Store.ReadHost(h)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range snaps {
				if s.Host != h {
					t.Errorf("snapshot of %s filed under %s", s.Host, h)
				}
				archived[key(s.Host, s.Time)]++
			}
		}
	}
	for _, k := range emitted {
		if archived[k] != 1 {
			t.Errorf("snapshot %s archived %d times, want exactly once", k, archived[k])
		}
		if n := tapped[0][k] + tapped[1][k]; n != 1 {
			t.Errorf("snapshot %s tapped %d times across members, want once", k, n)
		}
	}
	if len(archived) != len(emitted) {
		t.Errorf("archived %d distinct snapshots, emitted %d", len(archived), len(emitted))
	}
}

// TestStopAcksHandledAndLeavesTheRestQueued is listend's stop path
// (SIGTERM → Close → Stop) with a backlog: Stop lands while a snapshot
// is mid-handle and more are prefetched behind it. Every snapshot the
// member handled is archived and acked, the unhandled rest stays on the
// broker, and a second member started afterwards archives exactly that
// rest — nothing lost, nothing archived twice.
func TestStopAcksHandledAndLeavesTheRestQueued(t *testing.T) {
	srv := broker.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err := fabric.Bootstrap([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	view := fabric.NewView(m, broker.DefaultPolicy(), telemetry.NewRegistry())
	defer view.Close()
	cfg := chip.StampedeNode()
	h := newHost(t, view, "c401-101", cfg)
	queue := fabric.PartitionQueue(m.PartitionOf("c401-101"))

	const n, stopAt = 12, 4
	var emitted []string
	for i := 1; i <= n; i++ {
		emitted = append(emitted, tick(t, []*host{h}, float64(i)*600)...)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.QueueDepth(queue) < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := srv.QueueDepth(queue); d != n {
		t.Fatalf("queued %d of %d snapshots before ingest started", d, n)
	}

	// The stopAt-th snapshot blocks in the tap until Stop is under way.
	reached, release := make(chan struct{}), make(chan struct{})
	var tapped int
	first, err := NewIngest(view, IngestConfig{StoreDir: t.TempDir(), Fleet: cfg,
		OnSnapshot: func(model.Snapshot) {
			if tapped++; tapped == stopAt {
				close(reached)
				<-release
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	stopped := make(chan error, 1)
	go func() { stopped <- first.Stop() }()
	// The assertions below hold in either order; the pause makes Stop
	// retire the consumer while the snapshot is still in hand, the case
	// a stop path must get right.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}

	handled := int(first.Stats().Handled)
	if handled < stopAt || handled >= n {
		t.Fatalf("first member handled %d snapshots, want %d..%d", handled, stopAt, n-1)
	}
	// The broker decodes the last ack and requeues the prefetched rest
	// asynchronously once the consumer's connection closes; poll for both.
	deadline = time.Now().Add(5 * time.Second)
	for (int(srv.QueueCounts(queue).Acked) != handled || srv.QueueDepth(queue) != n-handled) &&
		time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if acked := int(srv.QueueCounts(queue).Acked); acked != handled {
		t.Errorf("acked %d, handled %d", acked, handled)
	}
	if d := srv.QueueDepth(queue); d != n-handled {
		t.Errorf("left %d queued, want %d", d, n-handled)
	}

	next, err := NewIngest(view, IngestConfig{StoreDir: t.TempDir(), Fleet: cfg})
	if err != nil {
		t.Fatal(err)
	}
	waitHandled(t, n-handled, next)
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	archived := map[string]int{}
	for i, ing := range []*Ingest{first, next} {
		snaps, err := ing.Store.ReadHost("c401-101")
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{handled, n - handled}[i]; len(snaps) != want {
			t.Errorf("member %d archived %d snapshots, want %d", i, len(snaps), want)
		}
		for _, s := range snaps {
			archived[key(s.Host, s.Time)]++
		}
	}
	for _, k := range emitted {
		if archived[k] != 1 {
			t.Errorf("snapshot %s archived %d times, want exactly once", k, archived[k])
		}
	}
}

// TestNodeLifecycleJoinsWorkers: an ingest node with a segment store and
// an agent with a spool join every goroutine they start — consumers,
// listener stages, background compaction, the fatal-error watcher, the
// spool drainer — once closed. Teardown is explicit; t.Cleanup would run
// after the leak check fires.
func TestNodeLifecycleJoinsWorkers(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := broker.NewServer()
	srv.Metrics = telemetry.NewRegistry()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m, err := fabric.Bootstrap([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	view := fabric.NewView(m, broker.DefaultPolicy(), telemetry.NewRegistry())
	cfg := chip.StampedeNode()
	ing, err := NewIngest(view, IngestConfig{
		StoreDir:  t.TempDir(),
		Fleet:     cfg,
		DataDir:   t.TempDir(),
		HotWindow: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	hw, err := hwsim.NewNode("c401-101", cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	col := collect.New(hw)
	col.Metrics = view.Metrics()
	agent, err := NewAgent(view, AgentConfig{Header: col.Header(), SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	daemon := collect.NewDaemonAgent(col, agent)
	for i := 1; i <= 3; i++ {
		hw.Advance(600, hwsim.Demand{CPUUserFrac: 0.5, IPC: 1})
		if err := daemon.Tick(float64(i)*600, []string{"7"}, ""); err != nil {
			t.Fatal(err)
		}
	}
	waitHandled(t, 3, ing)
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	view.Close()
	srv.Close()
}
