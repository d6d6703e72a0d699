package fabric

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/schema"
	"gostats/internal/spool"
	"gostats/internal/telemetry"
)

// fastPolicy keeps failure-path tests quick: tight deadlines, short
// backoffs, a 3-failure breaker.
func fastPolicy() broker.Policy {
	return broker.Policy{
		DialTimeout:      200 * time.Millisecond,
		WriteTimeout:     time.Second,
		AckTimeout:       time.Second,
		BackoffMin:       time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		BackoffFactor:    2,
		BreakerThreshold: 3,
		BreakerWindow:    20 * time.Millisecond,
		BreakerMaxWindow: 50 * time.Millisecond,
	}
}

// testCluster is N in-process brokers sharing a fabric view.
type testCluster struct {
	servers map[string]*broker.Server
	addrs   []string
	view    *View
}

func startCluster(t *testing.T, n, partitions, replication int) *testCluster {
	t.Helper()
	tc := &testCluster{servers: make(map[string]*broker.Server)}
	for i := 0; i < n; i++ {
		srv := broker.NewServer()
		srv.Metrics = telemetry.NewRegistry()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		tc.servers[addr] = srv
		tc.addrs = append(tc.addrs, addr)
	}
	m := NewMap(tc.addrs, partitions, replication)
	tc.view = NewView(m, fastPolicy(), telemetry.NewRegistry())
	for addr, srv := range tc.servers {
		_ = addr
		srv.MapProvider = tc.view.Provider()
	}
	return tc
}

func (tc *testCluster) kill(t *testing.T, addr string) {
	t.Helper()
	srv, ok := tc.servers[addr]
	if !ok {
		t.Fatalf("kill: unknown broker %s", addr)
	}
	srv.Close()
}

func fabricSnap(host string, tm float64) model.Snapshot {
	return model.Snapshot{
		Time: tm,
		Host: host,
		Records: []model.Record{
			{Class: schema.ClassCPU, Instance: "0", Values: []uint64{1, 2, 3, 4, 5, 6, 7}},
		},
	}
}

func fabricSpool(t *testing.T, host string, reg *telemetry.Registry) *spool.Spool {
	t.Helper()
	h := rawfile.Header{Hostname: host, Arch: "sandybridge", Registry: chip.StampedeNode().Registry()}
	sp, err := spool.Open(t.TempDir(), h, spool.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	return sp
}

// TestMapOwnersDeterministic pins the no-coordinator contract: two
// parties holding equal maps compute identical ownership, every
// partition gets exactly Replication distinct owners, and host
// partitioning is stable.
func TestMapOwnersDeterministic(t *testing.T) {
	brokers := []string{"10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070"}
	m1 := NewMap(brokers, 16, 2)
	m2 := NewMap([]string{brokers[2], brokers[0], brokers[1]}, 16, 2) // order-independent
	for p := 0; p < m1.Partitions; p++ {
		o1, o2 := m1.Owners(p), m2.Owners(p)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("partition %d: owners differ across equal maps: %v vs %v", p, o1, o2)
		}
		if len(o1) != 2 {
			t.Fatalf("partition %d: want 2 owners, got %v", p, o1)
		}
		if o1[0] == o1[1] {
			t.Fatalf("partition %d: duplicate owner %v", p, o1)
		}
	}
	if m1.PartitionOf("nid00001") != m2.PartitionOf("nid00001") {
		t.Fatal("PartitionOf not stable across equal maps")
	}
	if p := m1.PartitionOf("nid00001"); p < 0 || p >= m1.Partitions {
		t.Fatalf("PartitionOf out of range: %d", p)
	}
}

// TestMapRebalanceMovesOnlyDeadOwnersPartitions pins the XOR-distance
// property the live rebalance depends on: killing one broker changes
// ownership only for partitions it owned.
func TestMapRebalanceMovesOnlyDeadOwnersPartitions(t *testing.T) {
	brokers := []string{"b1:1", "b2:1", "b3:1", "b4:1"}
	m := NewMap(brokers, 32, 2)
	dead := "b2:1"
	before := make(map[int][]string)
	for p := 0; p < m.Partitions; p++ {
		before[p] = m.Owners(p)
	}
	after := m.Clone()
	after.Dead = []string{dead}
	after.Version++
	moved, kept := 0, 0
	for p := 0; p < m.Partitions; p++ {
		owned := false
		for _, o := range before[p] {
			if o == dead {
				owned = true
			}
		}
		now := after.Owners(p)
		if owned {
			moved++
			for _, o := range now {
				if o == dead {
					t.Fatalf("partition %d: dead broker still an owner: %v", p, now)
				}
			}
			if len(now) != 2 {
				t.Fatalf("partition %d: want 2 owners after failover, got %v", p, now)
			}
		} else {
			kept++
			if !reflect.DeepEqual(before[p], now) {
				t.Fatalf("partition %d: ownership churned without owning the dead broker: %v -> %v",
					p, before[p], now)
			}
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate spread: moved=%d kept=%d", moved, kept)
	}
}

// TestMapEncodeDecodeRoundTrip covers the handshake payload.
func TestMapEncodeDecodeRoundTrip(t *testing.T) {
	m := NewMap([]string{"a:1", "b:1", "c:1"}, 8, 2)
	m.Dead = []string{"b:1"}
	m.Version = 7
	got, err := DecodeMap(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", m, got)
	}
	if _, err := DecodeMap([]byte("not json")); err == nil {
		t.Fatal("want error for garbage payload")
	}
}

// TestSeqOfStable pins the dedup identity contract: SeqOf is a pure
// function of (Time, Mark) at millisecond resolution — stable across
// copies, restarts, and codec round trips — and distinct snapshots get
// distinct sequences.
func TestSeqOfStable(t *testing.T) {
	a := fabricSnap("nid00001", 1234.567)
	b := fabricSnap("nid00001", 1234.567)
	b.Records = nil // payload must not influence the identity
	if SeqOf(a) != SeqOf(b) {
		t.Fatal("SeqOf not stable across copies")
	}
	c := fabricSnap("nid00001", 1234.568)
	if SeqOf(a) == SeqOf(c) {
		t.Fatal("SeqOf collides across distinct times")
	}
	d := fabricSnap("nid00001", 1234.567)
	d.Mark = "end job1"
	if SeqOf(a) == SeqOf(d) {
		t.Fatal("SeqOf collides across distinct marks")
	}
}

// TestViewMarkDeadBumpsVersionAndNotifies covers the rebalance trigger.
func TestViewMarkDeadBumpsVersionAndNotifies(t *testing.T) {
	m := NewMap([]string{"a:1", "b:1", "c:1"}, 8, 2)
	v := NewView(m, fastPolicy(), telemetry.NewRegistry())
	var mu sync.Mutex
	var versions []uint64
	v.OnChange(func(m Map) {
		mu.Lock()
		versions = append(versions, m.Version)
		mu.Unlock()
	})
	if !v.MarkDead("b:1") {
		t.Fatal("MarkDead reported no change")
	}
	if v.MarkDead("b:1") {
		t.Fatal("second MarkDead should be a no-op")
	}
	if v.MarkDead("unknown:1") {
		t.Fatal("MarkDead of unknown broker should be a no-op")
	}
	if got := v.Version(); got != 2 {
		t.Fatalf("want version 2 after one death, got %d", got)
	}
	if !v.MarkAlive("b:1") {
		t.Fatal("MarkAlive reported no change")
	}
	if got := v.Version(); got != 3 {
		t.Fatalf("want version 3 after revival, got %d", got)
	}
	mu.Lock()
	if !reflect.DeepEqual(versions, []uint64{2, 3}) {
		mu.Unlock()
		t.Fatalf("change notifications: want [2 3], got %v", versions)
	}
	mu.Unlock()

	// Adopt: only strictly newer revisions of the same cluster.
	newer := v.Snapshot()
	newer.Version = 10
	if !v.Adopt(newer) {
		t.Fatal("Adopt rejected a newer map")
	}
	if v.Adopt(newer) {
		t.Fatal("Adopt accepted a stale map")
	}
}

// TestViewNeverMarksLastBrokerDead pins the outage-recovery rule: the
// last live broker stays routable, so its breaker's half-open probe —
// not the revival prober — decides when traffic resumes.
func TestViewNeverMarksLastBrokerDead(t *testing.T) {
	v := NewView(NewMap([]string{"a:1", "b:1"}, 8, 2), fastPolicy(), telemetry.NewRegistry())
	if !v.MarkDead("a:1") {
		t.Fatal("MarkDead of one of two live brokers reported no change")
	}
	if v.MarkDead("b:1") {
		t.Fatal("MarkDead removed the last live broker")
	}
	if _, owners := v.Snapshot().OwnersOfHost("nid00001"); fmt.Sprint(owners) != "[b:1]" {
		t.Fatalf("owners = %v, want the surviving broker", owners)
	}
}

// TestBootstrapFabricOrStandalone pins how daemons resolve their map: a
// fabric member serves the cluster's map, and a lone standalone broker
// becomes a fabric of one with one owner per partition.
func TestBootstrapFabricOrStandalone(t *testing.T) {
	tc := startCluster(t, 3, 8, 2)
	m, err := Bootstrap(tc.addrs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Partitions != 8 || m.Replication != 2 || len(m.Brokers) != 3 {
		t.Fatalf("fabric bootstrap = %+v, want the served 3-broker map", m)
	}

	srv := broker.NewServer()
	srv.Metrics = telemetry.NewRegistry()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err = Bootstrap([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, NewMap([]string{addr}, DefaultPartitions, 1)) {
		t.Fatalf("standalone bootstrap = %+v, want a fabric of one", m)
	}
	if _, err := Bootstrap([]string{addr, addr}); !errors.Is(err, broker.ErrNoMap) {
		t.Fatalf("two standalone addresses: err = %v, want ErrNoMap (a list names fabric members)", err)
	}
}

// TestDedupBounded covers first-writer-wins and FIFO eviction.
func TestDedupBounded(t *testing.T) {
	d := NewDedup(3)
	if d.Seen("h1", 1) {
		t.Fatal("first sight reported seen")
	}
	if !d.Seen("h1", 1) {
		t.Fatal("second sight not deduped")
	}
	if d.Seen("h2", 1) || d.Seen("h1", 2) {
		t.Fatal("distinct identities collided")
	}
	// Table now holds (h1,1) (h2,1) (h1,2); a fourth identity evicts the
	// oldest.
	d.Seen("h3", 1)
	if !d.Seen("h2", 1) {
		t.Fatal("unevicted identity forgotten")
	}
	if d.Seen("h1", 1) != false {
		t.Fatal("oldest identity should have been evicted")
	}
	if d.Seen("", 99) || d.Seen("", 99) {
		t.Fatal("hostless frames must never dedup")
	}
}

// consumeAll drains whatever is queued for partition p on the broker at
// addr, returning the (host, seq) identities seen. Stops at the first
// blocking wait.
func consumeAll(t *testing.T, addr string, p int, timeout time.Duration) []string {
	t.Helper()
	cons, err := broker.DialConsumer(addr, PartitionQueue(p))
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	var got []string
	deadline := time.After(timeout)
	done := make(chan struct{})
	go func() {
		<-deadline
		select {
		case <-done:
		default:
			cons.Close() // unblock the pending Next
		}
	}()
	for {
		msg, err := cons.NextMsgNoAck()
		if err != nil {
			close(done)
			return got
		}
		got = append(got, fmt.Sprintf("%s/%d", msg.Host, msg.Seq))
		if err := cons.Ack(); err != nil {
			close(done)
			return got
		}
	}
}

// TestPublisherReplicatesToAllOwners proves the N-way publish: every
// owner of a host's partition holds a copy carrying the same (host,
// seq) identity.
func TestPublisherReplicatesToAllOwners(t *testing.T) {
	tc := startCluster(t, 3, 8, 2)
	pool := NewClientPool(fastPolicy())
	defer pool.Close()
	pub := NewPublisher(tc.view, pool)
	pub.Metrics = telemetry.NewRegistry()

	hosts := []string{"nid00001", "nid00002", "nid00003", "nid00004"}
	for i, h := range hosts {
		if err := pub.Publish(fabricSnap(h, 100.0+float64(i))); err != nil {
			t.Fatalf("publish %s: %v", h, err)
		}
	}
	st := pub.Stats()
	if st.Published != len(hosts) || st.Dropped != 0 || st.Spooled != 0 {
		t.Fatalf("stats: %+v", st)
	}

	m := tc.view.Snapshot()
	for i, h := range hosts {
		s := fabricSnap(h, 100.0+float64(i))
		want := fmt.Sprintf("%s/%d", h, SeqOf(s))
		p, owners := m.OwnersOfHost(h)
		if len(owners) != 2 {
			t.Fatalf("host %s: want 2 owners, got %v", h, owners)
		}
		for _, o := range owners {
			got := consumeAll(t, o, p, 500*time.Millisecond)
			found := false
			for _, g := range got {
				if g == want {
					found = true
				}
			}
			if !found {
				t.Fatalf("host %s: owner %s missing replica %s (has %v)", h, o, want, got)
			}
		}
	}
}

// TestPublisherFailoverSpoolsAndReroutes is the satellite-2 pin: a
// publish that cannot reach full replication spools; the drainer
// replays through the CURRENT map, so a frame spooled against a dead
// owner drains to the partition's new owner set and the reroute
// counter ticks.
func TestPublisherFailoverSpoolsAndReroutes(t *testing.T) {
	tc := startCluster(t, 3, 8, 2)
	reg := telemetry.NewRegistry()
	pool := NewClientPool(fastPolicy())
	defer pool.Close()
	pub := NewPublisher(tc.view, pool)
	pub.Metrics = reg
	pub.AttachSpool(fabricSpool(t, "nid00001", reg))
	defer pub.Close()

	// Pick a host and kill one of its owners.
	host := "nid00001"
	m := tc.view.Snapshot()
	_, owners := m.OwnersOfHost(host)
	tc.kill(t, owners[0])

	// The publish fails replication (one owner is gone), trips the dead
	// broker's breaker across retry rounds, marks it dead, and spools.
	if err := pub.Publish(fabricSnap(host, 200.0)); err != nil {
		t.Fatalf("publish with spool attached should not error: %v", err)
	}
	st := pub.Stats()
	if st.Spooled != 1 {
		t.Fatalf("want 1 spooled, got %+v", st)
	}

	// The drainer replays through the post-failover map.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = pub.Stats()
		if st.Replayed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay never completed: %+v (map %+v)", st, tc.view.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Rerouted != 1 {
		t.Fatalf("want 1 rerouted replay, got %+v", st)
	}
	if !tc.view.Snapshot().IsDead(owners[0]) {
		t.Fatal("dead owner never marked dead in the view")
	}

	// The frame must now live on every CURRENT owner.
	m = tc.view.Snapshot()
	p, now := m.OwnersOfHost(host)
	want := fmt.Sprintf("%s/%d", host, SeqOf(fabricSnap(host, 200.0)))
	for _, o := range now {
		got := consumeAll(t, o, p, 500*time.Millisecond)
		found := false
		for _, g := range got {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("rerouted frame missing on new owner %s: %v", o, got)
		}
	}
}

// TestSpoolReplayKeepsHostAttribution forces every publish into the
// spool regardless of timing — the pool refuses to dial the owner while
// the publishes run — then lets two hosts' publishers replay. Every
// snapshot must come back filed under the host that emitted it, with
// nothing for dedup to drop: each frame is delivered once, and a replay
// misfiled under another host would collide with that host's identities.
func TestSpoolReplayKeepsHostAttribution(t *testing.T) {
	tc := startCluster(t, 1, 8, 1)
	reg := telemetry.NewRegistry()
	var refuse atomic.Bool
	refuse.Store(true)
	pool := NewClientPool(fastPolicy())
	pool.Dialer = func(addr string) (net.Conn, error) {
		if refuse.Load() {
			return nil, errors.New("connection refused")
		}
		return net.DialTimeout("tcp", addr, time.Second)
	}
	defer pool.Close()

	var mu sync.Mutex
	handled := make(map[string][]float64)
	g := NewGroup(tc.view)
	g.Metrics = reg
	g.Handle = func(body []byte) error {
		s, _, err := broker.DecodeSnapshotWire(body, nil)
		if err != nil {
			return err
		}
		mu.Lock()
		handled[s.Host] = append(handled[s.Host], s.Time)
		mu.Unlock()
		return nil
	}
	g.Start()
	defer g.Stop()

	const rounds = 4
	hosts := []string{"nid00001", "nid00002"}
	pubs := make([]*Publisher, len(hosts))
	for i, h := range hosts {
		pubs[i] = NewPublisher(tc.view, pool)
		pubs[i].Metrics = reg
		pubs[i].AttachSpool(fabricSpool(t, h, reg))
		defer pubs[i].Close()
	}
	for r := 0; r < rounds; r++ {
		for i, h := range hosts {
			if err := pubs[i].Publish(fabricSnap(h, 100.0+float64(r))); err != nil {
				t.Fatalf("publish %s round %d: %v", h, r, err)
			}
		}
	}
	for i, h := range hosts {
		if st := pubs[i].Stats(); st.Spooled != rounds || st.Published != 0 {
			t.Fatalf("%s: every publish should have spooled while the owner refused: %+v", h, st)
		}
	}

	refuse.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := g.Stats().Handled >= uint64(rounds*len(hosts))
		for _, p := range pubs {
			done = done && p.Stats().Replayed == rounds
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay incomplete: group %+v, publishers %+v / %+v",
				g.Stats(), pubs[0].Stats(), pubs[1].Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, h := range hosts {
		if got := fmt.Sprint(handled[h]); got != "[100 101 102 103]" {
			t.Errorf("host %s archived %s, want [100 101 102 103] in order", h, got)
		}
	}
	if st := g.Stats(); st.Deduped != 0 {
		t.Errorf("dedup dropped %d frames; replays collided across hosts: %+v", st.Deduped, st)
	}
}

// TestUnencodableSnapshotBehindBacklog publishes, while a spool backlog
// is pending, a snapshot the binary codec cannot encode: the spool
// refuses it, so that publish fails and is counted dropped, and the
// good snapshots before and after it spool and replay in order.
func TestUnencodableSnapshotBehindBacklog(t *testing.T) {
	tc := startCluster(t, 1, 8, 1)
	reg := telemetry.NewRegistry()
	var refuse atomic.Bool
	refuse.Store(true)
	pool := NewClientPool(fastPolicy())
	pool.Dialer = func(addr string) (net.Conn, error) {
		if refuse.Load() {
			return nil, errors.New("connection refused")
		}
		return net.DialTimeout("tcp", addr, time.Second)
	}
	defer pool.Close()

	schemas := chip.StampedeNode().Registry()
	var mu sync.Mutex
	var handled []float64
	g := NewGroup(tc.view)
	g.Metrics = reg
	g.Handle = func(body []byte) error {
		s, _, err := broker.DecodeSnapshotWire(body, schemas)
		if err != nil {
			return err
		}
		mu.Lock()
		handled = append(handled, s.Time)
		mu.Unlock()
		return nil
	}
	g.Start()
	defer g.Stop()

	const host = "nid00001"
	h := rawfile.Header{Hostname: host, Arch: "sandybridge", Registry: schemas}
	sp, err := spool.Open(t.TempDir(), h, spool.Options{Metrics: reg, Codec: codec.V2Binary})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	pub := NewPublisher(tc.view, pool)
	pub.Metrics = reg
	pub.Codec, pub.Registry = codec.V2Binary, schemas
	pub.AttachSpool(sp)
	defer pub.Close()

	bad := fabricSnap(host, 101)
	bad.Records = append(bad.Records, model.Record{Class: "nosuch", Instance: "0", Values: []uint64{1}})
	if err := pub.Publish(fabricSnap(host, 100)); err != nil {
		t.Fatalf("publish with spool attached should not error: %v", err)
	}
	if err := pub.Publish(bad); err == nil {
		t.Fatal("unencodable snapshot published")
	}
	if err := pub.Publish(fabricSnap(host, 102)); err != nil {
		t.Fatalf("publish after the unencodable snapshot: %v", err)
	}
	if st := pub.Stats(); st.Spooled != 2 || st.Dropped != 1 {
		t.Fatalf("want 2 spooled and 1 dropped, got %+v", st)
	}

	refuse.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for pub.Stats().Replayed < 2 || g.Stats().Handled < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("replay incomplete: group %+v, publisher %+v", g.Stats(), pub.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := fmt.Sprint(handled); got != "[100 102]" {
		t.Errorf("replayed %s, want [100 102] in order", got)
	}
}

// TestGroupDedupAcrossReplicasAndReplay is the satellite-3 dedup pin:
// with replication 2 every frame reaches the group twice (once per
// owner), and a spool replay re-delivers it again — the handler must
// see each identity exactly once.
func TestGroupDedupAcrossReplicasAndReplay(t *testing.T) {
	tc := startCluster(t, 3, 8, 2)
	pool := NewClientPool(fastPolicy())
	defer pool.Close()
	pub := NewPublisher(tc.view, pool)
	pub.Metrics = telemetry.NewRegistry()

	var mu sync.Mutex
	handled := make(map[string]int)
	g := NewGroup(tc.view)
	g.Metrics = telemetry.NewRegistry()
	g.Handle = func(body []byte) error {
		s, _, err := broker.DecodeSnapshotWire(body, nil)
		if err != nil {
			return err
		}
		mu.Lock()
		handled[fmt.Sprintf("%s/%d", s.Host, SeqOf(s))]++
		mu.Unlock()
		return nil
	}
	g.Start()
	defer g.Stop()

	hosts := []string{"nid00001", "nid00002", "nid00003", "nid00004", "nid00005"}
	for i, h := range hosts {
		if err := pub.Publish(fabricSnap(h, 300.0+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Re-publish the first snapshot verbatim — the wire shape of a spool
	// replay racing a successful earlier delivery (retry after a lost
	// ack, replay after a partial confirm).
	if err := pub.Publish(fabricSnap(hosts[0], 300.0)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := g.Stats()
		// 5 snapshots x 2 replicas + 1 replayed x 2 replicas = 12
		// deliveries; 5 unique identities handled.
		if st.Handled >= uint64(len(hosts)) && st.Delivered >= 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let any stray duplicate land
	mu.Lock()
	defer mu.Unlock()
	if len(handled) != len(hosts) {
		t.Fatalf("want %d unique identities, got %d: %v", len(hosts), len(handled), handled)
	}
	for k, n := range handled {
		if n != 1 {
			t.Fatalf("identity %s handled %d times (want exactly once)", k, n)
		}
	}
	st := g.Stats()
	if st.Deduped < uint64(len(hosts)+1) {
		t.Fatalf("dedup dropped %d copies, want >= %d", st.Deduped, len(hosts)+1)
	}
}

// TestGroupRestartsDeadConsumer is the satellite-1 pin: a consume-loop
// death restarts that partition's consumer with backoff instead of
// killing the group, and the restart log names partition and broker.
func TestGroupRestartsDeadConsumer(t *testing.T) {
	tc := startCluster(t, 3, 4, 2)
	pool := NewClientPool(fastPolicy())
	defer pool.Close()
	pub := NewPublisher(tc.view, pool)
	pub.Metrics = telemetry.NewRegistry()

	var logMu sync.Mutex
	var logs []string
	var mu sync.Mutex
	fail := true
	var handledHosts []string
	g := NewGroup(tc.view)
	g.Metrics = telemetry.NewRegistry()
	g.MaxRestarts = 50
	g.Logf = func(format string, args ...interface{}) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	g.Handle = func(body []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			fail = false
			return fmt.Errorf("transient handler crash")
		}
		s, _, err := broker.DecodeSnapshotWire(body, nil)
		if err != nil {
			return err
		}
		handledHosts = append(handledHosts, s.Host)
		return nil
	}
	g.Start()
	defer g.Stop()

	if err := pub.Publish(fabricSnap("nid00042", 400.0)); err != nil {
		t.Fatal(err)
	}
	restartLogged := func() bool {
		logMu.Lock()
		defer logMu.Unlock()
		for _, l := range logs {
			if strings.Contains(l, "partition") && strings.Contains(l, "broker") &&
				strings.Contains(l, "restarting") {
				return true
			}
		}
		return false
	}
	// With replication 2 the other replica's consumer can handle the
	// snapshot before the failed consumer's loop counts and logs its
	// restart, so wait for all three within the deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(handledHosts)
		mu.Unlock()
		if n >= 1 && g.Stats().Restarts >= 1 && restartLogged() {
			break
		}
		if time.Now().After(deadline) {
			if n == 0 {
				t.Fatalf("snapshot never handled after consumer restart: %+v", g.Stats())
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := g.Stats(); st.Restarts == 0 {
		t.Fatalf("want at least one consumer restart, got %+v", st)
	}
	if !restartLogged() {
		logMu.Lock()
		defer logMu.Unlock()
		t.Fatalf("restart log should name partition and broker: %v", logs)
	}
	select {
	case err := <-g.Err():
		t.Fatalf("transient failure must not be fatal: %v", err)
	default:
	}
}

// TestGroupRebalancesOffDeadBroker proves the consumer side of a
// failover: killing a broker retires its consumers (after the breaker
// marks it dead) and the group keeps consuming the partitions from the
// surviving owners without a fatal error.
func TestGroupRebalancesOffDeadBroker(t *testing.T) {
	tc := startCluster(t, 3, 8, 2)
	pool := NewClientPool(fastPolicy())
	defer pool.Close()
	pub := NewPublisher(tc.view, pool)
	pub.Metrics = telemetry.NewRegistry()

	var mu sync.Mutex
	handled := make(map[string]bool)
	g := NewGroup(tc.view)
	g.Metrics = telemetry.NewRegistry()
	g.Handle = func(body []byte) error {
		s, _, err := broker.DecodeSnapshotWire(body, nil)
		if err != nil {
			return err
		}
		mu.Lock()
		handled[fmt.Sprintf("%s@%.3f", s.Host, s.Time)] = true
		mu.Unlock()
		return nil
	}
	g.Start()
	defer g.Stop()

	// Kill the broker holding the most partition slots: the XOR layout
	// over random ephemeral ports can leave a corner broker owning a
	// single partition, which a small host sample might never hit.
	pre := tc.view.Snapshot()
	slots := map[string]int{}
	for p := 0; p < pre.Partitions; p++ {
		for _, o := range pre.Owners(p) {
			slots[o]++
		}
	}
	victim := tc.addrs[0]
	for _, a := range tc.addrs {
		if slots[a] > slots[victim] {
			victim = a
		}
	}
	tc.kill(t, victim)

	// Publish across many hosts until the victim's breaker trips and the
	// map retires it; frames routed to the dead broker fail over to
	// surviving owners within the publisher's retry rounds.
	want := 0
	for i := 0; want < 12 || !tc.view.Snapshot().IsDead(victim); i++ {
		if i >= 200 {
			t.Fatalf("victim never marked dead after %d publishes (owned %d/%d slots)",
				i, slots[victim], 2*pre.Partitions)
		}
		h := fmt.Sprintf("nid%05d", i)
		if err := pub.Publish(fabricSnap(h, 500.0+float64(i))); err == nil {
			want++
		}
	}
	if want == 0 {
		t.Fatal("every publish failed; expected failover to surviving brokers")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(handled)
		mu.Unlock()
		if n >= want {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("handled %d of %d after failover: %v (stats %+v)", len(handled), want, handled, g.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-g.Err():
		t.Fatalf("failover must not be fatal to the group: %v", err)
	default:
	}
}
