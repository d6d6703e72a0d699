package broker_test

// The node publisher is fabric.Publisher. These tests pin its contract
// against a standalone broker.Server — the single-broker deployment,
// run as a fabric of one: redial across restarts, backoff and breaker
// accounting, spool fallback and in-order replay, and conservation
// through mid-frame resets.

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/fabric"
	"gostats/internal/faultnet"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/schema"
	"gostats/internal/spool"
	"gostats/internal/telemetry"
)

// fastPolicy shrinks every delay so robustness tests run in
// milliseconds instead of the production seconds.
func fastPolicy() broker.Policy {
	return broker.Policy{
		DialTimeout:      time.Second,
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

// nextAcked takes the next delivery and acknowledges it at once.
func nextAcked(c *broker.Consumer) ([]byte, error) {
	b, err := c.NextNoAck()
	if err != nil {
		return nil, err
	}
	if err := c.Ack(); err != nil {
		return nil, err
	}
	return b, nil
}

// tcpDial is the plain base dialer faultnet wraps in these tests.
func tcpDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, time.Second)
}

// robustSpool opens a throwaway spool for host n1 sharing the
// publisher's registry.
func robustSpool(t *testing.T, reg *telemetry.Registry) *spool.Spool {
	t.Helper()
	h := rawfile.Header{Hostname: "n1", Arch: "sandybridge", Registry: chip.StampedeNode().Registry()}
	sp, err := spool.Open(t.TempDir(), h, spool.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	return sp
}

// robustSnap builds a snapshot of host n1 whose records fit the
// StampedeNode schema, so it survives a spool round-trip.
func robustSnap(tm float64) model.Snapshot {
	return model.Snapshot{
		Time: tm,
		Host: "n1",
		Records: []model.Record{
			{Class: schema.ClassCPU, Instance: "0", Values: []uint64{1, 2, 3, 4, 5, 6, 7}},
		},
	}
}

// nodePublisher wires a publisher to map m the way a node daemon does:
// its own View and ClientPool (dialing through dial when non-nil). The
// View is returned for breaker inspection.
func nodePublisher(t *testing.T, m fabric.Map, pol broker.Policy, reg *telemetry.Registry,
	dial func(string) (net.Conn, error)) (*fabric.Publisher, *fabric.View) {
	t.Helper()
	view := fabric.NewView(m, pol, reg)
	pool := fabric.NewClientPool(pol)
	pool.Dialer = dial
	pub := fabric.NewPublisher(view, pool)
	pub.Metrics = reg
	t.Cleanup(func() {
		pub.Close()
		pool.Close()
		view.Close()
	})
	return pub, view
}

// standalone bootstraps the fabric-of-one map for the standalone broker
// at addr, exactly as the daemons do.
func standalone(t *testing.T, addr string) fabric.Map {
	t.Helper()
	m, err := fabric.Bootstrap([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Brokers) != 1 || m.Replication != 1 {
		t.Fatalf("standalone broker bootstrapped as %+v, want a fabric of one", m)
	}
	return m
}

// queueOf is the partition queue host's snapshots land in under m.
func queueOf(m fabric.Map, host string) string {
	return fabric.PartitionQueue(m.PartitionOf(host))
}

// TestPublishBackoffAccounting pins retry accounting: a failed dial
// costs exactly one retry round and every retry is preceded by a
// backoff sleep, so a dead broker costs bounded time instead of burning
// the whole budget in microseconds — and once the breaker opens the
// publish fails fast, with no dial and no sleep.
func TestPublishBackoffAccounting(t *testing.T) {
	pol := fastPolicy()
	pol.BackoffMin = 10 * time.Millisecond
	pol.BackoffMax = 40 * time.Millisecond
	var dials int32
	pub, _ := nodePublisher(t, fabric.NewMap([]string{"unreachable:0"}, 0, 1), pol,
		telemetry.NewRegistry(), func(string) (net.Conn, error) {
			atomic.AddInt32(&dials, 1)
			return nil, errors.New("connection refused")
		})

	start := time.Now()
	err := pub.Publish(robustSnap(1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("publish to dead broker succeeded")
	}
	if got := atomic.LoadInt32(&dials); got != 3 {
		t.Errorf("dials = %d, want exactly RetryRounds+1 = 3", got)
	}
	// Two retries follow the first failure: backoff(1)+backoff(2) =
	// 10ms+20ms.
	if elapsed < 20*time.Millisecond {
		t.Errorf("3 attempts took %s, want >= 20ms of backoff", elapsed)
	}

	// Three consecutive failures opened the breaker: the next publish
	// fails fast with zero dials and zero sleeps.
	start = time.Now()
	err = pub.Publish(robustSnap(2))
	if !errors.Is(err, broker.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if got := atomic.LoadInt32(&dials); got != 3 {
		t.Errorf("open breaker dialed anyway: dials = %d", got)
	}
	if fast := time.Since(start); fast > pol.BackoffMin {
		t.Errorf("fail-fast took %s", fast)
	}
	if dropped := pub.Stats().Dropped; dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
}

// TestPublisherSpoolFallbackAndReplay pins the outage guarantee: a
// broker outage diverts snapshots to the durable spool instead of
// dropping them, and the background drainer replays the backlog in
// order once the broker is back — gated only by the breaker's half-open
// probe, since the last broker of a fabric is never marked dead.
func TestPublisherSpoolFallbackAndReplay(t *testing.T) {
	srv := broker.NewServer()
	srv.Metrics = telemetry.NewRegistry()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	n := faultnet.New(faultnet.Faults{Seed: 1})
	reg := telemetry.NewRegistry()
	m := standalone(t, addr)
	pub, view := nodePublisher(t, m, fastPolicy(), reg, n.Dialer(tcpDial))
	pub.AttachSpool(robustSpool(t, reg))

	if err := pub.Publish(robustSnap(1)); err != nil {
		t.Fatal(err)
	}

	n.StartOutage()
	for tm := 2.0; tm <= 3; tm++ {
		// Spooled, not dropped: the publish "succeeds" durably.
		if err := pub.Publish(robustSnap(tm)); err != nil {
			t.Fatalf("publish during outage: %v", err)
		}
	}
	st := pub.Stats()
	if st.Spooled != 2 || st.Dropped != 0 {
		t.Fatalf("during outage: %+v", st)
	}
	if view.Snapshot().IsDead(addr) {
		t.Fatal("the only broker was marked dead; recovery would wait on the revival prober")
	}

	n.StopOutage()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = pub.Stats()
		if st.Replayed == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never replayed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cons, err := broker.DialConsumer(addr, queueOf(m, "n1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	var times []float64
	seen := map[float64]bool{}
	for len(times) < 3 {
		b, err := nextAcked(cons)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := broker.DecodeSnapshotWire(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[s.Time] { // confirmed publish may duplicate, never lose
			seen[s.Time] = true
			times = append(times, s.Time)
		}
	}
	if fmt.Sprint(times) != "[1 2 3]" {
		t.Errorf("delivery order = %v, want [1 2 3]", times)
	}

	vals := telemetry.ParseExposition(reg.Exposition())
	if got := vals[`gostats_publish_spooled_total{queue="fabric"}`]; got != 2 {
		t.Errorf("spooled counter = %g", got)
	}
	if got := vals[`gostats_publish_replayed_total{queue="fabric"}`]; got != 2 {
		t.Errorf("replayed counter = %g", got)
	}
	if got := vals[fmt.Sprintf("gostats_publish_breaker_state{broker=%q}", addr)]; got != broker.BreakerClosed {
		t.Errorf("breaker state = %g after recovery", got)
	}
}

// TestChaosMidFrameResetNoLoss hammers the publisher through a network
// that tears connections mid-frame and asserts snapshot conservation:
// with confirmed publishes and the spool fallback, every snapshot is
// delivered at least once — resets cost duplicates, never loss.
func TestChaosMidFrameResetNoLoss(t *testing.T) {
	srv := broker.NewServer()
	srv.Metrics = telemetry.NewRegistry()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	n := faultnet.New(faultnet.Faults{Seed: 7, ResetAfterBytes: 900})
	reg := telemetry.NewRegistry()
	m := standalone(t, addr)
	pub, _ := nodePublisher(t, m, fastPolicy(), reg, n.Dialer(tcpDial))
	pub.RetryRounds = 4
	pub.AttachSpool(robustSpool(t, reg))

	const total = 40
	for i := 1; i <= total; i++ {
		if err := pub.Publish(robustSnap(float64(i))); err != nil {
			t.Fatalf("snapshot %d lost: %v", i, err)
		}
	}

	// Every snapshot must end up delivered (live or replayed).
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := pub.Stats()
		if st.Published+st.Replayed >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivery stalled: %+v (faults %+v)", st, n.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := pub.Stats(); st.Dropped != 0 {
		t.Fatalf("dropped %d snapshots: %+v", st.Dropped, st)
	}
	if n.Stats().Resets == 0 {
		t.Fatal("fault schedule injected no resets; test proves nothing")
	}

	// Collect until all distinct snapshots arrive; duplicates are legal.
	cons, err := broker.DialConsumer(addr, queueOf(m, "n1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	seen := map[float64]bool{}
	got := make(chan model.Snapshot)
	go func() {
		for {
			b, err := nextAcked(cons)
			if err != nil {
				close(got)
				return
			}
			if s, _, err := broker.DecodeSnapshotWire(b, nil); err == nil {
				got <- s
			}
		}
	}()
	timeout := time.After(15 * time.Second)
	for len(seen) < total {
		select {
		case s, ok := <-got:
			if !ok {
				t.Fatalf("consumer died with %d/%d collected", len(seen), total)
			}
			seen[s.Time] = true
		case <-timeout:
			t.Fatalf("collected %d/%d before timeout", len(seen), total)
		}
	}
}

// TestNodePublisherSurvivesBrokerRestart pins redial: without a spool a
// dead broker costs dropped samples, and once it restarts on the same
// address the publisher reconnects and delivers again.
func TestNodePublisherSurvivesBrokerRestart(t *testing.T) {
	srv1 := broker.NewServer()
	addr, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := standalone(t, addr)
	q := queueOf(m, "n1")
	pub, _ := nodePublisher(t, m, fastPolicy(), telemetry.NewRegistry(), nil)

	if err := pub.Publish(robustSnap(1)); err != nil {
		t.Fatal(err)
	}
	c1, err := broker.DialConsumer(addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := nextAcked(c1); mustTime(t, b) != 1 {
		t.Fatalf("got %q", b)
	}
	c1.Close()
	srv1.Close()

	// Broker down: publishes eventually drop (the TCP buffer may absorb
	// the first few writes before the peer reset surfaces).
	sawDrop := false
	for i := 0; i < 20 && !sawDrop; i++ {
		if err := pub.Publish(robustSnap(2)); err != nil {
			sawDrop = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDrop {
		t.Fatal("publisher never noticed the dead broker")
	}

	// Broker restarts on the same address; the publisher redials.
	srv2 := broker.NewServer()
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	var perr error
	for i := 0; i < 50; i++ {
		if perr = pub.Publish(robustSnap(3)); perr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if perr != nil {
		t.Fatalf("publish after restart: %v", perr)
	}
	c2, err := broker.DialConsumer(addr, q)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got := make(chan []byte, 1)
	go func() {
		if b, err := nextAcked(c2); err == nil {
			got <- b
		}
	}()
	select {
	case b := <-got:
		if tm := mustTime(t, b); tm != 3 && tm != 2 {
			t.Errorf("unexpected snapshot t=%g", tm)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no message after restart")
	}
	st := pub.Stats()
	if st.Published < 2 || st.Redials < 1 || st.Dropped < 1 {
		t.Errorf("stats = %d/%d/%d, want >=2/>=1/>=1", st.Published, st.Redials, st.Dropped)
	}
}

// mustTime decodes a snapshot message and returns its time.
func mustTime(t *testing.T, b []byte) float64 {
	t.Helper()
	s, _, err := broker.DecodeSnapshotWire(b, nil)
	if err != nil {
		t.Fatalf("decode %q: %v", b, err)
	}
	return s.Time
}

// TestNodePublisherSnapshot pins the plain path: one snapshot lands on
// its host's partition queue of the standalone broker, intact.
func TestNodePublisherSnapshot(t *testing.T) {
	srv := broker.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := standalone(t, addr)
	pub, _ := nodePublisher(t, m, broker.Policy{}, telemetry.NewRegistry(), nil)
	if err := pub.Publish(model.Snapshot{Time: 5, Host: "n1"}); err != nil {
		t.Fatal(err)
	}
	cons, err := broker.DialConsumer(addr, queueOf(m, "n1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	b, err := nextAcked(cons)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := broker.DecodeSnapshotWire(b, nil)
	if err != nil || snap.Host != "n1" {
		t.Errorf("snap = %+v err = %v", snap, err)
	}
}
