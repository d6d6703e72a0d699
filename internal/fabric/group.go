package fabric

import (
	"fmt"
	"hash/fnv"
	"log"
	"net"
	"sync"

	"gostats/internal/broker"
	"gostats/internal/telemetry"
)

// consumerKey identifies one consumption stream: one partition's queue
// on one owner broker.
type consumerKey struct {
	partition int
	addr      string
}

// GroupStats are the lifetime counters of one consumer Group.
type GroupStats struct {
	Delivered uint64 // frames received from brokers (replicas included)
	Handled   uint64 // frames passed to the handler (first copy of each identity)
	Deduped   uint64 // replicated/replayed copies dropped by (host, seq) dedup
	Restarts  uint64 // partition-consumer restarts after a consume-loop death
}

// Group consumes a share of the fabric's partitions from every owner
// broker in parallel and funnels the deduplicated stream into a single
// handler. Group member i of n owns the partitions where p % n == i;
// for each owned partition it runs one consumer per owner broker, so a
// replicated frame arrives once per owner and the (host, seq) dedup
// admits exactly one copy.
//
// The consumers are supervised: a consume-loop death restarts that
// partition's consumer with backoff (naming the partition and broker)
// instead of killing the process, feeding the broker's breaker so a
// dead broker is marked dead — which bumps the map version, reassigns
// its partitions, and reconciles the consumer set to match. Only a
// consumer that keeps failing against a broker the map still considers
// alive is fatal.
type Group struct {
	view *View

	// Index/Count place this member in the listener group: it consumes
	// partitions where p % Count == Index. Zero Count means a group of
	// one.
	Index, Count int

	// Handle receives each frame exactly once per admitted identity.
	// A handler error counts as a consume failure for that consumer.
	Handle func(body []byte) error

	// Dialer, when non-nil, replaces net.Dial for consumer connections —
	// the fault-injection seam.
	Dialer func(addr string) (net.Conn, error)

	// MaxRestarts is how many consecutive failures one consumer absorbs
	// before the group declares it fatal (default 8). Failures against a
	// broker the map has since marked dead never count — that consumer
	// just stops.
	MaxRestarts int

	// Metrics selects the telemetry registry (nil uses
	// telemetry.Default()). Set before Run.
	Metrics *telemetry.Registry

	// Logf reports consumer restarts and rebalances (default log.Printf).
	Logf func(format string, args ...interface{})

	// Dedup is the shared identity table (set before Run to share one
	// table across groups in one process; nil builds a default-sized
	// one).
	Dedup *Dedup

	mu        sync.Mutex
	consumers map[consumerKey]*partConsumer
	stopped   bool
	// hostMu stripes the dedup-admission + Handle critical section by
	// host: same-host frames stay strictly ordered (the conservation
	// audit depends on per-host order), while different hosts' frames
	// flow through Handle concurrently — behind it, in different steps
	// of the listener.
	hostMu [64]sync.Mutex

	delivered uint64
	handled   uint64
	restarts  uint64

	// deliveredBy counts deliveries per (partition, owner) under the
	// current map version — the inputs to the replication-lag gauges.
	deliveredBy map[consumerKey]uint64
	lagGauges   map[int]*telemetry.Gauge
	dedupDrops  *telemetry.Counter

	fatal chan error
	wg    sync.WaitGroup
}

// partConsumer is one supervised consumption stream.
type partConsumer struct {
	stop chan struct{} // closed to retire the consumer
	mu   sync.Mutex
	cons *broker.Consumer // live connection, closed on stop to unblock Next
	busy bool             // a delivered frame is being handled and acked
}

// NewGroup builds a consumer group member over view.
func NewGroup(view *View) *Group {
	return &Group{
		view:        view,
		consumers:   make(map[consumerKey]*partConsumer),
		deliveredBy: make(map[consumerKey]uint64),
		lagGauges:   make(map[int]*telemetry.Gauge),
		fatal:       make(chan error, 1),
	}
}

func (g *Group) logf(format string, args ...interface{}) {
	if g.Logf != nil {
		g.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ownsPartition reports whether this group member consumes partition p.
func (g *Group) ownsPartition(p int) bool {
	n := g.Count
	if n <= 1 {
		return true
	}
	return p%n == g.Index
}

// desired returns the consumer set the current map calls for.
func (g *Group) desired(m Map) map[consumerKey]bool {
	want := make(map[consumerKey]bool)
	for p := 0; p < m.Partitions; p++ {
		if !g.ownsPartition(p) {
			continue
		}
		for _, owner := range m.Owners(p) {
			want[consumerKey{partition: p, addr: owner}] = true
		}
	}
	return want
}

// reconcile starts missing consumers and retires surplus ones so the
// running set matches the map. Called at startup and on every map
// version bump — this is the consumer side of a rebalance.
func (g *Group) reconcile(m Map) {
	want := g.desired(m)
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	var retire []*partConsumer
	for k, pc := range g.consumers {
		if !want[k] {
			retire = append(retire, pc)
			delete(g.consumers, k)
		}
	}
	var start []consumerKey
	for k := range want {
		if g.consumers[k] == nil {
			pc := &partConsumer{stop: make(chan struct{})}
			g.consumers[k] = pc
			start = append(start, k)
		}
	}
	// A version bump resets the replication-lag baseline: a freshly
	// (re)assigned owner starts from zero deliveries, and comparing it
	// against a long-running replica's lifetime count would read as
	// permanent lag.
	for k := range g.deliveredBy {
		delete(g.deliveredBy, k)
	}
	g.mu.Unlock()

	for _, pc := range retire {
		pc.retire()
	}
	for _, k := range start {
		g.mu.Lock()
		pc := g.consumers[k]
		g.mu.Unlock()
		if pc == nil {
			continue
		}
		g.wg.Add(1)
		go g.consumeLoop(k, pc)
	}
}

// retire stops a consumer: closing stop ends its loop, closing the live
// connection unblocks a pending Next. A consumer mid-frame keeps its
// connection until the frame is handled and acked, so a stop never
// leaves a handled frame unacked for the next member to handle again.
func (pc *partConsumer) retire() {
	pc.mu.Lock()
	select {
	case <-pc.stop:
	default:
		close(pc.stop)
	}
	if pc.cons != nil && !pc.busy {
		pc.cons.Close()
		pc.cons = nil
	}
	pc.mu.Unlock()
}

// setBusy marks a frame in or out of hand and reports whether the
// consumer is still live; a retired consumer is never marked busy.
func (pc *partConsumer) setBusy(busy bool) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	select {
	case <-pc.stop:
		pc.busy = false
		return false
	default:
		pc.busy = busy
		return true
	}
}

// dial opens a consumer subscription to k's queue on k's broker.
func (g *Group) dial(k consumerKey) (*broker.Consumer, error) {
	queue := PartitionQueue(k.partition)
	if g.Dialer == nil {
		return broker.DialConsumer(k.addr, queue)
	}
	conn, err := g.Dialer(k.addr)
	if err != nil {
		return nil, err
	}
	return broker.NewConsumerConn(conn, queue)
}

// consumeLoop is one supervised consumer: dial, drain, dedup, handle;
// on death, restart with backoff and only escalate to fatal after
// MaxRestarts consecutive failures against a broker the map still
// considers alive.
func (g *Group) consumeLoop(k consumerKey, pc *partConsumer) {
	defer g.wg.Done()
	maxRestarts := g.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 8
	}
	failures := 0
	for {
		select {
		case <-pc.stop:
			return
		default:
		}
		if failures > 0 {
			backoffSleep(g.view.pol, failures)
		}
		cons, err := g.dial(k)
		if err == nil {
			pc.mu.Lock()
			retired := false
			select {
			case <-pc.stop:
				retired = true
			default:
				pc.cons = cons
			}
			pc.mu.Unlock()
			if retired {
				cons.Close()
				return
			}
			err = g.drainConsumer(k, pc, cons)
			pc.mu.Lock()
			if pc.cons == cons {
				pc.cons = nil
			}
			pc.mu.Unlock()
			cons.Close()
		}
		select {
		case <-pc.stop:
			return
		default:
		}
		failures++
		g.mu.Lock()
		g.restarts++
		g.mu.Unlock()
		g.brokerFailed(k.addr)
		if g.view.Snapshot().IsDead(k.addr) {
			// The map no longer routes through this broker; the version
			// bump's reconcile retires this consumer. Exit quietly.
			return
		}
		if failures >= maxRestarts {
			select {
			case g.fatal <- fmt.Errorf(
				"fabric: consumer for partition %d on broker %s died %d times in a row (last error: %v)",
				k.partition, k.addr, failures, err):
			default:
			}
			return
		}
		g.logf("fabric: restarting consumer for partition %d on broker %s after error (attempt %d/%d): %v",
			k.partition, k.addr, failures, maxRestarts, err)
	}
}

// drainConsumer pumps one live connection until it errors or the
// consumer is retired. A handled message resets the failure streak via
// the return path (nil error only on retirement). A frame read after
// retirement is left unacked, so the broker requeues it.
func (g *Group) drainConsumer(k consumerKey, pc *partConsumer, cons *broker.Consumer) error {
	for {
		msg, err := cons.NextMsgNoAck()
		if err != nil {
			select {
			case <-pc.stop:
				return nil
			default:
			}
			return err
		}
		if !pc.setBusy(true) {
			return nil
		}
		err = g.deliver(k, cons, msg)
		if retired := !pc.setBusy(false); err != nil || retired {
			return err
		}
	}
}

// deliver admits one frame past dedup, hands it to Handle and acks it.
func (g *Group) deliver(k consumerKey, cons *broker.Consumer, msg broker.Msg) error {
	g.recordDelivery(k)
	dedup := g.dedupTable()
	// Admission and handling share a per-host critical section so a
	// replica copy racing in on another consumer cannot pass the
	// dedup check while the first copy's handler is still running,
	// and so the copy of seq n+1 cannot enter Handle before seq n
	// has cleared it (per-host order); a failed handle withdraws the
	// admission so the broker's redelivery (the frame was not acked)
	// is handled, not deduped away. Different hosts take different
	// stripes and handle concurrently.
	hm := g.hostLock(msg.Host)
	hm.Lock()
	if dedup.Seen(msg.Host, msg.Seq) {
		hm.Unlock()
		g.dropsCounter().Inc()
		return cons.Ack()
	}
	if err := g.Handle(msg.Body); err != nil {
		dedup.Forget(msg.Host, msg.Seq)
		hm.Unlock()
		return fmt.Errorf("handler: %w", err)
	}
	hm.Unlock()
	g.mu.Lock()
	g.handled++
	g.mu.Unlock()
	if err := cons.Ack(); err != nil {
		return err
	}
	if br := g.view.Breaker(k.addr); br != nil {
		br.Success()
	}
	return nil
}

// hostLock maps a host to its admission-ordering stripe.
func (g *Group) hostLock(host string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(host))
	return &g.hostMu[h.Sum32()%uint32(len(g.hostMu))]
}

// dedupTable resolves the shared dedup table.
func (g *Group) dedupTable() *Dedup {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.Dedup == nil {
		g.Dedup = NewDedup(0)
	}
	return g.Dedup
}

// dropsCounter resolves the dedup-drop counter.
func (g *Group) dropsCounter() *telemetry.Counter {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dedupDrops == nil {
		reg := g.Metrics
		if reg == nil {
			reg = telemetry.Default()
		}
		g.dedupDrops = reg.Counter("gostats_fabric_dedup_dropped_total",
			"Replicated or replayed frame copies dropped by (host, seq) dedup.")
	}
	return g.dedupDrops
}

// recordDelivery counts one delivery for (partition, owner) and
// refreshes the partition's replication-lag gauge: the spread between
// the most- and least-delivered owners of the partition since the last
// rebalance. A large sustained value means one replica is falling
// behind (or its broker is silently down).
func (g *Group) recordDelivery(k consumerKey) {
	m := g.view.Snapshot()
	owners := m.Owners(k.partition)
	g.mu.Lock()
	g.delivered++
	g.deliveredBy[k]++
	var min, max uint64
	first := true
	for _, o := range owners {
		n := g.deliveredBy[consumerKey{partition: k.partition, addr: o}]
		if first {
			min, max = n, n
			first = false
			continue
		}
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	gauge := g.lagGauges[k.partition]
	if gauge == nil {
		reg := g.Metrics
		if reg == nil {
			reg = telemetry.Default()
		}
		gauge = reg.Gauge("gostats_fabric_replication_lag",
			"Delivery-count spread between a partition's most- and least-caught-up owner brokers since the last rebalance.",
			"partition", fmt.Sprintf("%d", k.partition))
		g.lagGauges[k.partition] = gauge
	}
	g.mu.Unlock()
	gauge.Set(float64(max - min))
}

// brokerFailed feeds a consume failure into the broker's breaker; an
// opened breaker marks the broker dead, triggering the rebalance.
func (g *Group) brokerFailed(addr string) {
	br := g.view.Breaker(addr)
	if br == nil {
		return
	}
	br.Failure()
	if br.State() == broker.BreakerOpen {
		g.view.MarkDead(addr)
	}
}

// Start launches the group: consumers for the current map, reconciled
// on every map change. Returns immediately; Err() reports a fatal
// condition, Stop() shuts down.
func (g *Group) Start() {
	g.view.OnChange(func(m Map) { g.reconcile(m) })
	g.reconcile(g.view.Snapshot())
}

// Err returns the channel a fatal consumer error (restart budget
// exhausted against a live broker) is reported on.
func (g *Group) Err() <-chan error {
	return g.fatal
}

// Stop retires every consumer and waits for their loops to exit.
func (g *Group) Stop() {
	g.mu.Lock()
	g.stopped = true
	var all []*partConsumer
	for _, pc := range g.consumers {
		all = append(all, pc)
	}
	g.consumers = make(map[consumerKey]*partConsumer)
	g.mu.Unlock()
	for _, pc := range all {
		pc.retire()
	}
	g.wg.Wait()
}

// Stats reports the group's lifetime counters.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	delivered, handled, restarts := g.delivered, g.handled, g.restarts
	g.mu.Unlock()
	var deduped uint64
	if d := g.dedupTable(); d != nil {
		_, deduped = d.Stats()
	}
	return GroupStats{
		Delivered: delivered,
		Handled:   handled,
		Deduped:   deduped,
		Restarts:  restarts,
	}
}
