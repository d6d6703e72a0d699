package fabric

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gostats/internal/broker"
	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/schema"
	"gostats/internal/spool"
	"gostats/internal/telemetry"
	"gostats/internal/trace"
)

// publisherMetrics are the node publish telemetry series, labelled
// queue="fabric" whatever the broker count, plus the fabric-specific
// reroute counter. Breaker state is per broker and lives on the View.
type publisherMetrics struct {
	publishSeconds *telemetry.Histogram
	published      *telemetry.Counter
	reconnects     *telemetry.Counter
	spooled        *telemetry.Counter
	replayed       *telemetry.Counter
	rerouted       *telemetry.Counter
	dropped        *telemetry.Counter
	bytesOnWire    *telemetry.Counter
}

func newPublisherMetrics(reg *telemetry.Registry) *publisherMetrics {
	return &publisherMetrics{
		publishSeconds: reg.Histogram("gostats_publish_seconds",
			"Time to publish one snapshot to every owner broker, including retry rounds and redials.",
			telemetry.LatencyBuckets, "queue", "fabric"),
		published: reg.Counter("gostats_publish_total",
			"Snapshots successfully published to the broker.", "queue", "fabric"),
		reconnects: reg.Counter("gostats_publish_reconnects_total",
			"Broker redials after a dropped connection.", "queue", "fabric"),
		spooled: reg.Counter("gostats_publish_spooled_total",
			"Snapshots diverted to the durable spool after publish failure.",
			"queue", "fabric"),
		replayed: reg.Counter("gostats_publish_replayed_total",
			"Spooled snapshots successfully replayed to the broker.",
			"queue", "fabric"),
		rerouted: reg.Counter("gostats_spool_replay_rerouted_total",
			"Spooled snapshots whose replay went to a different owner set than the one they were spooled against (the owner died and the partition moved)."),
		dropped: reg.Counter("gostats_publish_dropped_total",
			"Snapshots lost for good: publish failed with no spool, or the spool refused the snapshot, or a spooled snapshot no longer encodes for the wire.",
			"queue", "fabric"),
		bytesOnWire: reg.Counter("gostats_publish_bytes_total",
			"Encoded snapshot bytes delivered to brokers (each replica copy counted).",
			"queue", "fabric"),
	}
}

// PublisherStats are the lifetime counters of one fabric Publisher.
type PublisherStats struct {
	Published   int   // snapshots confirmed by every owner (live path)
	Redials     int   // reconnects to a broker after a dropped connection
	Spooled     int   // snapshots diverted to the durable spool
	Replayed    int   // spooled snapshots later delivered by the drainer
	Rerouted    int   // replays that went to a different owner set than spooled against
	Dropped     int   // snapshots lost for good (no spool, or spool failed)
	BytesOnWire int64 // encoded bytes delivered (each replica copy counted)
}

// Publisher is the node daemon's snapshot publisher — the one transport
// of daemon mode, whether the fabric has one broker or many. It serves
// exactly one host: it resolves the host to a partition and publishes
// each frame — stamped with its (host, seq) dedup identity — to every
// owner broker with confirmed delivery. Many publishers (one per host)
// may share one View and one ClientPool, which pools the connections.
//
// A publish only succeeds when ALL current owners confirm: accepting
// fewer would let the one confirming broker die with the only copy,
// which is exactly the loss the replication factor exists to prevent.
// Anything short of full confirmation lands in the host's durable
// spool, whose drainer replays in order through the *current* map —
// frames spooled against a dead broker drain to the partition's new
// owners.
//
// Failure handling is per broker: each owner is guarded by the shared
// View's circuit breaker, which fails publishes fast while the broker
// is down (one probe per breaker window, no dials in between). A
// breaker opening marks the broker dead in the View, bumping the map
// version and rebalancing ownership for every participant sharing it —
// unless it is the last live broker, which the breaker alone gates.
type Publisher struct {
	view *View
	pool *ClientPool

	// Codec/Registry select the wire encoding (NewPublisher sets
	// codec.V1Text and schema.DefaultRegistry()). Set before the first
	// publish.
	Codec    codec.Version
	Registry *schema.Registry

	// Trace, if set, stamps publish and spool-replay hops.
	Trace *trace.Recorder

	// Metrics selects the registry fabric telemetry lands in (nil uses
	// telemetry.Default()). Set before the first publish.
	Metrics *telemetry.Registry

	// RetryRounds is how many times one publish recomputes owners and
	// retries after a failure (default 2), with the policy backoff
	// before each round. Owners that already confirmed may receive the
	// frame again; dedup absorbs that.
	RetryRounds int

	mu  sync.Mutex
	met *publisherMetrics

	sp        *spool.Spool
	spoolMeta map[dedupKey]string // owner fingerprint at spool time, for the reroute counter
	drainWake chan struct{}
	drainStop chan struct{}
	drainDone chan struct{}

	published   int
	redials     int
	spooled     int
	replayed    int
	rerouted    int
	dropped     int
	bytesOnWire int64
}

// NewPublisher builds a publisher routing through view, sharing
// connections from pool.
func NewPublisher(view *View, pool *ClientPool) *Publisher {
	return &Publisher{view: view, pool: pool, spoolMeta: make(map[dedupKey]string),
		Codec: codec.V1Text, Registry: schema.DefaultRegistry()}
}

// metrics resolves the telemetry series; callers hold p.mu.
func (p *Publisher) metrics() *publisherMetrics {
	if p.met == nil {
		reg := p.Metrics
		if reg == nil {
			reg = telemetry.Default()
		}
		p.met = newPublisherMetrics(reg)
	}
	return p.met
}

// AttachSpool arms the durable fallback: snapshots that cannot be
// delivered are appended to sp instead of dropped, and a background
// drainer replays the backlog in order whenever the owners are back.
// sp must be this publisher's host's own spool (spool.Append refuses
// other hosts). Call before the first publish; the publisher does not
// close the spool.
func (p *Publisher) AttachSpool(sp *spool.Spool) {
	p.mu.Lock()
	if p.sp != nil || sp == nil {
		p.mu.Unlock()
		return
	}
	p.sp = sp
	stop, wake, done := make(chan struct{}), make(chan struct{}, 1), make(chan struct{})
	p.drainStop, p.drainWake, p.drainDone = stop, wake, done
	p.mu.Unlock()
	// The loop gets its channels here, not from p under the lock once it
	// runs: a Close that got there first has already cleared drainStop.
	go p.drainLoop(stop, wake, done)
	if sp.Depth() > 0 {
		p.wakeDrainer()
	}
}

// ownersFingerprint is the comparable identity of an owner set.
func ownersFingerprint(owners []string) string {
	return strings.Join(owners, ",")
}

// publishReplicated delivers one frame to every owner of host's
// partition, confirmed. It retries across map recomputations: a broker
// failure feeds its breaker, an opened breaker marks the broker dead in
// the view, and the next round resolves owners under the bumped map.
// Returns the owner fingerprint that confirmed on success, and —
// success or not — the fingerprint of the FIRST owner set attempted:
// the routing the frame was originally bound for, which is what a
// spool record must remember for the reroute counter (by the time the
// frame spools, the failing owner may already be marked dead and the
// map rebalanced).
//
// When every failing owner's circuit is open and the map did not move,
// no retry round can succeed before the breaker window ends: the
// publish fails fast instead of sleeping through the rounds.
func (p *Publisher) publishReplicated(body []byte, host string, seq uint64) (fp, firstFP string, err error) {
	p.mu.Lock()
	timer := p.metrics().publishSeconds.Start()
	p.mu.Unlock()
	defer timer.Stop()
	rounds := p.RetryRounds
	if rounds <= 0 {
		rounds = 2
	}
	var lastErr error
	for round := 0; round <= rounds; round++ {
		if round > 0 {
			backoffSleep(p.view.pol, round)
		}
		m := p.view.Snapshot()
		part, owners := m.OwnersOfHost(host)
		if round == 0 {
			firstFP = ownersFingerprint(owners)
		}
		if len(owners) == 0 {
			lastErr = fmt.Errorf("fabric: no live broker owns partition %d", part)
			continue
		}
		queue := PartitionQueue(part)
		allOK, allOpen := true, true
		for _, owner := range owners {
			if err := p.publishOne(owner, queue, body, host, seq); err != nil {
				lastErr = fmt.Errorf("fabric: broker %s partition %d: %w", owner, part, err)
				allOK = false
				allOpen = allOpen && errors.Is(err, broker.ErrCircuitOpen)
			}
		}
		if allOK {
			return ownersFingerprint(owners), firstFP, nil
		}
		if allOpen && p.view.Version() == m.Version {
			break
		}
		// Partial confirms are not success: a confirmed-then-dead owner
		// would hold the only copy. Retry the full owner set under the
		// (possibly rebalanced) map; duplicates are absorbed by dedup.
	}
	return "", firstFP, lastErr
}

// publishOne delivers the frame to a single broker through its breaker.
func (p *Publisher) publishOne(owner, queue string, body []byte, host string, seq uint64) error {
	br := p.view.Breaker(owner)
	if br != nil && !br.Allow() {
		if br.State() == broker.BreakerOpen {
			p.view.MarkDead(owner)
		}
		return broker.ErrCircuitOpen
	}
	c, redialed, err := p.pool.Get(owner)
	if err != nil {
		p.brokerFailed(owner, br)
		return err
	}
	if redialed {
		p.mu.Lock()
		p.redials++
		p.metrics().reconnects.Inc()
		p.mu.Unlock()
	}
	if err := c.PublishConfirmedSeq(queue, body, host, seq); err != nil {
		// One lost connection is one broker failure, however many
		// publishers sharing it were mid-exchange: counting each would
		// trip the shared breaker on a single reset.
		if p.pool.Invalidate(owner, c) {
			p.brokerFailed(owner, br)
		}
		return err
	}
	if br != nil {
		br.Success()
	}
	p.adoptNewer(c)
	return nil
}

// brokerFailed records a failure against owner's breaker; an opened
// breaker marks the broker dead, rebalancing its partitions.
func (p *Publisher) brokerFailed(owner string, br *broker.Breaker) {
	if br == nil {
		return
	}
	br.Failure()
	if br.State() == broker.BreakerOpen {
		p.view.MarkDead(owner)
	}
}

// adoptNewer pulls the broker's map when its acks advertise a newer
// version than the view holds — how a publisher learns of a rebalance
// it didn't trigger itself.
func (p *Publisher) adoptNewer(c *broker.Client) {
	if c.MapVersion() <= p.view.Version() {
		return
	}
	_, payload, err := c.FetchMap()
	if err != nil {
		return
	}
	m, err := DecodeMap(payload)
	if err != nil {
		return
	}
	p.view.Adopt(m)
}

// Publish implements collect.Publisher: one snapshot, replicated to
// every owner of its host's partition. Without a spool, a snapshot
// that cannot reach full replication is dropped and counted — the
// daemon never blocks a collection cycle on a dead broker. With one, a
// snapshot that cannot reach full replication — or that arrives while
// a backlog is still replaying, so per-host ordering holds — is
// spooled instead of dropped. The wire body is encoded only for the
// network attempt; a spooled snapshot is encoded by the spool.
func (p *Publisher) Publish(s model.Snapshot) error {
	p.Trace.Stamp(&s, model.StagePublish)
	host, seq := s.Host, SeqOf(s)
	p.mu.Lock()
	if p.sp != nil && p.sp.Depth() > 0 {
		// Live publishes must not overtake the spooled backlog; record
		// today's routing so the replay can tell if it moved.
		m := p.view.Snapshot()
		_, owners := m.OwnersOfHost(host)
		err := p.spoolLocked(s, host, seq, ownersFingerprint(owners))
		p.mu.Unlock()
		p.wakeDrainer()
		return err
	}
	p.mu.Unlock()
	body, err := broker.EncodeSnapshotWire(s, p.Registry, p.Codec)
	if err != nil {
		return err
	}
	// The replicated publish blocks on network confirms; it must not
	// hold p.mu (the drainer and stats would stall behind it).
	_, firstFP, perr := p.publishReplicated(body, host, seq)
	p.mu.Lock()
	if perr == nil {
		p.published++
		p.metrics().published.Inc()
		p.bytesOnWire += int64(len(body))
		p.metrics().bytesOnWire.Add(uint64(len(body)))
		p.mu.Unlock()
		return nil
	}
	if p.sp == nil {
		p.dropped++
		p.metrics().dropped.Inc()
		p.mu.Unlock()
		return perr
	}
	err = p.spoolLocked(s, host, seq, firstFP)
	// Wake outside the lock (wakeDrainer re-acquires it), synchronously:
	// the old `go p.wakeDrainer()` here left an unjoined goroutine
	// behind every spooled publish.
	p.mu.Unlock()
	p.wakeDrainer()
	return err
}

// spoolLocked appends one undeliverable snapshot to the spool and
// records the owner set it was routed to when delivery failed, so the
// drainer can tell a rerouted replay from a plain retry. Callers hold
// p.mu.
func (p *Publisher) spoolLocked(s model.Snapshot, host string, seq uint64, fp string) error {
	if err := p.sp.Append(s); err != nil {
		p.dropped++
		p.metrics().dropped.Inc()
		return fmt.Errorf("fabric: spool append failed: %w", err)
	}
	p.spoolMeta[dedupKey{host: host, seq: seq}] = fp
	p.spooled++
	p.metrics().spooled.Inc()
	return nil
}

// wakeDrainer nudges the background drainer without blocking.
func (p *Publisher) wakeDrainer() {
	p.mu.Lock()
	wake := p.drainWake
	p.mu.Unlock()
	if wake == nil {
		return
	}
	select {
	case wake <- struct{}{}:
	default:
	}
}

// drainLoop replays the spool backlog whenever woken or on a backoff
// schedule after a failed replay; exits when stop closes, then closes
// done.
func (p *Publisher) drainLoop(stop, wake <-chan struct{}, done chan struct{}) {
	defer close(done)
	failures := 0
	for {
		var retry <-chan time.Time
		if p.sp.Depth() > 0 {
			// Backlog remains: retry after a bounded backoff. A timer
			// channel, not a spawned sleeper goroutine — the old sleeper
			// outlived Close by up to the whole backoff.
			retry = time.After(backoffDelay(p.view.pol, failures+1))
		}
		select {
		case <-stop:
			return
		case <-wake:
		case <-retry:
		}
		// Backoff grows only across rounds that make no progress: a
		// round that replayed something before failing proves the path
		// works, so the next one retries promptly.
		n, err := p.sp.Drain(p.replayOne)
		if n > 0 {
			failures = 0
		}
		if err != nil {
			failures++
		}
	}
}

// replayOne delivers one spooled snapshot through the CURRENT map —
// not the owner set it was spooled against. A replay whose owner set
// changed in between is counted as rerouted: the partition failed over
// while the frame sat on disk. Returning an error stops the drain with
// the remainder intact.
func (p *Publisher) replayOne(s model.Snapshot) error {
	p.Trace.Stamp(&s, model.StageSpoolReplay)
	body, err := broker.EncodeSnapshotWire(s, p.Registry, p.Codec)
	if err != nil {
		// An encode failure is permanent (the snapshot no longer fits
		// the registry); retrying would wedge the whole backlog behind
		// this one frame. Abandon it, counted as dropped.
		p.mu.Lock()
		p.dropped++
		p.metrics().dropped.Inc()
		p.mu.Unlock()
		return spool.ErrSkip
	}
	host, seq := s.Host, SeqOf(s)
	fp, _, err := p.publishReplicated(body, host, seq)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := dedupKey{host: host, seq: seq}
	// A missing record means the spool survived a process restart; the
	// original owner set is unknown, so the reroute counter stays put.
	if was, ok := p.spoolMeta[k]; ok {
		delete(p.spoolMeta, k)
		if was != fp {
			p.rerouted++
			p.metrics().rerouted.Inc()
		}
	}
	p.replayed++
	p.metrics().replayed.Inc()
	p.bytesOnWire += int64(len(body))
	p.metrics().bytesOnWire.Add(uint64(len(body)))
	return nil
}

// Stats reports the delivery ledger.
func (p *Publisher) Stats() PublisherStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PublisherStats{
		Published:   p.published,
		Redials:     p.redials,
		Spooled:     p.spooled,
		Replayed:    p.replayed,
		Rerouted:    p.rerouted,
		Dropped:     p.dropped,
		BytesOnWire: p.bytesOnWire,
	}
}

// Close stops the drainer. The shared pool and view are NOT closed —
// other publishers may share them.
func (p *Publisher) Close() error {
	p.mu.Lock()
	stop, done := p.drainStop, p.drainDone
	p.drainStop = nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return nil
}
