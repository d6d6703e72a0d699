package fabric

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"gostats/internal/broker"
	"gostats/internal/telemetry"
)

// View is the live, shared routing state of one fabric participant: the
// current partition map plus a circuit breaker per broker. Publishers
// and listener groups route every operation through a View; marking a
// broker dead or alive bumps the map version, which recomputes
// ownership everywhere the View is consulted — that version bump IS the
// rebalance.
//
// A View is safe for concurrent use and cheap to share: a simcluster
// run shares one View across ten thousand node publishers.
type View struct {
	mu       sync.Mutex
	m        Map
	pol      broker.Policy
	breakers map[string]*broker.Breaker
	onChange []func(Map)

	reg        *telemetry.Registry
	mapVersion *telemetry.Gauge
	failovers  map[string]*telemetry.Counter
	owned      map[string]*telemetry.Gauge

	proberStop chan struct{}
	proberDone chan struct{}

	// Dialer, when non-nil, replaces net.DialTimeout for the revival
	// prober — the seam for fault-injection tests.
	Dialer func(addr string) (net.Conn, error)
}

// NewView builds a View over m. pol supplies the per-broker breaker
// thresholds (zero fields take defaults); reg receives the fabric
// telemetry (nil uses telemetry.Default()).
func NewView(m Map, pol broker.Policy, reg *telemetry.Registry) *View {
	if reg == nil {
		reg = telemetry.Default()
	}
	v := &View{
		m:        m.Clone(),
		pol:      pol,
		breakers: make(map[string]*broker.Breaker, len(m.Brokers)),
		reg:      reg,
		mapVersion: reg.Gauge("gostats_fabric_map_version",
			"Version of the partition map this participant routes by. Mixed versions across a fleet mean a rebalance is propagating."),
		failovers: make(map[string]*telemetry.Counter, len(m.Brokers)),
		owned:     make(map[string]*telemetry.Gauge, len(m.Brokers)),
	}
	v.addMembersLocked()
	v.updateGaugesLocked()
	return v
}

// addMembersLocked creates the breaker and per-broker series for every
// member not yet known; callers hold v.mu (or own v exclusively).
func (v *View) addMembersLocked() {
	for _, b := range v.m.Brokers {
		if v.breakers[b] != nil {
			continue
		}
		v.breakers[b] = broker.NewBreaker(v.pol, v.reg.Gauge("gostats_publish_breaker_state",
			"Circuit breaker guarding this broker (0=closed, 1=open, 2=half-open).", "broker", b))
		v.failovers[b] = v.reg.Counter("gostats_fabric_failovers_total",
			"Times this broker was marked dead and its partitions failed over.", "broker", b)
		v.owned[b] = v.reg.Gauge("gostats_fabric_partitions_owned",
			"Partitions this broker is the primary owner of under the current map.", "broker", b)
	}
}

// updateGaugesLocked refreshes the version and ownership gauges from
// the current map; callers hold v.mu.
func (v *View) updateGaugesLocked() {
	v.mapVersion.Set(float64(v.m.Version))
	for b, n := range v.m.PrimaryCount() {
		if g, ok := v.owned[b]; ok {
			g.Set(float64(n))
		}
	}
}

// notifyLocked snapshots the change callbacks and map under the lock,
// then fires outside it (callbacks may call back into the View).
func (v *View) notifyLocked() func() {
	if len(v.onChange) == 0 {
		return func() {}
	}
	fns := make([]func(Map), len(v.onChange))
	copy(fns, v.onChange)
	m := v.m.Clone()
	return func() {
		for _, fn := range fns {
			fn(m)
		}
	}
}

// OnChange registers fn to run (with a copy of the new map) after every
// version bump — the hook listener groups use to reconcile consumers.
func (v *View) OnChange(fn func(Map)) {
	v.mu.Lock()
	v.onChange = append(v.onChange, fn)
	v.mu.Unlock()
}

// Snapshot returns a copy of the current map.
func (v *View) Snapshot() Map {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m.Clone()
}

// Version returns the current map version.
func (v *View) Version() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m.Version
}

// Policy returns the transport policy the View's breakers run under —
// the one every participant sharing the View dials and backs off by.
func (v *View) Policy() broker.Policy { return v.pol }

// Metrics returns the registry the View's fabric telemetry lands in;
// participants built over the View report there too.
func (v *View) Metrics() *telemetry.Registry { return v.reg }

// Breaker returns the circuit breaker guarding addr (nil for a broker
// not in the membership).
func (v *View) Breaker(addr string) *broker.Breaker {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.breakers[addr]
}

// MarkDead records addr as down: it is removed from every partition's
// owner set and the map version bumps so all routing recomputes. No-op
// for an unknown or already-dead address, and for the last live
// broker: with nowhere to fail over to, routing stays on it and its
// breaker alone gates traffic — the half-open probe resumes delivery
// the moment it answers, instead of waiting on the revival prober (a
// fabric of one recovers from an outage at breaker speed). Reports
// whether the map changed.
func (v *View) MarkDead(addr string) bool {
	v.mu.Lock()
	known := false
	for _, b := range v.m.Brokers {
		if b == addr {
			known = true
			break
		}
	}
	if !known || v.m.IsDead(addr) || len(v.m.Alive()) <= 1 {
		v.mu.Unlock()
		return false
	}
	v.m.Dead = append(v.m.Dead, addr)
	sort.Strings(v.m.Dead)
	v.m.Version++
	if c, ok := v.failovers[addr]; ok {
		c.Inc()
	}
	v.updateGaugesLocked()
	fire := v.notifyLocked()
	v.mu.Unlock()
	fire()
	return true
}

// MarkAlive records addr as back up: it rejoins the owner sets and the
// map version bumps. The broker's breaker is reset so traffic flows
// immediately. Reports whether the map changed.
func (v *View) MarkAlive(addr string) bool {
	v.mu.Lock()
	idx := -1
	for i, d := range v.m.Dead {
		if d == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		v.mu.Unlock()
		return false
	}
	v.m.Dead = append(v.m.Dead[:idx], v.m.Dead[idx+1:]...)
	v.m.Version++
	if b, ok := v.breakers[addr]; ok {
		b.Success()
	}
	v.updateGaugesLocked()
	fire := v.notifyLocked()
	v.mu.Unlock()
	fire()
	return true
}

// Adopt replaces the view's map when m is a strictly newer revision of
// the same cluster (higher version), as learned from a broker ack or a
// bootstrap fetch. Breakers for newly-seen brokers are created; stale
// or foreign maps are ignored. Reports whether the map was adopted.
func (v *View) Adopt(m Map) bool {
	v.mu.Lock()
	if m.Version <= v.m.Version || m.Partitions != v.m.Partitions {
		v.mu.Unlock()
		return false
	}
	v.m = m.Clone()
	v.addMembersLocked()
	v.updateGaugesLocked()
	fire := v.notifyLocked()
	v.mu.Unlock()
	fire()
	return true
}

// Provider adapts the View to broker.Server.MapProvider: the broker
// hands out this view's current map on the codec handshake and stamps
// its version on every publish ack.
func (v *View) Provider() func() (uint64, []byte) {
	return func() (uint64, []byte) {
		m := v.Snapshot()
		return m.Version, m.Encode()
	}
}

// Bootstrap resolves the partition map a daemon routes by from the
// broker addresses it was given, asking each in turn. A fabric member
// serves its map; the first answer wins. A single address that is a
// standalone broker (brokerd without -peers answers ErrNoMap) or that
// cannot be reached yet runs as a fabric of one: the map is built here,
// NewMap([addr], DefaultPartitions, 1), because a standalone broker does
// not know the address it is reached at — and a node daemon must be
// able to start, and spool, while its only broker is down. List every
// member of a multi-broker fabric: a lone member that is down at start
// is indistinguishable from a standalone broker.
func Bootstrap(brokers []string) (Map, error) {
	var lastErr error
	for _, addr := range brokers {
		c, err := broker.DialTimeout(addr, broker.DefaultPolicy().DialTimeout)
		if err == nil {
			var payload []byte
			_, payload, err = c.FetchMap()
			c.Close()
			if err == nil {
				return DecodeMap(payload)
			}
		}
		if len(brokers) == 1 && (errors.Is(err, broker.ErrNoMap) || isDialError(err)) {
			return NewMap(brokers, DefaultPartitions, 1), nil
		}
		lastErr = fmt.Errorf("broker %s: %w", addr, err)
	}
	return Map{}, fmt.Errorf("fabric: no broker served a partition map: %w", lastErr)
}

// isDialError reports whether err is a failure to connect at all (as
// opposed to a broker that answered wrongly).
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// dial opens a probe connection under the policy dial deadline.
func (v *View) dial(addr string) (net.Conn, error) {
	if v.Dialer != nil {
		return v.Dialer(addr)
	}
	pol := v.pol
	if pol.DialTimeout <= 0 {
		pol = broker.DefaultPolicy()
	}
	return net.DialTimeout("tcp", addr, pol.DialTimeout)
}

// StartProber begins periodically probing dead brokers; a successful
// dial marks the broker alive again (rebalancing its partitions back).
// Call Close to stop it.
func (v *View) StartProber(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	v.mu.Lock()
	if v.proberStop != nil {
		v.mu.Unlock()
		return
	}
	v.proberStop = make(chan struct{})
	v.proberDone = make(chan struct{})
	stop, done := v.proberStop, v.proberDone
	v.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			for _, addr := range v.Snapshot().Dead {
				conn, err := v.dial(addr)
				if err != nil {
					continue
				}
				conn.Close()
				v.MarkAlive(addr)
			}
		}
	}()
}

// Close stops the prober, if running.
func (v *View) Close() {
	v.mu.Lock()
	stop, done := v.proberStop, v.proberDone
	v.proberStop, v.proberDone = nil, nil
	v.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
