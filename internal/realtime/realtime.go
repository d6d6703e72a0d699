// Package realtime implements the online-analysis side of daemon mode:
// the central consumer that watches the live snapshot stream, maintains
// per-host rates, and raises alerts for problem jobs before they create
// system-wide slowdowns (§VI-B). It can simultaneously archive the
// stream to the central raw store and feed the time-series database.
package realtime

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"gostats/internal/broker"
	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
	"gostats/internal/trace"
)

// Alert is one threshold violation observed in the live stream.
type Alert struct {
	Time      float64
	Host      string
	JobIDs    []string
	Rule      string
	Value     float64
	Threshold float64
}

// String renders the alert as an operator line.
func (a Alert) String() string {
	return fmt.Sprintf("[%.0f] %s %s: %.3g > %.3g (jobs %v)",
		a.Time, a.Host, a.Rule, a.Value, a.Threshold, a.JobIDs)
}

// Rule is a per-host rate threshold on one device event, summed over the
// class's instances.
type Rule struct {
	Name      string
	Class     schema.Class
	Event     string
	Threshold float64 // rate/s above which to alert
}

// DefaultRules returns the paper's motivating online checks: metadata
// storms and Ethernet-MPI, the two behaviours administrators most want
// to catch while the job is still running.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "high_metadata_rate", Class: schema.ClassMDC, Event: schema.EvMDCReqs, Threshold: 10000},
		{Name: "gige_mpi", Class: schema.ClassNet, Event: schema.EvNetTxBytes, Threshold: 5e6},
		{Name: "lustre_bw_saturation", Class: schema.ClassLnet, Event: schema.EvLnetRxBytes, Threshold: 1e9},
	}
}

// Monitor evaluates rules over the live stream. Safe for concurrent use.
//
// A rule's rate is the summed delta of its event over the class's
// instances, divided by the time since the host's previous snapshot.
// Per host and per rule the monitor keeps a reused map from instance to
// the event's value in that previous snapshot — not the snapshot — so
// folding one copies nothing and, once a host's instances are known,
// allocates nothing. The current records fold in order; an instance
// that appears twice counts twice against the previous value, and its
// last occurrence is what the next snapshot sees; an instance missing
// from a snapshot is forgotten. A snapshot that does not advance the
// host's time raises nothing but still replaces the previous values.
type Monitor struct {
	mu    sync.Mutex
	rules []monRule
	hosts map[string][]eventVals // host -> per-rule previous values
	seen  map[string]float64     // host -> last snapshot time

	// Notify, if set, is invoked synchronously for every alert (the
	// "system administrator notified immediately" hook).
	Notify func(Alert)

	alerts []Alert
}

// monRule is a Rule resolved against the registry once: idx is the
// event's column in the class's schema, or -1 when the registry lacks
// the class or the event (the rule then never fires).
type monRule struct {
	Rule
	idx int
	def schema.EventDef
}

// eventVals holds one rule's event values per instance for one host:
// prev from the previous snapshot, next filled by the current one, the
// two swapped after each snapshot so neither is reallocated.
type eventVals struct {
	prev, next map[string]uint64
}

// NewMonitor builds a monitor for streams collected under reg.
func NewMonitor(reg *schema.Registry, rules []Rule) *Monitor {
	m := &Monitor{
		hosts: make(map[string][]eventVals),
		seen:  make(map[string]float64),
	}
	for _, r := range rules {
		mr := monRule{Rule: r, idx: -1}
		if sch := reg.Get(r.Class); sch != nil {
			if mr.idx = sch.Index(r.Event); mr.idx >= 0 {
				mr.def = sch.Events[mr.idx]
			}
		}
		m.rules = append(m.rules, mr)
	}
	return m
}

// Process folds one snapshot and returns any alerts it raised.
func (m *Monitor) Process(s model.Snapshot) []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	prevTime, ok := m.seen[s.Host]
	m.seen[s.Host] = s.Time
	vals := m.hosts[s.Host]
	if vals == nil {
		vals = make([]eventVals, len(m.rules))
		for i := range vals {
			vals[i] = eventVals{prev: map[string]uint64{}, next: map[string]uint64{}}
		}
		m.hosts[s.Host] = vals
	}
	advancing := ok && !(s.Time <= prevTime) // not s.Time > prevTime: a NaN time advances
	dt := s.Time - prevTime
	var out []Alert
	for i := range m.rules {
		r := &m.rules[i]
		if r.idx < 0 {
			continue
		}
		total, found := vals[i].fold(s.Records, r, advancing)
		if !advancing || !found {
			continue
		}
		rate := total / dt
		if rate <= r.Threshold {
			continue
		}
		a := Alert{Time: s.Time, Host: s.Host, JobIDs: append([]string(nil), s.JobIDs...),
			Rule: r.Name, Value: rate, Threshold: r.Threshold}
		out = append(out, a)
		m.alerts = append(m.alerts, a)
		if m.Notify != nil {
			m.Notify(a)
		}
	}
	return out
}

// fold records the current snapshot's values of r's event and, when
// the snapshot advances the host's time, sums each instance's delta
// against its previous value, in record order. found reports whether
// any instance had a previous value.
func (v *eventVals) fold(recs []model.Record, r *monRule, advancing bool) (total float64, found bool) {
	clear(v.next)
	for _, rec := range recs {
		if rec.Class != r.Class {
			continue
		}
		if r.idx >= len(rec.Values) {
			delete(v.next, rec.Instance) // a short record: no value to rate
			continue
		}
		cur := rec.Values[r.idx]
		v.next[rec.Instance] = cur
		if pv, ok := v.prev[rec.Instance]; ok && advancing {
			total += float64(schema.RolloverDelta(pv, cur, r.def))
			found = true
		}
	}
	v.prev, v.next = v.next, v.prev
	return total, found
}

// Alerts returns a copy of every alert raised so far.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// SilentHosts returns hosts not heard from since the cutoff — the
// node-death detector cron mode fundamentally cannot provide same-day.
func (m *Monitor) SilentHosts(cutoff float64) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for h, t := range m.seen {
		if t < cutoff {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// listenMetrics are the central consumer's telemetry series.
type listenMetrics struct {
	snapshots    *telemetry.Counter
	decodeFails  *telemetry.Counter
	alerts       *telemetry.Counter
	drainLag     *telemetry.Gauge
	storeSeconds *telemetry.Histogram
}

func newListenMetrics(reg *telemetry.Registry) *listenMetrics {
	return &listenMetrics{
		snapshots: reg.Counter("gostats_listen_snapshots_total",
			"Snapshots consumed from the broker."),
		decodeFails: reg.Counter("gostats_listen_decode_failures_total",
			"Corrupt messages dropped by the listener."),
		alerts: reg.Counter("gostats_listen_alerts_total",
			"Online threshold alerts raised from the live stream."),
		drainLag: reg.Gauge("gostats_listen_drain_lag_seconds",
			"Newest snapshot time seen minus the snapshot being processed — how far the listener trails the stream."),
		storeSeconds: reg.Histogram("gostats_listen_store_write_seconds",
			"Time to archive one snapshot into the central raw store.",
			telemetry.LatencyBuckets),
	}
}

// Ingester commits one snapshot to the time-series database;
// *tsdb.Ingester is the daemons' one.
type Ingester interface {
	Ingest(model.Snapshot) error
}

// Listener fans each decoded snapshot into the monitor, the central
// store, and the time-series ingester (any of which may be nil). It is
// the core of the daemon-mode "listend" process; internal/node
// composes it behind a fabric group.
type Listener struct {
	Cons    *broker.Consumer
	Monitor *Monitor
	Store   *rawfile.Store
	Headers func(host string) rawfile.Header // required when Store is set
	Ingest  Ingester

	// Registry resolves classes when decoding versioned wire messages
	// (the binary codec is dictionary-encoded against it, so the
	// consumer must share the producer's schema). Nil uses
	// schema.DefaultRegistry().
	Registry *schema.Registry

	// OnDecoded, if set, observes the wire codec and encoded size of
	// every successfully decoded message (bytes-on-wire accounting).
	OnDecoded func(v codec.Version, wireBytes int)

	// OnSnapshot, if set, observes every snapshot (tests, metrics).
	OnSnapshot func(model.Snapshot)

	// Metrics selects the registry listener telemetry lands in; set
	// before Run. Nil uses telemetry.Default().
	Metrics *telemetry.Registry

	// Trace, if set, stamps the broker-deliver, archive, and
	// store-ingest hops on every decoded snapshot and maintains the
	// per-host freshness gauges (a snapshot becomes "queryable" when it
	// is archived or ingested). Set before Run.
	Trace *trace.Recorder

	processed atomic.Int64
	stopping  atomic.Bool
	inflight  sync.Mutex // held while one message is processed and acked
	initOnce  sync.Once
	met       *listenMetrics
	arch      *rawfile.Archiver
	maxSeen   float64 // written only inside the decode step

	// The ordered steps (see stages.go): decode → archive → ingest →
	// assemble, each run under its own lock on the caller's goroutine.
	steps    [numSteps]step
	closed   bool          // set by Close with every step locked
	fatal    chan struct{} // closed on the first step error
	fatalErr error         // written once, before fatal closes
	failOnce sync.Once
}

// init resolves the metrics and archiver once, whichever entry point
// (Run or HandleBody) reaches them first.
func (l *Listener) init() {
	l.initOnce.Do(func() {
		reg := l.Metrics
		if reg == nil {
			reg = telemetry.Default()
		}
		l.met = newListenMetrics(reg)
		if l.Store != nil {
			// Route archive writes through a cached-encoder archiver: the
			// per-(host,day) file stays open across snapshots, so the binary
			// codec's delta and dictionary state persists instead of being
			// re-seeded by a fresh header every append.
			l.arch = rawfile.NewArchiver(l.Store, 0)
		}
		l.fatal = make(chan struct{})
		for k := range l.steps {
			l.steps[k].init(reg, listenSteps[k].name)
		}
	})
}

// Processed reports how many snapshots the listener has consumed. Safe
// to call while Run is executing.
func (l *Listener) Processed() int { return int(l.processed.Load()) }

// Run consumes Cons until the broker closes (io.EOF), Shutdown is
// called, or a fatal error occurs. It is not how the daemons consume —
// they run a fabric group over HandleBody, composed by internal/node —
// and stays only as the benchmark's serial-ack entry point (perfbench
// drains one plain queue through it) until the benchmark composes the
// node too. Each message is fully processed — archived,
// monitored, ingested — BEFORE it is acknowledged, so a listener crash
// mid-message costs a redelivery, never a lost snapshot. The steps
// (stages.go) run on Run's goroutine. When Run returns it closes the
// listener, so everything consumed is flushed.
func (l *Listener) Run() error {
	l.init()
	defer l.Close()
	for {
		body, err := l.Cons.NextNoAck()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if l.stopping.Load() {
				return nil // Shutdown closed the connection under us
			}
			return err
		}
		l.inflight.Lock()
		if l.stopping.Load() {
			// Read ahead of a Shutdown that has since closed the
			// connection: left unacked, it is redelivered.
			l.inflight.Unlock()
			return nil
		}
		err = l.handle(body)
		var ackErr error
		if err == nil {
			ackErr = l.Cons.Ack()
		}
		l.inflight.Unlock()
		if err != nil {
			// Not acked: the message redelivers once we disconnect, so a
			// sink failure never loses the snapshot.
			return err
		}
		if l.stopping.Load() {
			// Ack failures while stopping mean the shutdown path closed
			// the connection first; the message was processed and will be
			// redelivered — at-least-once, not lost.
			return nil
		}
		if ackErr != nil {
			return ackErr
		}
	}
}

// Fatal is closed when a step fails — a sink error that makes every
// further HandleBody return that error. HandleBody-based transports
// (fabric groups) select on it to exit with FatalErr instead of
// retrying a dead listener forever; the Run path surfaces the same
// error through its return value.
func (l *Listener) Fatal() <-chan struct{} {
	l.init()
	return l.fatal
}

// FatalErr returns the first step error, or nil.
func (l *Listener) FatalErr() error {
	l.init()
	return l.failed()
}

// HandleBody fans one raw wire message into the configured sinks on
// the caller's goroutine — the entry point for transports that do their
// own consuming, like a fabric partition group feeding one listener
// from many partition queues. Each step runs one message at a time and
// callers pass from step to step hand over hand, so the archiver,
// monitor, ingester, and assembler see the snapshots in one order, the
// order they entered decode, while concurrent calls for different
// hosts overlap in different steps. The call returns once the message
// has cleared every sink; callers ack on nil. After a step error it
// returns that error, and after Close ErrClosed.
func (l *Listener) HandleBody(body []byte) error {
	l.init()
	return l.handle(body)
}

// Shutdown stops the listener gracefully: it waits for the in-flight
// message (if any) to finish processing and be acknowledged, then closes
// the broker connection so a blocked Run returns nil. The store is
// written synchronously per message, so when Run returns everything
// consumed is durably archived. Safe to call from a signal handler
// goroutine.
func (l *Listener) Shutdown() {
	l.stopping.Store(true)
	l.inflight.Lock()
	if l.Cons != nil {
		l.Cons.Close()
	}
	l.inflight.Unlock()
}

// Close waits for in-flight messages by taking the step locks in order,
// refuses every later HandleBody with ErrClosed, then flushes and
// closes the archiver. Run-based listeners do this when Run returns;
// HandleBody-based transports (fabric groups) must call Close after
// stopping the group. Idempotent.
func (l *Listener) Close() error {
	l.init()
	l.inflight.Lock()
	defer l.inflight.Unlock()
	for k := range l.steps {
		l.steps[k].mu.Lock()
		defer l.steps[k].mu.Unlock()
	}
	l.closed = true
	if l.arch == nil {
		return nil
	}
	err := l.arch.Close()
	l.arch = nil
	return err
}
