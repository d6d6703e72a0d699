// Package node is the daemon-mode composition root (Fig 2): the two
// deployable parts of a gostats fleet, built one way for every caller.
// An Agent is one host's publishing side (tacc_statsd); an Ingest is one
// member of the central consumer group (listend). The daemons, the
// simulated cluster, the E4 experiment and the examples all assemble
// their daemon-mode pipeline from these two constructors, so what the
// audits certify is what ships.
//
// Both are built over a *fabric.View, which carries the partition map,
// the transport policy and the telemetry registry every part of one
// participant shares. The caller owns the View (bootstrap, prober,
// Close); a node never closes it.
package node

import (
	"fmt"
	"net"
	"sync"
	"time"

	"gostats/internal/chip"
	"gostats/internal/codec"
	"gostats/internal/fabric"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/realtime"
	"gostats/internal/segstore"
	"gostats/internal/spool"
	"gostats/internal/trace"
	"gostats/internal/tsdb"
)

// compactEvery is how often the ingest node's segment store runs its
// background compaction pass.
const compactEvery = time.Minute

// IngestConfig places one ingest node.
type IngestConfig struct {
	// StoreDir is the central raw store directory.
	StoreDir string
	// Codec is the archive codec for new store files (zero keeps the
	// store's default).
	Codec codec.Version
	// Fleet is the node type the fleet runs: it supplies the schema the
	// stream decodes against and the Arch of every archive header.
	Fleet chip.NodeConfig

	// DataDir, when set, opens a durable segment store there behind a
	// time-series database every snapshot is folded into; empty keeps
	// the node to the raw archive.
	DataDir string
	// Segments tunes the segment store (its Metrics come from the View).
	Segments segstore.Options
	// HotWindow is how many seconds of recent history the time-series
	// database keeps in RAM in front of the segment store.
	HotWindow float64

	// GroupIndex/GroupCount place this node in the listener group: it
	// consumes the partitions where p % GroupCount == GroupIndex.
	GroupIndex, GroupCount int

	// Notify, if set, receives every online monitor alert.
	Notify func(realtime.Alert)
	// Trace, if set, stamps the listener's hops and keeps the per-host
	// freshness gauges.
	Trace *trace.Recorder
	// OnSnapshot, if set, is the listener's snapshot tap: it observes
	// every archived snapshot once, in delivery order per host.
	OnSnapshot func(model.Snapshot)
}

// Ingest is one running listend: a fabric group member feeding the
// listener's ordered steps — decode → monitor and archive → ingest →
// tap.
type Ingest struct {
	Store    *rawfile.Store
	Monitor  *realtime.Monitor
	Segments *segstore.Store // nil without DataDir
	TSDB     *tsdb.DB        // nil without DataDir

	listener *realtime.Listener
	group    *fabric.Group
	err      chan error
	done     chan struct{} // closed by Stop: the watcher exits
	watched  chan struct{} // closed when the watcher has exited

	stopOnce, closeOnce sync.Once
	stopErr, closeErr   error
}

// NewIngest opens the node's stores and starts consuming its share of
// the View's partitions.
func NewIngest(view *fabric.View, cfg IngestConfig) (*Ingest, error) {
	if cfg.GroupCount <= 0 {
		cfg.GroupCount = 1
	}
	if cfg.GroupIndex < 0 || cfg.GroupIndex >= cfg.GroupCount {
		return nil, fmt.Errorf("node: group index %d out of range for group count %d", cfg.GroupIndex, cfg.GroupCount)
	}
	store, err := rawfile.NewStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	if cfg.Codec != codec.VersionUnknown {
		store.SetCodec(cfg.Codec)
	}
	reg := cfg.Fleet.Registry()
	n := &Ingest{
		Store:   store,
		Monitor: realtime.NewMonitor(reg, realtime.DefaultRules()),
		err:     make(chan error, 1),
		done:    make(chan struct{}),
		watched: make(chan struct{}),
	}
	n.Monitor.Notify = cfg.Notify
	n.listener = &realtime.Listener{
		Monitor:  n.Monitor,
		Store:    store,
		Registry: reg,
		Metrics:  view.Metrics(),
		Trace:    cfg.Trace,
		Headers: func(host string) rawfile.Header {
			return rawfile.Header{Hostname: host, Arch: string(cfg.Fleet.Desc.Arch), Registry: reg}
		},
		OnSnapshot: cfg.OnSnapshot,
	}
	if cfg.DataDir != "" {
		opts := cfg.Segments
		opts.Metrics = view.Metrics()
		cs, err := segstore.Open(cfg.DataDir, opts)
		if err != nil {
			return nil, fmt.Errorf("node: open segment store: %w", err)
		}
		db := tsdb.New()
		if err := db.AttachCold(cs, cfg.HotWindow); err != nil {
			cs.Close()
			return nil, fmt.Errorf("node: attach segment store: %w", err)
		}
		cs.StartBackground(compactEvery)
		n.Segments, n.TSDB = cs, db
		n.listener.Ingest = tsdb.NewIngester(db, reg)
	}
	n.group = fabric.NewGroup(view)
	n.group.Index, n.group.Count = cfg.GroupIndex, cfg.GroupCount
	n.group.Metrics = view.Metrics()
	n.group.Handle = n.listener.HandleBody
	n.group.Start()
	go n.watch()
	return n, nil
}

// watch forwards the first fatal condition — a consumer that keeps
// dying against a live broker, or a sink error that poisoned the
// listener — to Err until the node stops.
func (n *Ingest) watch() {
	defer close(n.watched)
	select {
	case err := <-n.group.Err():
		n.err <- err
	case <-n.listener.Fatal():
		n.err <- n.listener.FatalErr() // non-nil once Fatal is closed
	case <-n.done:
	}
}

// Err reports a fatal condition: after it fires the node can no longer
// archive and should be closed.
func (n *Ingest) Err() <-chan error { return n.err }

// Stats reports the group's lifetime counters.
func (n *Ingest) Stats() fabric.GroupStats { return n.group.Stats() }

// Stop ends ingest: the group stops consuming, the listener drains its
// in-flight snapshots and the archive is flushed and closed. The
// segment store and time-series database stay open for reads until
// Close. Idempotent; returns the archive's close error.
func (n *Ingest) Stop() error {
	n.stopOnce.Do(func() {
		n.group.Stop()
		n.stopErr = n.listener.Close()
		close(n.done)
		<-n.watched
	})
	return n.stopErr
}

// Close stops ingest (see Stop) and then seals and closes the segment
// store, returning the first error of the shutdown. Idempotent.
func (n *Ingest) Close() error {
	n.closeOnce.Do(func() {
		n.closeErr = n.Stop()
		if n.Segments != nil {
			if err := n.Segments.Close(); n.closeErr == nil {
				n.closeErr = err
			}
		}
	})
	return n.closeErr
}

// AgentConfig places one host's agent.
type AgentConfig struct {
	// Header is the host's archive header (its collector's); it names
	// the host whose spool this is and the schema the wire codec encodes
	// against.
	Header rawfile.Header
	// Codec is the wire and spool codec (zero is codec.V1Text).
	Codec codec.Version
	// SpoolDir, when set, opens a durable spool there: snapshots no
	// broker accepts wait on disk and replay in order. Empty drops them.
	SpoolDir string
	// Spool bounds the spool (its Codec and Metrics come from the agent).
	Spool spool.Options
	// Trace, if set, stamps the publish and spool-replay hops.
	Trace *trace.Recorder
	// Dialer, when non-nil, replaces the agent's broker dials — the
	// fault-injection seam.
	Dialer func(addr string) (net.Conn, error)
}

// Agent is one running tacc_statsd's transport: a fabric publisher over
// its own connection pool, with an optional durable spool. It publishes
// through the embedded Publisher.
type Agent struct {
	*fabric.Publisher
	Spool *spool.Spool // nil without SpoolDir

	pool *fabric.ClientPool
}

// NewAgent builds a host's publisher over view.
func NewAgent(view *fabric.View, cfg AgentConfig) (*Agent, error) {
	wire := cfg.Codec
	if wire == codec.VersionUnknown {
		wire = codec.V1Text
	}
	pool := fabric.NewClientPool(view.Policy())
	pool.Codec = wire
	pool.Dialer = cfg.Dialer
	pub := fabric.NewPublisher(view, pool)
	pub.Codec = wire
	pub.Registry = cfg.Header.Registry
	pub.Metrics = view.Metrics()
	pub.Trace = cfg.Trace
	a := &Agent{Publisher: pub, pool: pool}
	if cfg.SpoolDir != "" {
		opts := cfg.Spool
		opts.Codec = wire
		opts.Metrics = view.Metrics()
		sp, err := spool.Open(cfg.SpoolDir, cfg.Header, opts)
		if err != nil {
			pool.Close()
			return nil, fmt.Errorf("node: open spool: %w", err)
		}
		pub.AttachSpool(sp)
		a.Spool = sp
	}
	return a, nil
}

// Close stops the spool drainer, then closes the spool and the
// connection pool, returning the spool's close error. Whatever the spool
// still holds stays on disk for the next start.
func (a *Agent) Close() error {
	a.Publisher.Close() // only stops the drainer; it cannot fail
	defer a.pool.Close()
	if a.Spool == nil {
		return nil
	}
	return a.Spool.Close()
}
