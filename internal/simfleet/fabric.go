// Package simfleet is the in-process daemon-mode fleet the audits run:
// a fabric of loopback brokers (Fabric) and the conservation ledger that
// checks the Fig 2 property over it (Ledger) — every snapshot a node
// collected is archived centrally under that node or still sits in its
// spool, never lost, never duplicated past dedup. simcluster, E4 and the
// chaos tests all compose their fleet from these two, over the same
// internal/node constructors the daemons run.
package simfleet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"gostats/internal/broker"
	"gostats/internal/fabric"
	"gostats/internal/node"
	"gostats/internal/telemetry"
)

// Fabric is a static-membership broker fabric on loopback, composed as
// the daemons compose it: every broker serves the same versioned
// partition map, publishers confirm against every replica owner, and one
// shared View rebalances publisher and consumer routing together when a
// broker dies.
type Fabric struct {
	// Addrs[i] is the listen address of Servers[i].
	Addrs   []string
	Servers []*broker.Server
	Map     fabric.Map
	View    *fabric.View

	dial func(string) (net.Conn, error)

	mu     sync.Mutex
	agents []*node.Agent
}

// NewFabric starts n brokers on loopback under one map of the given
// partitions and replication (zero takes the fabric defaults), sharing
// one View with transport policy pol and telemetry registry reg (nil is
// the default registry). dial, when non-nil, replaces every agent's
// broker dials — the fault-injection seam — and then the servers also
// arm their read, ack and write deadlines, so connections the faults
// leave half-open are reaped.
func NewFabric(n, partitions, replication int, pol broker.Policy, reg *telemetry.Registry, dial func(string) (net.Conn, error)) (*Fabric, error) {
	f := &Fabric{Addrs: make([]string, n), Servers: make([]*broker.Server, n), dial: dial}
	for i := range f.Servers {
		s := broker.NewServer()
		s.Metrics = reg
		if dial != nil {
			s.IdleTimeout = 30 * time.Second
			s.AckTimeout = 10 * time.Second
			s.WriteTimeout = 10 * time.Second
		}
		a, err := s.Listen("127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("simfleet: %w", err)
		}
		f.Servers[i], f.Addrs[i] = s, a
	}
	f.Map = fabric.NewMap(f.Addrs, partitions, replication)
	f.View = fabric.NewView(f.Map, pol, reg)
	for _, s := range f.Servers {
		s.MapProvider = f.View.Provider()
	}
	return f, nil
}

// NewAgent builds one host's agent over the fabric's view and dialer.
// Close closes it.
func (f *Fabric) NewAgent(cfg node.AgentConfig) (*node.Agent, error) {
	cfg.Dialer = f.dial
	a, err := node.NewAgent(f.View, cfg)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.agents = append(f.agents, a)
	f.mu.Unlock()
	return a, nil
}

// Busiest returns the index of the broker owning the most partitions as
// primary — the worst single loss the map allows.
func (f *Fabric) Busiest() int {
	counts := f.Map.PrimaryCount()
	busiest := 0
	for i, a := range f.Addrs {
		if counts[a] > counts[f.Addrs[busiest]] {
			busiest = i
		}
	}
	return busiest
}

// Kill stops broker i outright, as a crash would.
func (f *Fabric) Kill(i int) error { return f.Servers[i].Close() }

// Close closes every agent the fabric built (whatever their spools hold
// stays on disk), then the brokers and the view. It is idempotent.
func (f *Fabric) Close() {
	f.mu.Lock()
	agents := f.agents
	f.agents = nil
	f.mu.Unlock()
	for _, a := range agents {
		a.Close()
	}
	for _, s := range f.Servers {
		if s != nil {
			s.Close()
		}
	}
	if f.View != nil {
		f.View.Close()
	}
}
