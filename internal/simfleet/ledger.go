package simfleet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gostats/internal/fabric"
	"gostats/internal/model"
	"gostats/internal/node"
)

// Ledger is the conservation ledger of a fleet run: every snapshot a
// node emits is booked on the way into its publisher (Publisher), every
// archive at the ingest node's OnSnapshot tap (Archive), and whatever an
// outage or broker kill stranded must still sit in that node's spool.
// Because the group dedups by (host, sequence) before the listener runs,
// a duplicate reaching the tap is a dedup failure, not a tolerated retry.
type Ledger struct {
	fab         *Fabric
	strictOrder bool // one owner per partition: per-host order must hold

	mu         sync.Mutex
	emitted    map[string]bool
	archived   map[string]bool
	lastSeen   map[string]float64 // per-host max first-occurrence time
	duplicates int
	disorder   []string
	agents     []*node.Agent
}

// NewLedger returns an empty ledger over f. With a single broker every
// partition has one owner, so the ledger requires strict per-host order.
func NewLedger(f *Fabric) *Ledger {
	return &Ledger{
		fab:         f,
		strictOrder: len(f.Servers) == 1,
		emitted:     map[string]bool{},
		archived:    map[string]bool{},
		lastSeen:    map[string]float64{},
	}
}

// snapKey identifies one snapshot for conservation accounting. Confirmed
// publishes can duplicate a snapshot but never change it, so identity by
// (host, time, mark) is exact.
func snapKey(s model.Snapshot) string {
	return fmt.Sprintf("%s@%.3f#%s", s.Host, s.Time, s.Mark)
}

// NewPublisher builds one host's agent on the ledger's fabric, tracks
// it so the report can read its spool, and returns the booking adapter
// the host publishes through.
func (l *Ledger) NewPublisher(cfg node.AgentConfig) (*Publisher, error) {
	a, err := l.fab.NewAgent(cfg)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.agents = append(l.agents, a)
	l.mu.Unlock()
	return &Publisher{ledger: l, agent: a}, nil
}

func (l *Ledger) emit(s model.Snapshot) {
	l.mu.Lock()
	l.emitted[snapKey(s)] = true
	l.mu.Unlock()
}

// Archive books one archived snapshot; it is the ingest node's
// OnSnapshot tap. Only first occurrences take part in the per-host
// ordering check: nodes publish in time order and spool replay is FIFO,
// so through one owner per partition first deliveries arrive
// non-decreasing per host. Replica owners drain in parallel, so with
// more than one broker inversions are reported but tolerated.
func (l *Ledger) Archive(s model.Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := snapKey(s)
	if l.archived[k] {
		l.duplicates++
		return
	}
	l.archived[k] = true
	if last, ok := l.lastSeen[s.Host]; ok && s.Time < last {
		l.disorder = append(l.disorder,
			fmt.Sprintf("%s: t=%.0f delivered after t=%.0f", s.Host, s.Time, last))
	} else {
		l.lastSeen[s.Host] = s.Time
	}
}

// WaitCaughtUp blocks until every spool is empty, every emitted snapshot
// is archived, and ing's group has counted as handled every frame the
// tap saw (the group counts a frame only after its handler returns). On
// timeout it returns the shortfall; Report then accounts for it.
func (l *Ledger) WaitCaughtUp(ing *node.Ingest, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		emitted, archived, spooled := len(l.emitted), len(l.archived), 0
		for _, a := range l.agents {
			if a.Spool != nil {
				spooled += a.Spool.Depth()
			}
		}
		l.mu.Unlock()
		handled := ing.Stats().Handled
		if spooled == 0 && archived >= emitted && handled >= uint64(archived) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not caught up after %v: archived %d of %d emitted, %d still spooled, %d handled",
				timeout, archived, emitted, spooled, handled)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// PublisherStats sums the tracked agents' delivery ledgers.
func (l *Ledger) PublisherStats() fabric.PublisherStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var st fabric.PublisherStats
	for _, a := range l.agents {
		ps := a.Stats()
		st.Published += ps.Published
		st.Redials += ps.Redials
		st.Spooled += ps.Spooled
		st.Replayed += ps.Replayed
		st.Rerouted += ps.Rerouted
		st.Dropped += ps.Dropped
		st.BytesOnWire += ps.BytesOnWire
	}
	return st
}

// Counts is a ledger's conservation report.
type Counts struct {
	Emitted, Archived, SpoolRemaining, DupPastDedup, Missing int
	Hosts, HostsOff, OrderInversions                         int
	// FirstInversion describes the first order inversion, if any.
	FirstInversion string
}

// String renders the counts as the key=value fields the audits print.
func (c Counts) String() string {
	return fmt.Sprintf("emitted=%d archived=%d spool_remaining=%d dup_past_dedup=%d missing=%d hosts=%d hosts_off=%d order_inversions=%d",
		c.Emitted, c.Archived, c.SpoolRemaining, c.DupPastDedup, c.Missing,
		c.Hosts, c.HostsOff, c.OrderInversions)
}

// Report stops the tracked agents' spool drainers, takes what their
// spools still hold (consuming it), and checks conservation per host:
// emitted == archived + still spooled, every archive filed under the
// host that emitted it, zero duplicates past dedup, and per-host order
// where it must hold. The error names the first violations.
func (l *Ledger) Report() (Counts, error) {
	// The drainers stop and the spools are read outside l.mu: a replay
	// in flight may be waiting on the tap, which books under l.mu.
	l.mu.Lock()
	agents := l.agents
	l.mu.Unlock()
	spooled := map[string]bool{}
	for _, a := range agents {
		a.Publisher.Close() // stops the drainer; cannot fail
		if a.Spool == nil {
			continue
		}
		_, err := a.Spool.Drain(func(s model.Snapshot) error {
			spooled[snapKey(s)] = true
			return nil
		})
		if err != nil {
			return Counts{}, fmt.Errorf("fabric: reading spool remainder: %w", err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	// Attribution: per host, what it emitted against what arrived filed
	// under it. An archive no node emitted is data filed under the wrong
	// host.
	type tally struct{ emitted, archived, spooled, foreign int }
	hosts := map[string]*tally{}
	hostOf := func(k string) *tally {
		h := k[:strings.LastIndexByte(k, '@')]
		if hosts[h] == nil {
			hosts[h] = &tally{}
		}
		return hosts[h]
	}
	var missing []string
	for k := range l.emitted {
		t := hostOf(k)
		t.emitted++
		switch {
		case l.archived[k]:
			t.archived++
		case spooled[k]:
			t.spooled++
		default:
			missing = append(missing, k)
		}
	}
	for k := range l.archived {
		if !l.emitted[k] {
			hostOf(k).foreign++
		}
	}
	var off []string
	for h, t := range hosts {
		if t.archived+t.spooled != t.emitted || t.foreign > 0 {
			off = append(off, fmt.Sprintf("%s (emitted %d, archived %d, spooled %d, misfiled %d)",
				h, t.emitted, t.archived, t.spooled, t.foreign))
		}
	}
	sort.Strings(missing)
	sort.Strings(off)
	c := Counts{
		Emitted: len(l.emitted), Archived: len(l.archived), SpoolRemaining: len(spooled),
		DupPastDedup: l.duplicates, Missing: len(missing),
		Hosts: len(hosts), HostsOff: len(off), OrderInversions: len(l.disorder),
	}
	if len(l.disorder) > 0 {
		c.FirstInversion = l.disorder[0]
	}
	switch {
	case len(off) > 0:
		return c, fmt.Errorf("fabric: attribution off on %d hosts: %s", len(off), strings.Join(off[:min(len(off), 5)], "; "))
	case len(missing) > 0:
		return c, fmt.Errorf("fabric: %d snapshots lost (e.g. %v)", len(missing), missing[:min(len(missing), 10)])
	case l.duplicates > 0:
		return c, fmt.Errorf("fabric: %d duplicate snapshots got past (host, seq) dedup", l.duplicates)
	case l.strictOrder && len(l.disorder) > 0:
		return c, fmt.Errorf("fabric: %d per-host ordering violations (e.g. %s)", len(l.disorder), l.disorder[0])
	}
	return c, nil
}

// Publisher is one host's publish adapter: it books each snapshot with
// the ledger, then publishes it through the host's agent. It serves the
// engine as a cluster.Sink and a collect.DaemonAgent as its Publisher.
type Publisher struct {
	ledger *Ledger
	agent  *node.Agent
}

// Publish books s as emitted and publishes it.
func (p *Publisher) Publish(s model.Snapshot) error {
	p.ledger.emit(s)
	return p.agent.Publish(s)
}

// Handle implements cluster.Sink.
func (p *Publisher) Handle(s model.Snapshot) error { return p.Publish(s) }

// Close stops the agent's spool drainer; the spool stays open for the
// report, and the fabric closes the agent.
func (p *Publisher) Close() error { return p.agent.Publisher.Close() }
