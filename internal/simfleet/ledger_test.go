package simfleet

import (
	"strings"
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/node"
)

// fastPolicy gives up on a dead broker in milliseconds.
var fastPolicy = broker.Policy{
	DialTimeout:      time.Second,
	BackoffMin:       time.Millisecond,
	BackoffMax:       5 * time.Millisecond,
	BreakerThreshold: 1,
	BreakerWindow:    25 * time.Millisecond,
	BreakerMaxWindow: 100 * time.Millisecond,
}

// newLedger returns a ledger over a fresh loopback fabric of n brokers.
func newLedger(t *testing.T, n int) *Ledger {
	t.Helper()
	f, err := NewFabric(n, 4, 2, fastPolicy, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return NewLedger(f)
}

func snap(host string, at float64) model.Snapshot {
	return model.Snapshot{Host: host, Time: at}
}

func report(t *testing.T, l *Ledger) (Counts, error) {
	t.Helper()
	c, err := l.Report()
	t.Logf("%s (err %v)", c, err)
	return c, err
}

func TestLedgerBalancedRunPasses(t *testing.T) {
	l := newLedger(t, 1)
	for _, s := range []model.Snapshot{snap("a", 600), snap("b", 600), snap("a", 1200)} {
		l.emit(s)
		l.Archive(s)
	}
	c, err := report(t, l)
	if err != nil {
		t.Fatal(err)
	}
	want := Counts{Emitted: 3, Archived: 3, Hosts: 2}
	if c != want {
		t.Errorf("counts = %+v, want %+v", c, want)
	}
}

// A snapshot archived under a host that never emitted it is misfiled,
// even when the snapshot its emitter booked also arrived.
func TestLedgerMisfiledSnapshotFails(t *testing.T) {
	l := newLedger(t, 1)
	for _, s := range []model.Snapshot{snap("a", 600), snap("b", 600)} {
		l.emit(s)
		l.Archive(s)
	}
	l.Archive(snap("b", 1200)) // host a's collection, filed under b
	c, err := report(t, l)
	if c.HostsOff != 1 || c.Missing != 0 || c.DupPastDedup != 0 {
		t.Errorf("counts = %+v, want hosts_off=1 and nothing missing or duplicated", c)
	}
	if err == nil || !strings.Contains(err.Error(), "b (emitted 1, archived 1, spooled 0, misfiled 1)") {
		t.Errorf("err = %v, want host b named as misfiled", err)
	}
}

func TestLedgerDuplicatePastDedupFails(t *testing.T) {
	l := newLedger(t, 1)
	s := snap("a", 600)
	l.emit(s)
	l.Archive(s)
	l.Archive(s)
	c, err := report(t, l)
	if c.DupPastDedup != 1 || c.Archived != 1 || c.HostsOff != 0 {
		t.Errorf("counts = %+v, want one duplicate over one archive", c)
	}
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v, want a duplicate failure", err)
	}
}

func TestLedgerLostSnapshotFails(t *testing.T) {
	l := newLedger(t, 1)
	l.emit(snap("a", 600))
	l.emit(snap("a", 1200))
	l.Archive(snap("a", 600))
	c, err := report(t, l)
	if c.Missing != 1 || c.HostsOff != 1 {
		t.Errorf("counts = %+v, want one missing on one host", c)
	}
	if err == nil {
		t.Error("a lost snapshot passed the audit")
	}
}

// A snapshot the broker never took is still in its host's spool: it is
// accounted for, not missing.
func TestLedgerSpooledSnapshotIsNotMissing(t *testing.T) {
	l := newLedger(t, 1)
	hw, err := hwsim.NewNode("c401-001", chip.StampedeNode(), 1)
	if err != nil {
		t.Fatal(err)
	}
	col := collect.New(hw)
	pub, err := l.NewPublisher(node.AgentConfig{Header: col.Header(), SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := col.Collect(600, nil, "")
	if err := pub.Publish(first); err != nil {
		t.Fatal(err)
	}
	l.Archive(first) // as the tap would
	if err := l.fab.Kill(0); err != nil {
		t.Fatal(err)
	}
	second, _ := col.Collect(1200, nil, "")
	if err := pub.Publish(second); err != nil {
		t.Fatal(err)
	}
	if d := pub.agent.Spool.Depth(); d != 1 {
		t.Fatalf("spool depth = %d after publishing to a dead broker, want 1", d)
	}
	c, err := report(t, l)
	if err != nil {
		t.Fatal(err)
	}
	if c.Emitted != 2 || c.Archived != 1 || c.SpoolRemaining != 1 || c.Missing != 0 {
		t.Errorf("counts = %+v, want 2 emitted = 1 archived + 1 spooled", c)
	}
}

// First deliveries must arrive in time order per host through one owner
// per partition; across replica owners an inversion is only reported.
func TestLedgerOrderInversionStrictOnlyWithOneBroker(t *testing.T) {
	for _, tc := range []struct {
		brokers int
		fails   bool
	}{{1, true}, {2, false}} {
		l := newLedger(t, tc.brokers)
		early, late := snap("a", 600), snap("a", 1200)
		l.emit(early)
		l.emit(late)
		l.Archive(late)
		l.Archive(early)
		c, err := report(t, l)
		if c.OrderInversions != 1 || c.FirstInversion == "" {
			t.Errorf("%d brokers: counts = %+v, want one inversion", tc.brokers, c)
		}
		if (err != nil) != tc.fails {
			t.Errorf("%d brokers: err = %v, want failure %v", tc.brokers, err, tc.fails)
		}
	}
}
