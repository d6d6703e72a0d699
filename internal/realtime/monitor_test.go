package realtime

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// refMonitor is the clone-based evaluation Monitor replaced, kept as
// the reference: it keeps a deep copy of each host's previous snapshot
// and computes every rule's rate from the two whole snapshots.
type refMonitor struct {
	reg   *schema.Registry
	rules []Rule
	prev  map[string]model.Snapshot
}

func (m *refMonitor) process(s model.Snapshot) []Alert {
	prev, ok := m.prev[s.Host]
	m.prev[s.Host] = s.Clone()
	if !ok || s.Time <= prev.Time {
		return nil
	}
	dt := s.Time - prev.Time
	var out []Alert
	for _, r := range m.rules {
		rate, ok := refClassRate(m.reg, prev, s, r.Class, r.Event, dt)
		if !ok || rate <= r.Threshold {
			continue
		}
		out = append(out, Alert{Time: s.Time, Host: s.Host, JobIDs: append([]string(nil), s.JobIDs...),
			Rule: r.Name, Value: rate, Threshold: r.Threshold})
	}
	return out
}

// refClassRate is the event's delta rate between two snapshots, summed
// over the current snapshot's instances in record order.
func refClassRate(reg *schema.Registry, prev, cur model.Snapshot, c schema.Class, ev string, dt float64) (float64, bool) {
	sch := reg.Get(c)
	if sch == nil || dt <= 0 {
		return 0, false
	}
	idx := sch.Index(ev)
	if idx < 0 {
		return 0, false
	}
	def := sch.Events[idx]
	prevByInst := map[string][]uint64{}
	for _, r := range prev.Records {
		if r.Class == c {
			prevByInst[r.Instance] = r.Values
		}
	}
	total := 0.0
	found := false
	for _, r := range cur.Records {
		if r.Class != c {
			continue
		}
		pv, ok := prevByInst[r.Instance]
		if !ok || idx >= len(pv) || idx >= len(r.Values) {
			continue
		}
		total += float64(schema.RolloverDelta(pv[idx], r.Values[idx], def))
		found = true
	}
	return total / dt, found
}

// churnStream is a seeded stream over three hosts in which instances
// appear and vanish, an instance sometimes appears twice (the second
// time sometimes short), records are sometimes short, 48-bit counters roll over, 64-bit ones reset, and
// times sometimes stand still or step back. It counts each case so the
// test can insist the stream really exercised it.
func churnStream(n int) (snaps []model.Snapshot, cases map[string]int) {
	rng := rand.New(rand.NewSource(33))
	cases = map[string]int{}
	classes := []struct {
		class schema.Class
		nvals int
		width uint // counters wrap at 2^width (0: 64-bit, reset instead)
	}{
		{schema.ClassMDC, 2, 0},
		{schema.ClassNet, 4, 0},
		{schema.ClassIMC, 2, 48},
		{schema.ClassCPU, 7, 0},
	}
	hosts := []string{"c1", "c2", "c3"}
	last := map[string]float64{}
	counters := map[string]uint64{}
	for i := 0; i < n; i++ {
		host := hosts[rng.Intn(len(hosts))]
		t := last[host] + 1 + 599*rng.Float64()
		switch p := rng.Intn(20); {
		case p == 0 && last[host] > 0:
			t = last[host]
			cases["standstill"]++
		case p == 1 && last[host] > 0:
			t = last[host] - 300
			cases["backwards"]++
		}
		last[host] = t
		s := model.Snapshot{Time: t, Host: host, JobIDs: []string{fmt.Sprint(1000 + i/40)}}
		for _, c := range classes {
			for k := 0; k < 5; k++ {
				if rng.Intn(4) == 0 {
					cases["vanished"]++
					continue
				}
				inst := fmt.Sprintf("%s%d", c.class, k)
				vals := make([]uint64, c.nvals)
				for j := range vals {
					key := fmt.Sprint(host, inst, j)
					v, ok := counters[key]
					if !ok && c.width > 0 {
						v = 1<<c.width - uint64(rng.Intn(1<<22)) // rolls over within a few steps
					}
					v += uint64(rng.Intn(1 << 21))
					if c.width > 0 && v >= 1<<c.width {
						v -= 1 << c.width
						cases["rollover"]++
					}
					if c.width == 0 && rng.Intn(60) == 0 {
						v = uint64(rng.Intn(100))
						cases["reset"]++
					}
					counters[key] = v
					vals[j] = v
				}
				if rng.Intn(15) == 0 {
					vals = vals[:rng.Intn(2)] // short: the rated event may be missing
					cases["short"]++
				}
				s.Records = append(s.Records, model.Record{Class: c.class, Instance: inst, Values: vals})
				if rng.Intn(15) == 0 {
					dup := append([]uint64(nil), vals...)
					for j := range dup {
						dup[j] += uint64(rng.Intn(1 << 20))
					}
					if len(dup) > 1 && rng.Intn(3) == 0 {
						dup = dup[:1] // the last occurrence is short: the instance drops out
						cases["short duplicate"]++
					}
					s.Records = append(s.Records, model.Record{Class: c.class, Instance: inst, Values: dup})
					cases["duplicate"]++
				}
			}
		}
		rng.Shuffle(len(s.Records), func(a, b int) { s.Records[a], s.Records[b] = s.Records[b], s.Records[a] })
		snaps = append(snaps, s)
	}
	return snaps, cases
}

// TestMonitorMatchesCloneReference runs the churning stream through
// Monitor and the clone-based reference: every snapshot must raise the
// same alerts, with the same Value bits.
func TestMonitorMatchesCloneReference(t *testing.T) {
	reg := schema.DefaultRegistry()
	rules := []Rule{
		{Name: "mdc", Class: schema.ClassMDC, Event: schema.EvMDCReqs, Threshold: 7000},
		{Name: "net", Class: schema.ClassNet, Event: schema.EvNetTxBytes, Threshold: 7000},
		{Name: "imc", Class: schema.ClassIMC, Event: schema.EvIMCCASReads, Threshold: 7000},
		{Name: "no-event", Class: schema.ClassMDC, Event: "nope", Threshold: 0},
		{Name: "no-class", Class: "gpu", Event: "x", Threshold: 0},
	}
	snaps, cases := churnStream(3000)
	for _, c := range []string{"standstill", "backwards", "vanished", "rollover", "reset", "short", "duplicate", "short duplicate"} {
		if cases[c] < 5 {
			t.Fatalf("stream has %d %q cases; it must exercise each", cases[c], c)
		}
	}
	m := NewMonitor(reg, rules)
	var notified int
	m.Notify = func(Alert) { notified++ }
	ref := &refMonitor{reg: reg, rules: rules, prev: map[string]model.Snapshot{}}
	perRule := map[string]int{}
	for i, s := range snaps {
		got, want := m.Process(s), ref.process(s)
		if len(got) != len(want) {
			t.Fatalf("snapshot %d: %d alerts, reference %d\n got %v\nwant %v", i, len(got), len(want), got, want)
		}
		for k := range got {
			g, w := got[k], want[k]
			if math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Fatalf("snapshot %d alert %d: value %v (%x), reference %v (%x)",
					i, k, g.Value, math.Float64bits(g.Value), w.Value, math.Float64bits(w.Value))
			}
			if g.String() != w.String() || g.Rule != w.Rule || g.Time != w.Time {
				t.Fatalf("snapshot %d alert %d: %+v, reference %+v", i, k, g, w)
			}
			perRule[g.Rule]++
		}
	}
	for _, r := range rules[:3] {
		if perRule[r.Name] == 0 {
			t.Errorf("rule %s never fired; the comparison says nothing about it", r.Name)
		}
	}
	if notified != perRule["mdc"]+perRule["net"]+perRule["imc"] {
		t.Errorf("Notify saw %d alerts, Process returned %v", notified, perRule)
	}
}

// TestMonitorProcessSteadyStateAllocs: once each host's instances are
// known, folding a snapshot that raises nothing allocates nothing.
func TestMonitorProcessSteadyStateAllocs(t *testing.T) {
	m := NewMonitor(schema.DefaultRegistry(), DefaultRules())
	const hosts, steps = 4, 60
	var snaps []model.Snapshot
	for i := 0; i < steps; i++ {
		for h := 0; h < hosts; h++ {
			s := model.Snapshot{Time: float64(600 * (i + 1)), Host: fmt.Sprintf("c%d", h), JobIDs: []string{"7"}}
			v := uint64(i * 100)
			for k := 0; k < 4; k++ {
				s.Records = append(s.Records,
					model.Record{Class: schema.ClassMDC, Instance: fmt.Sprintf("mdc%d", k), Values: []uint64{v, v}},
					model.Record{Class: schema.ClassNet, Instance: fmt.Sprintf("eth%d", k), Values: []uint64{v, v, v, v}},
					model.Record{Class: schema.ClassLnet, Instance: "lnet", Values: []uint64{v, v}},
					model.Record{Class: schema.ClassCPU, Instance: fmt.Sprint(k), Values: make([]uint64, 7)})
			}
			snaps = append(snaps, s)
		}
	}
	warm := 2 * hosts // each host's two maps fill once
	for _, s := range snaps[:warm] {
		m.Process(s)
	}
	i := warm
	allocs := testing.AllocsPerRun(len(snaps)-warm-1, func() {
		if a := m.Process(snaps[i]); a != nil {
			t.Fatalf("alert %v", a)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Process allocates %.1f times per snapshot in the steady state, want 0", allocs)
	}
}
