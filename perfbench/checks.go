package main

import (
	"fmt"
	"math"
	"sort"

	"gostats/internal/broker"
	"gostats/internal/etl"
	"gostats/internal/model"
	"gostats/internal/reldb"
	"gostats/internal/schema"
	"gostats/internal/tsdb"
)

// checkDelivered: every published message was processed, in order.
func (s *stack) checkDelivered(n int, processed int) error {
	pub := s.srv.QueueCounts(broker.StatsQueue).Published + s.srv.QueueCounts(preloadQueue).Published
	if pub != uint64(n) {
		return fmt.Errorf("broker counted %d published, expected %d", pub, n)
	}
	if processed != n {
		return fmt.Errorf("processed %d of %d published", processed, n)
	}
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	if s.taps != n {
		return fmt.Errorf("%d of %d published snapshots reached the tap", s.taps, n)
	}
	return s.tapErr
}

// checkArchive: a walk of the raw archive returns, for every host, the
// exact number of snapshots the first n stream messages held for it and
// the same newest time.
func (s *stack) checkArchive(n int) error {
	want := s.st.tally(n)
	got := make(map[string]hostTally)
	if _, err := s.store.Walk(func(snap model.Snapshot) error {
		t := got[snap.Host]
		t.count++
		if snap.Time > t.last {
			t.last = snap.Time
		}
		got[snap.Host] = t
		return nil
	}); err != nil {
		return fmt.Errorf("walk archive: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("archive holds %d hosts, stream has %d", len(got), len(want))
	}
	for h, w := range want {
		if g := got[h]; g != w {
			return fmt.Errorf("archive host %s: %d snapshots up to %g, stream has %d up to %g",
				h, g.count, g.last, w.count, w.last)
		}
	}
	return nil
}

// checkEquivalence: the rows the live assembler built equal what the
// batch ETL (etl.IngestStore) builds from the same archive — the cron
// and daemon paths agree. Call after the assembler was flushed.
func (s *stack) checkEquivalence() error {
	batch := reldb.New()
	ids, err := etl.IngestStore(s.store, s.st.reg, s.st.meta, batch)
	if err != nil {
		return fmt.Errorf("batch ETL: %w", err)
	}
	live := s.rdb.All()
	if len(live) != len(ids) {
		return fmt.Errorf("live assembler built %d job rows, batch ETL %d", len(live), len(ids))
	}
	sort.Slice(live, func(i, j int) bool { return live[i].JobID < live[j].JobID })
	for i, row := range live {
		if row.JobID != ids[i] {
			return fmt.Errorf("job %d: live %s, batch %s", i, row.JobID, ids[i])
		}
		b := batch.Get(row.JobID)
		if got, want := fmt.Sprintf("%+v", *row), fmt.Sprintf("%+v", *b); got != want {
			return fmt.Errorf("job %s: live row differs from batch row", row.JobID)
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("no job finalized")
	}
	return nil
}

// refSeries is the probe series of the tsdb check.
var refSeries = struct {
	class  schema.Class
	device string
	event  string
}{schema.ClassCPU, "0", schema.EvCPUUser}

// checkTSDB: a full-span tsdb answer for one host's counter equals the
// delta/dt series computed here from the first n generated snapshots.
func (s *stack) checkTSDB(n int) error {
	host := s.st.hosts[0]
	sch := s.st.reg.Get(refSeries.class)
	idx := -1
	for i, d := range sch.Events {
		if d.Name == refSeries.event {
			idx = i
		}
	}
	def := sch.Events[idx]
	var want []tsdb.DataPoint
	var prev *model.Snapshot
	valOf := func(snap *model.Snapshot) (uint64, bool) {
		for _, r := range snap.Records {
			if r.Class == refSeries.class && r.Instance == refSeries.device && len(r.Values) == sch.Len() {
				return r.Values[idx], true
			}
		}
		return 0, false
	}
	for i := range s.st.snaps[:n] {
		snap := &s.st.snaps[i]
		if snap.Host != host {
			continue
		}
		if prev != nil {
			dt := snap.Time - prev.Time
			pv, okp := valOf(prev)
			cv, okc := valOf(snap)
			if dt > 0 && okp && okc {
				want = append(want, tsdb.DataPoint{Time: snap.Time,
					Value: float64(schema.RolloverDelta(pv, cv, def)) / dt})
			}
		}
		prev = snap
	}
	res, err := s.tdb.Do(tsdb.Query{Host: host, DevType: string(refSeries.class),
		Device: refSeries.device, Event: refSeries.event})
	if err != nil {
		return fmt.Errorf("tsdb probe: %w", err)
	}
	if len(res) != 1 {
		return fmt.Errorf("tsdb probe returned %d groups", len(res))
	}
	got := res[0].Points
	if len(got) != len(want) || len(want) == 0 {
		return fmt.Errorf("tsdb probe %s: %d points, reference %d", host, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Time != w.Time || math.Abs(g.Value-w.Value) > 1e-9*math.Max(1, math.Abs(w.Value)) {
			return fmt.Errorf("tsdb probe %s point %d: (%g, %g), reference (%g, %g)",
				host, i, g.Time, g.Value, w.Time, w.Value)
		}
	}
	return nil
}
