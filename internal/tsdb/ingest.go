package tsdb

import (
	"slices"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// Ingester converts the raw snapshot stream into time-series points:
// cumulative counters become rate series (delta over the sampling
// interval), gauges are stored as-is. One Ingester serves a whole
// cluster. Per host it keeps the previous snapshot's values and a
// series handle for every (record, event) of the host's record layout,
// both by record position: a snapshot whose layout repeats the last one
// — the steady state — forms its deltas positionally and is written as
// one host row with no per-point label lookup. The layout is re-keyed
// by (class, instance) only when a host's records change.
//
// Not safe for concurrent use; the daemon-mode consumer is a single
// goroutine, matching the real pipeline.
type Ingester struct {
	db    *DB
	reg   *schema.Registry
	hosts map[string]*hostState
	row   row
}

// recKey identifies a record within a snapshot.
type recKey struct {
	class    schema.Class
	instance string
}

// hostState is one host's ingest state, laid out by record position in
// the host's previous snapshot.
type hostState struct {
	seen bool
	time float64
	keys []recKey
	// last[j] is the position of the last record keyed keys[j]: the
	// record a repeat of the layout takes position j's deltas from (the
	// last duplicate wins, as in a keyed lookup).
	last []int
	vals [][]uint64 // the previous snapshot's values, every record
	next [][]uint64 // buffers the current snapshot's values go into
	hs   [][]handle // per record, per event; nil until first ingested
}

// NewIngester returns an ingester writing into db, interpreting counters
// against reg.
func NewIngester(db *DB, reg *schema.Registry) *Ingester {
	return &Ingester{db: db, reg: reg, hosts: make(map[string]*hostState)}
}

// Ingest folds one snapshot into the database. The first snapshot from a
// host establishes the delta baseline and produces gauge points only.
// With a cold store attached to the DB, the returned error is any
// sticky cold-write failure surfaced by the amortized CommitCold — a
// caller that nacks on error gets redelivery, so durable ingest stays
// at-least-once end to end.
func (ing *Ingester) Ingest(s model.Snapshot) error {
	st := ing.hosts[s.Host]
	if st == nil {
		st = &hostState{}
		ing.hosts[s.Host] = st
	}
	dt := s.Time - st.time
	withRates := st.seen && dt > 0
	src := st.last
	if !st.sameLayout(s.Records) {
		src = st.relayout(s.Records)
	}
	prev := st.vals
	next := slices.Grow(st.next[:0], len(s.Records))[:len(s.Records)]
	r := &ing.row
	r.reset()
	for j, rec := range s.Records {
		next[j] = append(next[j][:0], rec.Values...)
		sch := ing.reg.Get(rec.Class)
		if sch == nil || len(rec.Values) != sch.Len() {
			continue
		}
		hs := st.handles(j, s.Host, rec, sch)
		var pv []uint64
		if withRates && src[j] >= 0 && len(prev[src[j]]) == len(rec.Values) {
			pv = prev[src[j]]
		}
		for i, def := range sch.Events {
			if def.Kind == schema.Gauge {
				r.add(&hs[i], float64(rec.Values[i]))
				continue
			}
			if pv == nil {
				continue
			}
			r.add(&hs[i], float64(schema.RolloverDelta(pv[i], rec.Values[i], def))/dt)
		}
	}
	st.seen, st.time = true, s.Time
	st.vals, st.next = next, prev
	ing.db.putRow(s.Host, s.Time, r)
	return ing.db.CommitCold()
}

// sameLayout reports whether recs repeat the previous snapshot's record
// layout position for position.
func (st *hostState) sameLayout(recs []model.Record) bool {
	if len(recs) != len(st.keys) {
		return false
	}
	for j, rec := range recs {
		if k := st.keys[j]; rec.Class != k.class || rec.Instance != k.instance {
			return false
		}
	}
	return true
}

// relayout re-keys the host's state to recs' layout. It returns, per
// position of recs, the position in the previous snapshot holding the
// same (class, instance) — the last such record — or -1, and carries
// each record's series handles over to its new position.
func (st *hostState) relayout(recs []model.Record) []int {
	old := make(map[recKey]int, len(st.keys))
	for j, k := range st.keys {
		old[k] = j
	}
	src := make([]int, len(recs))
	keys := make([]recKey, len(recs))
	hs := make([][]handle, len(recs))
	cur := make(map[recKey]int, len(recs))
	for j, rec := range recs {
		k := recKey{rec.Class, rec.Instance}
		keys[j] = k
		src[j] = -1
		if o, ok := old[k]; ok {
			src[j] = o
			hs[j] = st.hs[o]
		}
		cur[k] = j
	}
	last := make([]int, len(recs))
	for j, k := range keys {
		last[j] = cur[k]
	}
	st.keys, st.last, st.hs = keys, last, hs
	return src
}

// handles returns the series handles of record j, creating them on the
// record's first ingest.
func (st *hostState) handles(j int, host string, rec model.Record, sch *schema.Schema) []handle {
	if st.hs[j] == nil {
		hs := make([]handle, sch.Len())
		for i, def := range sch.Events {
			hs[i] = newHandle(Tags{Host: host, DevType: string(rec.Class), Device: rec.Instance, Event: def.Name})
		}
		st.hs[j] = hs
	}
	return st.hs[j]
}
