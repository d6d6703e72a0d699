// Package tsdb is gostats' time-series store, standing in for the
// OpenTSDB deployment §VI-A describes: every series is labeled by the
// tag tuple (host, device type, device name, event name), and series can
// be filtered and aggregated along any subset of those tags — the
// operation that lets one user's metadata storm be correlated with other
// users' mounting Lustre wait times.
//
// The store is sharded by host hash: concurrent ingesters (one stream
// per node) Put into disjoint shards without serializing, host-filtered
// queries touch exactly one shard. Within a shard the RAM hot set is
// stored as host rows: one row per host per collection time, one column
// per series, so an ingested snapshot is one row append and eviction
// drops whole rows. Do holds each shard's read lock only long enough to
// gather the matching columns over the window's rows into a pooled
// buffer before aggregating outside any lock. Only a DB with a cold
// store attached evicts; without one, RAM keeps every row, each as wide
// as every series its host ever reported, which suits bounded runs
// only.
package tsdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"gostats/internal/segstore"
)

// Tags is the fixed tag tuple of the paper's OpenTSDB layout.
type Tags struct {
	Host    string // compute node hostname
	DevType string // device class ("mdc", "cpu", ...)
	Device  string // device instance ("scratch-MDT0000", "0", ...)
	Event   string // event name ("reqs", "user", ...)
}

// tagValue extracts one tag by key name.
func (t Tags) tagValue(key string) (string, error) {
	switch key {
	case "host":
		return t.Host, nil
	case "devtype":
		return t.DevType, nil
	case "device":
		return t.Device, nil
	case "event":
		return t.Event, nil
	default:
		return "", fmt.Errorf("tsdb: unknown tag key %q", key)
	}
}

// hostHash is FNV-1a over the host tag. Sharding by host keeps each
// node's ingest stream (its devices × events) in one shard — concurrent
// ingesters for different hosts never contend — and lets host-filtered
// queries touch exactly one shard.
func hostHash(host string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= prime
	}
	return h
}

// DataPoint is one timestamped value.
type DataPoint struct {
	Time  float64
	Value float64
}

// Agg selects the cross-series / downsample aggregation function.
type Agg int

// Aggregators.
const (
	Sum Agg = iota
	Avg
	Max
	Min
)

func (a Agg) String() string {
	switch a {
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Max:
		return "max"
	case Min:
		return "min"
	}
	return "?"
}

// numShards is the lock-striping width: wide enough that a rack's worth
// of concurrent ingesters rarely collide, small enough that a wildcard
// Do sweep stays cheap.
const numShards = 32

// shard is one lock stripe: its hosts' rows, a series map into them,
// and the posting lists.
type shard struct {
	mu     sync.RWMutex
	hosts  map[string]*hostRows
	series map[Tags]*series
	// posting lists: tag key -> tag value -> matching tag tuples.
	postings map[string]map[string][]*series
	// coldBoundary splits queries when a cold store is attached: RAM is
	// authoritative for Time >= coldBoundary, sealed segments for the
	// half-open range below it. Set under mu in the same critical
	// section as the eviction that enforces it.
	coldBoundary float64
}

// tagKeys is the fixed posting-list key set.
var tagKeys = [...]string{"host", "devtype", "device", "event"}

// DB is the time-series database. Safe for concurrent use; writes and
// Do on different shards never contend.
type DB struct {
	gen    atomic.Uint64
	shards [numShards]shard

	// Cold-store attachment (cold.go). cold is set once by AttachCold
	// before the DB is shared; coldMu guards the eviction cadence only.
	cold      *segstore.Store
	hotWindow float64
	coldMu    sync.Mutex
	lastEvict float64
	// newest is the math.Float64bits of the newest point time written
	// since AttachCold (seeded with the store's newest): CommitCold's
	// eviction clock, kept here so the no-op case touches no store lock.
	newest atomic.Uint64
}

// New returns an empty DB.
func New() *DB {
	db := &DB{}
	for i := range db.shards {
		db.shards[i].hosts = make(map[string]*hostRows)
		db.shards[i].series = make(map[Tags]*series)
		db.shards[i].postings = map[string]map[string][]*series{
			"host": {}, "devtype": {}, "device": {}, "event": {},
		}
	}
	return db
}

// handle is a caller-held resolution of one series for putRow: the RAM
// series, nil until the handle's first write looks it up in the stripe,
// and the cold store's Ref, whose labels are the series' tags. Series
// are never removed from a stripe, so a resolved handle stays valid for
// the life of its DB.
type handle struct {
	s    *series
	cold segstore.Ref
}

func newHandle(tags Tags) handle {
	return handle{cold: segstore.Ref{Labels: segstore.Labels(tags)}}
}

// row is one host's points at one time, as parallel slices: hs[i]
// receives vals[i], and refs[i] is &hs[i].cold, the cold store's view.
type row struct {
	hs   []*handle
	refs []*segstore.Ref
	vals []float64
}

func (r *row) add(h *handle, v float64) {
	r.hs = append(r.hs, h)
	r.refs = append(r.refs, &h.cold)
	r.vals = append(r.vals, v)
}

func (r *row) reset() {
	r.hs, r.refs, r.vals = r.hs[:0], r.refs[:0], r.vals[:0]
}

// Put appends one point to the series labeled by tags: a row of one.
func (db *DB) Put(tags Tags, t, v float64) {
	h := newHandle(tags)
	hs, refs, vals := [1]*handle{&h}, [1]*segstore.Ref{&h.cold}, [1]float64{v}
	db.putRow(tags.Host, t, &row{hs: hs[:], refs: refs[:], vals: vals[:]})
}

// putRow writes one row of host's points, all at time t. Every point
// of a row lives in host's stripe, so the row takes the stripe lock
// once and resolves its series through the handles, consulting the
// series map only on a handle's first write. A row newer than the
// host's last is one row append (plus a spill row per column written
// twice); an older or equal-time one goes point by point through
// hostRows.put. With a cold store attached the row is written through
// to the durable segment log inside the same critical section;
// cold-write errors are sticky and surface on CommitCold. The
// generation advances once per row.
func (db *DB) putRow(host string, t float64, r *row) {
	if len(r.hs) == 0 {
		return
	}
	sh := &db.shards[hostHash(host)%numShards]
	sh.mu.Lock()
	need := 0
	for _, h := range r.hs {
		if h.s == nil {
			h.s = sh.seriesFor(Tags(h.cold.Labels))
		}
		if h.s.col < 0 {
			need++
		}
	}
	hr := r.hs[0].s.host
	if need > 0 {
		hr.columns(r.hs, need)
	}
	hr.fit()
	if n := len(hr.times); n > 0 && hr.times[n-1] >= t {
		for i, h := range r.hs {
			hr.put(h.s.col, t, r.vals[i])
		}
	} else {
		k := hr.appendRow(t)
		for i, h := range r.hs {
			col := h.s.col
			w, bit := col>>6, uint64(1)<<(col&63)
			if hr.has[k*hr.words+w]&bit != 0 {
				hr.noteGaps(k) // complete: the rest of the row spills on
				k = hr.appendRow(t)
			}
			hr.has[k*hr.words+w] |= bit
			hr.vals[k*hr.stride+col] = r.vals[i]
		}
		hr.noteGaps(k)
	}
	if db.cold != nil {
		// Write through under the same stripe lock as the RAM inserts:
		// CommitCold flushes and evicts under this lock too, so it can
		// never observe a point in RAM that has not yet reached the cold
		// store's pending frame (which would let eviction trim a point
		// whose only durable copy is still in process memory).
		db.cold.AppendRow(host, t, r.refs, r.vals)
	}
	sh.mu.Unlock()
	for { // newest = max(newest, t)
		old := db.newest.Load()
		if t <= math.Float64frombits(old) || db.newest.CompareAndSwap(old, math.Float64bits(t)) {
			break
		}
	}
	db.gen.Add(1)
}

// seriesFor returns the series labeled tags, creating it (with its
// host's rows and its posting-list entries, but no column yet) on first
// use. Caller holds the write lock.
func (sh *shard) seriesFor(tags Tags) *series {
	s := sh.series[tags]
	if s == nil {
		hr := sh.hosts[tags.Host]
		if hr == nil {
			hr = &hostRows{}
			sh.hosts[tags.Host] = hr
		}
		s = &series{tags: tags, host: hr, col: -1}
		sh.series[tags] = s
		for _, key := range tagKeys {
			val, _ := tags.tagValue(key)
			sh.postings[key][val] = append(sh.postings[key][val], s)
		}
	}
	return s
}

// Generation returns a counter that advances once per write — one Put,
// or one ingested snapshot's row — the cheap invalidation stamp
// read-side caches key on.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// NumSeries reports the number of distinct series.
func (db *DB) NumSeries() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		n += len(sh.series)
		sh.mu.RUnlock()
	}
	return n
}

// Query describes one read: tag filters (empty string = wildcard), a
// time range, a grouping, an aggregator, and an optional downsample
// bucket width.
type Query struct {
	Host    string
	DevType string
	Device  string
	Event   string

	Start, End float64 // End <= 0 means open-ended

	GroupBy    []string // tag keys to group results by; nil = all together
	Aggregate  Agg      // cross-series aggregation within a group
	Downsample float64  // bucket seconds; 0 = exact-time alignment
}

// Result is one group's aggregated series.
type Result struct {
	Group  map[string]string // GroupBy key -> value
	Points []DataPoint       // time-sorted
}

// matchingSeries selects this shard's series matching the query's
// filters, using the smallest applicable posting list, in the list's
// insertion order; with no filter, every host's list in host order. One
// input gives one fold order, so one answer. Caller holds the shard's
// read lock.
func (sh *shard) matchingSeries(q Query) []*series {
	filters := [...]struct{ key, val string }{
		{"host", q.Host}, {"devtype", q.DevType}, {"device", q.Device}, {"event", q.Event},
	}
	var bestKey, bestVal string
	bestLen := -1
	for _, f := range filters {
		if f.val == "" {
			continue
		}
		l := len(sh.postings[f.key][f.val])
		if bestLen < 0 || l < bestLen {
			bestKey, bestVal, bestLen = f.key, f.val, l
		}
	}
	var cands []*series
	if bestLen >= 0 {
		cands = sh.postings[bestKey][bestVal]
	} else {
		byHost := sh.postings["host"]
		hosts := make([]string, 0, len(byHost))
		for h := range byHost {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		cands = make([]*series, 0, len(sh.series))
		for _, h := range hosts {
			cands = append(cands, byHost[h]...)
		}
	}
	var out []*series
	for _, s := range cands {
		if t := &s.tags; (q.Host == "" || t.Host == q.Host) &&
			(q.DevType == "" || t.DevType == q.DevType) &&
			(q.Device == "" || t.Device == q.Device) &&
			(q.Event == "" || t.Event == q.Event) {
			out = append(out, s)
		}
	}
	return out
}

// matchRef is one matched series' gathered points: ts[lo:hi] and
// vs[lo:hi] of the gather's scratch (offsets, because append may
// relocate the buffers).
type matchRef struct {
	tags   Tags
	lo, hi int
}

// coldRef is one matched cold series: the runs the segment scan
// returned, borrowed read-only from the store's decoded frames and
// folded in order, so no point is copied.
type coldRef struct {
	tags Tags
	runs [][]segstore.AggPoint
}

// groupAcc accumulates one group's (time -> bucket) cells. With a
// downsample width and a dense-enough span it uses a flat slice keyed by
// bucket index (no per-cell allocation, already time-ordered);
// otherwise it falls back to a map of times into a shared bucket slice.
type groupAcc struct {
	res *Result
	// flat path
	flat []bucket
	base int64
	// map path
	idx     map[float64]int
	buckets []bucket
	times   []float64
}

// maxColdWorkers bounds Do's per-shard cold-scan fan-out.
const maxColdWorkers = 4

// maxFlatBuckets bounds the flat accumulator's memory for sparse series
// spanning huge time ranges; beyond it the map path takes over.
const maxFlatBuckets = 1 << 21

// Do executes the query.
func (db *DB) Do(q Query) ([]Result, error) {
	// Validate grouping keys before touching any shard.
	for _, g := range q.GroupBy {
		if _, err := (Tags{}).tagValue(g); err != nil {
			return nil, err
		}
	}

	// Phase 1: gather each matching series' column over its host's rows
	// in the hot range, under the shard's read lock, into one pooled
	// scratch. A host filter pins the query to one shard (shards are
	// keyed by host hash). With a cold store attached, each shard's
	// boundary splits the query: RAM serves [boundary, End], sealed
	// segments serve [Start, boundary).
	sc := gatherPool.Get().(*gather)
	sc.ts, sc.vs = sc.ts[:0], sc.vs[:0]
	var refs []matchRef
	cs := db.cold
	var coldRefs []coldRef
	shFirst, shLast := 0, numShards
	if q.Host != "" {
		shFirst = int(hostHash(q.Host) % numShards)
		shLast = shFirst + 1
	}
	type coldJob struct {
		shard int
		end   float64
	}
	var jobs []coldJob
	for i := shFirst; i < shLast; i++ {
		sh := &db.shards[i]
		sh.mu.RLock()
		boundary := sh.coldBoundary
		hotStart := q.Start
		if cs != nil && boundary > hotStart {
			hotStart = boundary
		}
		// A window ending below the boundary holds no RAM point, but
		// its matching series still open their (empty) groups.
		coldOnly := q.End > 0 && hotStart > q.End
		for _, s := range sh.matchingSeries(q) {
			ref := matchRef{tags: s.tags}
			if !coldOnly && s.col >= 0 {
				if s.host != sc.hr {
					sc.host(s.host, hotStart, q.End)
				}
				ref.lo, ref.hi = sc.column(s.col)
			}
			refs = append(refs, ref)
		}
		sc.hr = nil
		sh.mu.RUnlock()
		if cs == nil {
			continue
		}
		// The boundary was captured under the same read lock as the hot
		// copy, so the cold window below it and the RAM range above it
		// tile the query exactly even if CommitCold runs in between.
		if coldEnd, ok := coldWindow(q, boundary); ok {
			jobs = append(jobs, coldJob{shard: i, end: coldEnd})
		}
	}
	if len(jobs) > 0 {
		filter := segstore.Filter{Host: q.Host, DevType: q.DevType, Device: q.Device, Event: q.Event}
		chunksByJob := make([][]segstore.SeriesRuns, len(jobs))
		errs := make([]error, len(jobs))
		// Wildcard-host queries spread the per-shard cold scans over a
		// few workers pulling job indexes off a counter, the calling
		// goroutine among them; each scan is itself parallel across its
		// segments, so the outer width stays modest. Results land by job
		// index, so the schedule never changes the fold order.
		var (
			failed atomic.Bool
			next   atomic.Int64
			wg     sync.WaitGroup
		)
		next.Store(-1)
		work := func() {
			for !failed.Load() {
				ji := int(next.Add(1))
				if ji >= len(jobs) {
					return
				}
				chunksByJob[ji], errs[ji] = cs.ScanShard(jobs[ji].shard, filter, q.Start, jobs[ji].end)
				if errs[ji] != nil {
					failed.Store(true)
				}
			}
		}
		k := min(maxColdWorkers, len(jobs))
		wg.Add(k - 1)
		for w := 1; w < k; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
		nChunks := 0
		for ji := range jobs {
			if err := errs[ji]; err != nil {
				gatherPool.Put(sc)
				return nil, err
			}
			nChunks += len(chunksByJob[ji])
		}
		coldRefs = make([]coldRef, 0, nChunks)
		for ji := range jobs {
			for _, c := range chunksByJob[ji] {
				if len(c.Runs) == 0 {
					continue
				}
				coldRefs = append(coldRefs, coldRef{
					tags: Tags{Host: c.Labels.Host, DevType: c.Labels.DevType, Device: c.Labels.Device, Event: c.Labels.Event},
					runs: c.Runs,
				})
			}
		}
	}

	// Decide the accumulator layout: with a downsample width and a
	// bounded bucket span, a flat slice indexed by bucket number.
	useFlat := false
	var base int64
	width := 0
	if q.Downsample > 0 && len(sc.vs)+len(coldRefs) > 0 {
		lo, hi := int64(0), int64(0)
		first := true
		span := func(blo, bhi int64) {
			if first {
				lo, hi, first = blo, bhi, false
				return
			}
			if blo < lo {
				lo = blo
			}
			if bhi > hi {
				hi = bhi
			}
		}
		for _, ref := range refs {
			if ref.lo == ref.hi {
				continue
			}
			// Truncation toward zero is monotone in time, so the first
			// and last points of each (time-sorted) range bound its
			// bucket indexes.
			span(int64(sc.ts[ref.lo]/q.Downsample), int64(sc.ts[ref.hi-1]/q.Downsample))
		}
		for _, ref := range coldRefs {
			first, last := ref.runs[0], ref.runs[len(ref.runs)-1]
			span(int64(first[0].Time/q.Downsample), int64(last[len(last)-1].Time/q.Downsample))
		}
		if !first && hi-lo+1 <= maxFlatBuckets {
			useFlat, base, width = true, lo, int(hi-lo+1)
		}
	}

	// Phase 2: group and accumulate, lock-free.
	groups := make(map[string]*groupAcc)
	var order []string
	plainGroup := len(q.GroupBy) == 0
	var keyBuf []byte
	lookup := func(tags Tags) *groupAcc {
		var acc *groupAcc
		if plainGroup {
			acc = groups[""]
		} else {
			keyBuf = keyBuf[:0]
			for _, g := range q.GroupBy {
				v, _ := tags.tagValue(g)
				keyBuf = append(keyBuf, g...)
				keyBuf = append(keyBuf, '=')
				keyBuf = append(keyBuf, v...)
				keyBuf = append(keyBuf, ';')
			}
			acc = groups[string(keyBuf)]
		}
		if acc == nil {
			gtags := make(map[string]string, len(q.GroupBy))
			for _, g := range q.GroupBy {
				gtags[g], _ = tags.tagValue(g)
			}
			acc = &groupAcc{res: &Result{Group: gtags}, base: base}
			if useFlat {
				acc.flat = make([]bucket, width)
			} else {
				acc.idx = make(map[float64]int)
			}
			key := ""
			if !plainGroup {
				key = string(keyBuf)
			}
			groups[key] = acc
			order = append(order, key)
		}
		return acc
	}
	// cell returns the accumulator bucket for one point time.
	cell := func(acc *groupAcc, pt float64) *bucket {
		if useFlat {
			return &acc.flat[int64(pt/q.Downsample)-acc.base]
		}
		t := pt
		if q.Downsample > 0 {
			t = float64(int64(pt/q.Downsample)) * q.Downsample
		}
		bi, ok := acc.idx[t]
		if !ok {
			bi = len(acc.buckets)
			acc.buckets = append(acc.buckets, bucket{})
			acc.times = append(acc.times, t)
			acc.idx[t] = bi
		}
		return &acc.buckets[bi]
	}
	for _, ref := range refs {
		acc := lookup(ref.tags)
		ts := sc.ts[ref.lo:ref.hi]
		for k, v := range sc.vs[ref.lo:ref.hi] {
			cell(acc, ts[k]).add(v)
		}
	}
	for _, ref := range coldRefs {
		acc := lookup(ref.tags)
		for _, run := range ref.runs {
			for _, p := range run {
				cell(acc, p.Time).merge(p)
			}
		}
	}

	gatherPool.Put(sc)

	// Phase 3: emit, groups ordered by key, points by time.
	sort.Strings(order)
	out := make([]Result, 0, len(order))
	for _, key := range order {
		acc := groups[key]
		res := acc.res
		if useFlat {
			for i := range acc.flat {
				if acc.flat[i].n == 0 {
					continue
				}
				res.Points = append(res.Points, DataPoint{
					Time:  float64(acc.base+int64(i)) * q.Downsample,
					Value: acc.flat[i].result(q.Aggregate),
				})
			}
		} else {
			times := append([]float64(nil), acc.times...)
			sort.Float64s(times)
			for _, t := range times {
				res.Points = append(res.Points, DataPoint{Time: t, Value: acc.buckets[acc.idx[t]].result(q.Aggregate)})
			}
		}
		out = append(out, *res)
	}
	return out, nil
}

// bucket accumulates values landing in one (group, time) cell.
type bucket struct {
	n   int
	sum float64
	max float64
	min float64
}

func (b *bucket) add(v float64) {
	if b.n == 0 {
		b.max, b.min = v, v
	} else {
		if v > b.max {
			b.max = v
		}
		if v < b.min {
			b.min = v
		}
	}
	b.n++
	b.sum += v
}

// merge folds a pre-aggregated cold bucket in. Because it carries
// (count, sum, min, max), Sum/Avg/Min/Max stay exact no matter how the
// points were downsampled on disk.
func (b *bucket) merge(p segstore.AggPoint) {
	if p.Count == 0 {
		return
	}
	if b.n == 0 {
		b.max, b.min = p.Max, p.Min
	} else {
		if p.Max > b.max {
			b.max = p.Max
		}
		if p.Min < b.min {
			b.min = p.Min
		}
	}
	b.n += int(p.Count)
	b.sum += p.Sum
}

func (b *bucket) result(a Agg) float64 {
	switch a {
	case Sum:
		return b.sum
	case Avg:
		if b.n == 0 {
			return 0
		}
		return b.sum / float64(b.n)
	case Max:
		return b.max
	case Min:
		return b.min
	}
	return 0
}
