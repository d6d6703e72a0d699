package core

import (
	"slices"
	"strings"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// Reducer reduces one job to its Summary as the job's snapshots arrive,
// holding no samples. Per (host, class, instance) it keeps the first and
// last sample time, the previous values and the running rollover-aware
// delta sum of each event column; per host it keeps the interval-indexed
// series the Maximum and catastrophe metrics take their peaks from
// (metadata reqs, Lnet, IB, memory used, cpu user, cpu total) and the
// process-table extremes. State is O(hosts × (series + intervals)),
// whatever the job's length.
//
// Result reproduces the batch reduction's bits: hosts fold in name
// order and each class's instances in name order, as the batch
// reduction folds its series. Two kinds of stream align intervals by
// time where the batch reduction aligned them by each instance's own
// sample index, and may move the interval-indexed fields (MetaDataRate,
// LnetMaxBW, InternodeIBMaxBW, MemUsage, Catastrophe): a host whose time
// repeats or goes backwards, and an instance missing from some snapshot
// that carries its class (one that joins mid-job). Every other field
// stays bit-identical.
//
// Not safe for concurrent use.
type Reducer struct {
	jobID string
	reg   *schema.Registry
	hosts map[string]*hostReduce
}

// NewReducer returns an empty reducer for job id, interpreting records
// against reg.
func NewReducer(jobID string, reg *schema.Registry) *Reducer {
	return &Reducer{jobID: jobID, reg: reg, hosts: make(map[string]*hostReduce)}
}

// Add folds one snapshot into the job. A host's snapshots must arrive
// in its collection order; hosts may interleave freely.
func (r *Reducer) Add(s model.Snapshot) {
	r.host(s.Host).add(r.reg, s.Time, s.Records)
}

func (r *Reducer) host(name string) *hostReduce {
	h := r.hosts[name]
	if h == nil {
		h = &hostReduce{classes: make(map[schema.Class]*classReduce)}
		r.hosts[name] = h
	}
	return h
}

// addJobData feeds jd host by host, regrouping each host's samples into
// the collection sweeps they came from: each step takes the earliest
// next sample over the host's series, with every series whose next
// sample has that time. A series gives at most one sample per sweep, and
// its samples go in its own order.
func (r *Reducer) addJobData(jd *model.JobData) {
	var recs []model.Record
	for _, name := range jd.HostNames() {
		hd, h := jd.Hosts[name], r.host(name)
		classes := make([]schema.Class, 0, len(hd.Series))
		for c := range hd.Series {
			classes = append(classes, c)
		}
		slices.Sort(classes)
		var keys []recKey
		var series []*model.Series
		for _, c := range classes {
			for _, inst := range hd.Instances(c) {
				keys, series = append(keys, recKey{c, inst}), append(series, hd.Series[c][inst])
			}
		}
		next := make([]int, len(series))
		for {
			m := -1
			for i, s := range series {
				if next[i] < len(s.Samples) && (m < 0 || s.Samples[next[i]].Time < series[m].Samples[next[m]].Time) {
					m = i
				}
			}
			if m < 0 {
				break
			}
			t := series[m].Samples[next[m]].Time
			recs = recs[:0]
			for i, s := range series {
				if k := next[i]; k < len(s.Samples) && (i == m || s.Samples[k].Time == t) {
					recs = append(recs, model.Record{Class: keys[i].class, Instance: keys[i].instance, Values: s.Samples[k].Values})
					next[i]++
				}
			}
			h.add(r.reg, t, recs)
		}
	}
}

// Hosts returns the job's hosts in sorted order.
func (r *Reducer) Hosts() []string {
	names := make([]string, 0, len(r.hosts))
	for n := range r.hosts {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Span returns the earliest first and the latest last sample time over
// every series of the job; zeros before any record.
func (r *Reducer) Span() (first, last float64) {
	started := false
	for _, h := range r.hosts {
		for _, c := range h.classes {
			for _, in := range c.insts {
				if in.n == 0 {
					continue
				}
				if !started || in.first < first {
					first = in.first
				}
				if !started || in.last > last {
					last = in.last
				}
				started = true
			}
		}
	}
	return first, last
}

// classKind says what a host keeps for one device class.
type classKind uint8

const (
	kindTimes  classKind = iota // sample times only: a class no metric reads
	kindDeltas                  // delta sums of every event column
	kindMem                     // the memory-used gauge series
	kindPS                      // process-table extremes
)

// deltaClasses are the classes whose counters the metrics read.
var deltaClasses = map[schema.Class]bool{
	schema.ClassCPU: true, schema.ClassPMC: true, schema.ClassIMC: true,
	schema.ClassRAPL: true, schema.ClassIB: true, schema.ClassNet: true,
	schema.ClassLlite: true, schema.ClassMDC: true, schema.ClassOSC: true,
	schema.ClassLnet: true, schema.ClassMIC: true,
}

// recKey names one record of a snapshot.
type recKey struct {
	class    schema.Class
	instance string
}

// hostReduce is one host's share of a job.
type hostReduce struct {
	classes map[schema.Class]*classReduce

	// The record layout of the host's last snapshot: keys[j] names
	// record j and slots[j] holds its series state. A record that
	// repeats its position's key is folded with no lookup.
	keys  []recKey
	slots []*instReduce

	seq     uint64         // snapshots folded
	touched []*classReduce // classes with an interval series in this snapshot

	// One entry per sampling interval of the class: node rates summed
	// over instances, Lnet and IB rx+tx; mem has one entry per sample.
	mdc, lnet, ib, mem, cpuUser, cpuTotal []float64

	maxHWM, maxThreads uint64
}

// classReduce is one host's state for one device class.
type classReduce struct {
	sch   *schema.Schema // nil when the registry lacks the class
	kind  classKind
	insts []*instReduce // sorted by name

	events []int // event-kind columns (kindDeltas)
	// ivl names the interval series the class feeds (MDC, Lnet, IB,
	// CPU, Mem), empty for none; colA and colB are the columns that
	// series or the ps extremes read, -1 when absent.
	ivl        schema.Class
	colA, colB int
	seq        uint64    // the last snapshot that carried the class
	rates      []float64 // per column: one interval's rate, summed over instances
}

// instReduce is one device instance's series state.
type instReduce struct {
	c           *classReduce
	name        string
	n           int
	first, last float64
	prev        []uint64
	sums        []float64 // per column: rollover-aware delta sum

	// The instance's share of snapshot seq's interval: its rate per
	// column when stepped (it had a sample before, earlier in time), or
	// its memory-used gauge.
	seq     uint64
	stepped bool
	rates   []float64
	val     float64
}

func (in *instReduce) observe(t float64) {
	if in.n == 0 {
		in.first = t
	}
	in.last = t
	in.n++
}

func newClassReduce(reg *schema.Registry, c schema.Class) *classReduce {
	cr := &classReduce{sch: reg.Get(c), colA: -1, colB: -1}
	if cr.sch == nil {
		return cr
	}
	idx := cr.sch.Index
	switch {
	case c == schema.ClassPS:
		cr.kind, cr.colA, cr.colB = kindPS, idx(schema.EvPSVmHWM), idx(schema.EvPSThreads)
	case c == schema.ClassMem:
		cr.kind, cr.ivl, cr.colA = kindMem, c, idx(schema.EvMemUsed)
	case deltaClasses[c]:
		cr.kind = kindDeltas
		for i, e := range cr.sch.Events {
			if e.Kind == schema.Event {
				cr.events = append(cr.events, i)
			}
		}
		var a, b string
		switch c {
		case schema.ClassMDC:
			a = schema.EvMDCReqs
		case schema.ClassLnet:
			a, b = schema.EvLnetRxBytes, schema.EvLnetTxBytes
		case schema.ClassIB:
			a, b = schema.EvIBRxBytes, schema.EvIBTxBytes
		case schema.ClassCPU:
			a = schema.EvCPUUser
		}
		if a != "" {
			cr.ivl, cr.colA = c, idx(a)
			if b != "" {
				cr.colB = idx(b)
			}
			cr.rates = make([]float64, len(cr.sch.Events))
		}
	}
	return cr
}

// inst returns the class's state for instance name, creating it in name
// order on first sight.
func (c *classReduce) inst(name string) *instReduce {
	i, found := slices.BinarySearchFunc(c.insts, name, func(in *instReduce, n string) int {
		return strings.Compare(in.name, n)
	})
	if found {
		return c.insts[i]
	}
	in := &instReduce{c: c, name: name}
	if c.kind == kindDeltas {
		in.sums = make([]float64, len(c.sch.Events))
		if c.ivl != "" {
			in.rates = make([]float64, len(c.sch.Events))
		}
	}
	c.insts = slices.Insert(c.insts, i, in)
	return in
}

// duration is the class's longest instance span, as the batch
// reduction's per-series Duration.
func (c *classReduce) duration() float64 {
	d := 0.0
	for _, in := range c.insts {
		if in.n >= 2 && in.last-in.first > d {
			d = in.last - in.first
		}
	}
	return d
}

// add folds one snapshot's records, taken at t, into the host. Records
// fold in arrival order; each interval series then sums the instances'
// shares in name order.
func (h *hostReduce) add(reg *schema.Registry, t float64, recs []model.Record) {
	h.seq++
	h.touched = h.touched[:0]
	h.keys = slices.Grow(h.keys[:0], len(recs))[:len(recs)]
	h.slots = slices.Grow(h.slots[:0], len(recs))[:len(recs)]
	for j, rec := range recs {
		in := h.slots[j]
		if k := h.keys[j]; in == nil || rec.Class != k.class || rec.Instance != k.instance {
			in = h.resolve(reg, rec)
			h.keys[j], h.slots[j] = recKey{rec.Class, rec.Instance}, in
		}
		c, vals := in.c, rec.Values
		// A record whose value count disagrees with the schema is
		// counted as a sample only.
		if c.sch != nil && len(vals) == len(c.sch.Events) {
			switch c.kind {
			case kindDeltas:
				h.foldDeltas(in, t, vals)
			case kindMem:
				if c.colA >= 0 {
					h.touch(c)
					in.seq, in.val = h.seq, float64(vals[c.colA])
				}
			case kindPS:
				if c.colA >= 0 && vals[c.colA] > h.maxHWM {
					h.maxHWM = vals[c.colA]
				}
				if c.colB >= 0 && vals[c.colB] > h.maxThreads {
					h.maxThreads = vals[c.colB]
				}
			}
		}
		in.observe(t)
	}
	for _, c := range h.touched {
		h.step(c)
	}
}

// resolve returns the series state of rec's (class, instance), creating
// the class and instance on first sight.
func (h *hostReduce) resolve(reg *schema.Registry, rec model.Record) *instReduce {
	c := h.classes[rec.Class]
	if c == nil {
		c = newClassReduce(reg, rec.Class)
		h.classes[rec.Class] = c
	}
	return c.inst(rec.Instance)
}

// touch notes that the current snapshot carries c's interval series.
func (h *hostReduce) touch(c *classReduce) {
	if c.seq != h.seq {
		c.seq = h.seq
		h.touched = append(h.touched, c)
	}
}

// foldDeltas adds the instance's deltas since its previous sample to
// its sums and, for a class that feeds an interval series, notes its
// rate over the interval: the first of the snapshot's records of the
// instance that comes later in time than its previous sample.
func (h *hostReduce) foldDeltas(in *instReduce, t float64, vals []uint64) {
	c := in.c
	if c.ivl != "" {
		h.touch(c)
		if in.seq != h.seq {
			in.seq, in.stepped = h.seq, false
		}
	}
	if in.n > 0 && len(in.prev) == len(vals) {
		dt := t - in.last
		step := c.ivl != "" && dt > 0 && !in.stepped
		for _, e := range c.events {
			d := float64(schema.RolloverDelta(in.prev[e], vals[e], c.sch.Events[e]))
			in.sums[e] += d
			if step {
				in.rates[e] = d / dt
			}
		}
		in.stepped = in.stepped || step
	}
	in.prev = append(in.prev[:0], vals...)
}

// step appends the current snapshot's entry to c's interval series:
// the instances' shares summed in name order. A counter class with no
// instance stepped adds no interval.
func (h *hostReduce) step(c *classReduce) {
	if c.kind == kindMem {
		sum := 0.0
		for _, in := range c.insts {
			if in.seq == h.seq {
				sum += in.val
			}
		}
		h.mem = append(h.mem, sum)
		return
	}
	clear(c.rates)
	stepped := false
	for _, in := range c.insts {
		if in.seq != h.seq || !in.stepped {
			continue
		}
		stepped = true
		for _, e := range c.events {
			c.rates[e] += in.rates[e]
		}
	}
	if !stepped || c.colA < 0 {
		return
	}
	r := c.rates
	switch c.ivl {
	case schema.ClassMDC:
		h.mdc = append(h.mdc, r[c.colA])
	case schema.ClassLnet:
		if c.colB >= 0 {
			h.lnet = append(h.lnet, r[c.colA]+r[c.colB])
		}
	case schema.ClassIB:
		if c.colB >= 0 {
			h.ib = append(h.ib, r[c.colA]+r[c.colB])
		}
	case schema.ClassCPU:
		h.cpuUser = append(h.cpuUser, r[c.colA])
		total := 0.0
		for _, e := range c.events {
			total += r[e]
		}
		h.cpuTotal = append(h.cpuTotal, total)
	}
}

// duration is the host's observation span: its longest series.
func (h *hostReduce) duration() float64 {
	d := 0.0
	for _, c := range h.classes {
		if cd := c.duration(); cd > d {
			d = cd
		}
	}
	return d
}

// rate is the host's average rate of change of a cumulative event:
// the delta sums of the class's instances, added in name order, over
// the class's longest span. Absent devices yield 0.
func (h *hostReduce) rate(c schema.Class, ev string) float64 {
	cr := h.classes[c]
	if cr == nil || cr.kind != kindDeltas {
		return 0
	}
	i := cr.sch.Index(ev)
	if i < 0 {
		return 0
	}
	total, dur := 0.0, 0.0
	for _, in := range cr.insts {
		if in.n < 2 {
			continue
		}
		if d := in.last - in.first; d > dur {
			dur = d
		}
		total += in.sums[i]
	}
	if dur <= 0 {
		return 0
	}
	return total / dur
}

// cpuTotalRate is the sum of the rates of every cpu jiffy column — the
// denominator of CPU_Usage.
func (h *hostReduce) cpuTotalRate() float64 {
	cr := h.classes[schema.ClassCPU]
	if cr == nil || cr.kind != kindDeltas {
		return 0
	}
	total := 0.0
	for _, e := range cr.events {
		total += h.rate(schema.ClassCPU, cr.sch.Events[e].Name)
	}
	return total
}
