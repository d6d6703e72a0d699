package core

import (
	"slices"
	"strings"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// Reducer reduces one job to its Summary and its Fig 5 panels as the
// job's snapshots arrive, holding no samples. Per (host, class,
// instance) it keeps the first and last sample time, the previous
// values and the running rollover-aware delta sum of each event column;
// per host it keeps the interval-indexed series the Maximum and
// catastrophe metrics take their peaks from (metadata reqs, Lnet, IB,
// memory used, cpu user, cpu total), the ones only the panels read
// (scalar and vector flops, IMC CAS reads+writes, the memory gauge at
// each interval's end, the cpu intervals' end times) and the
// process-table extremes. State is O(hosts × (series + intervals)),
// whatever the job's length.
//
// Result and Panels reproduce the batch reduction's bits: hosts fold in
// name order and each class's instances in name order, as the batch
// reduction folds its series. Two kinds of stream align intervals by
// time where the batch reduction aligned them by each instance's own
// sample index, and may move the interval-indexed fields (MetaDataRate,
// LnetMaxBW, InternodeIBMaxBW, MemUsage, Catastrophe) and the panels: a
// host whose time repeats or goes backwards, and an instance missing
// from some snapshot that carries its class (one that joins mid-job).
// Every other field stays bit-identical.
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
	// over instances, Lnet and IB rx+tx, IMC CAS reads+writes; mem has
	// one entry per sample and memEnd one per interval of the mem
	// class, the gauge of the snapshot that closes it; ends holds the
	// end times of the cpu intervals.
	mdc, lnet, ib, mem, cpuUser, cpuTotal []float64
	fpScalar, fpVector, cas, memEnd, ends []float64

	maxHWM, maxThreads uint64
}

// classReduce is one host's state for one device class.
type classReduce struct {
	sch   *schema.Schema // nil when the registry lacks the class
	kind  classKind
	insts []*instReduce // sorted by name

	events []int // event-kind columns (kindDeltas)
	// ivl names the interval series the class feeds (MDC, Lnet, IB,
	// CPU, PMC, IMC, Mem), empty for none; colA and colB are the columns
	// that series or the ps extremes read, -1 when absent. rated lists
	// the columns the series read, which alone get a per-interval rate:
	// colA and colB, or every event column of cpu.
	ivl        schema.Class
	colA, colB int
	rated      []int
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
	// rated column when stepped (it had a sample before, earlier in
	// time), or its memory-used gauge.
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
		case schema.ClassPMC:
			a, b = schema.EvPMCFPScalar, schema.EvPMCFPVector
		case schema.ClassIMC:
			a, b = schema.EvIMCCASReads, schema.EvIMCCASWrites
		case schema.ClassCPU:
			a = schema.EvCPUUser
		}
		if a != "" {
			cr.ivl, cr.colA = c, idx(a)
			if b != "" {
				cr.colB = idx(b)
			}
			cr.rates = make([]float64, len(cr.sch.Events))
			for _, e := range cr.events {
				if c == schema.ClassCPU || e == cr.colA || e == cr.colB {
					cr.rated = append(cr.rated, e)
				}
			}
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
					if in.seq != h.seq {
						in.seq, in.stepped = h.seq, false
					}
					in.val = float64(vals[c.colA])
					in.stepped = in.stepped || in.n > 0 && t > in.last
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
		h.step(c, t)
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
// rates over the interval in the rated columns: the first of the
// snapshot's records of the instance that comes later in time than its
// previous sample.
func (h *hostReduce) foldDeltas(in *instReduce, t float64, vals []uint64) {
	c := in.c
	if c.ivl != "" {
		h.touch(c)
		if in.seq != h.seq {
			in.seq, in.stepped = h.seq, false
		}
	}
	if in.n > 0 && len(in.prev) == len(vals) {
		for _, e := range c.events {
			in.sums[e] += c.delta(in.prev, vals, e)
		}
		if dt := t - in.last; c.ivl != "" && dt > 0 && !in.stepped {
			for _, e := range c.rated {
				in.rates[e] = c.delta(in.prev, vals, e) / dt
			}
			in.stepped = true
		}
	}
	in.prev = append(in.prev[:0], vals...)
}

// delta is column e's rollover-aware increase from prev to cur.
func (c *classReduce) delta(prev, cur []uint64, e int) float64 {
	if p, v := prev[e], cur[e]; v >= p {
		return float64(v - p)
	}
	return float64(schema.RolloverDelta(prev[e], cur[e], c.sch.Events[e]))
}

// step appends the current snapshot's entry, taken at t, to c's
// interval series: the instances' shares summed in name order. A class
// with no instance stepped adds no interval; the mem class still adds
// its per-sample entry.
func (h *hostReduce) step(c *classReduce, t float64) {
	if c.kind == kindMem {
		sum, stepped := 0.0, false
		for _, in := range c.insts {
			if in.seq == h.seq {
				sum += in.val
				stepped = stepped || in.stepped
			}
		}
		h.mem = append(h.mem, sum)
		if stepped {
			h.memEnd = append(h.memEnd, sum)
		}
		return
	}
	clear(c.rates)
	stepped := false
	for _, in := range c.insts {
		if in.seq != h.seq || !in.stepped {
			continue
		}
		stepped = true
		for _, e := range c.rated {
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
	case schema.ClassPMC:
		if c.colB >= 0 {
			h.fpScalar, h.fpVector = append(h.fpScalar, r[c.colA]), append(h.fpVector, r[c.colB])
		}
	case schema.ClassIMC:
		if c.colB >= 0 {
			h.cas = append(h.cas, r[c.colA]+r[c.colB])
		}
	case schema.ClassCPU:
		h.cpuUser = append(h.cpuUser, r[c.colA])
		total := 0.0
		for _, e := range c.rated {
			total += r[e]
		}
		h.cpuTotal = append(h.cpuTotal, total)
		h.ends = append(h.ends, t)
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
