package core

// The oracle: the batch reductions as they stood before Reducer, frozen
// verbatim but for names, over the assembled per-job series they read
// (refJobData, once the pipeline's own JobData). refCompute (Table I)
// and refTimeSeries (the Fig 5 panels) read a job's whole series, one
// series at a time; the Reducer must reproduce their bits from the same
// data fed one snapshot at a time. Do not edit them to follow the
// Reducer: a change in the Table I or panel arithmetic is a change to
// both, made on purpose and declared.

import (
	"fmt"
	"math"
	"sort"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// refSample is one timestamped value vector in a per-job, per-host,
// per-instance series.
type refSample struct {
	Time   float64
	Values []uint64
}

// refSeries is an ordered-by-time list of samples for one device instance.
type refSeries struct {
	Class    schema.Class
	Instance string
	Samples  []refSample
}

// Duration returns the time span covered by the series (0 for fewer than
// two samples).
func (s *refSeries) Duration() float64 {
	if len(s.Samples) < 2 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].Time - s.Samples[0].Time
}

// refHostData holds every series collected for one host during one job.
type refHostData struct {
	Host   string
	Series map[schema.Class]map[string]*refSeries // class -> instance -> series
}

// Append adds one record at the given time to the host's series.
func (h *refHostData) Append(t float64, r model.Record) {
	byInst := h.Series[r.Class]
	if byInst == nil {
		byInst = make(map[string]*refSeries)
		h.Series[r.Class] = byInst
	}
	s := byInst[r.Instance]
	if s == nil {
		s = &refSeries{Class: r.Class, Instance: r.Instance}
		byInst[r.Instance] = s
	}
	v := make([]uint64, len(r.Values))
	copy(v, r.Values)
	s.Samples = append(s.Samples, refSample{Time: t, Values: v})
}

// Instances returns the sorted instance names present for a class.
func (h *refHostData) Instances(c schema.Class) []string {
	byInst := h.Series[c]
	names := make([]string, 0, len(byInst))
	for n := range byInst {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// refJobData is the fully assembled per-job dataset: one refHostData per
// node the job ran on.
type refJobData struct {
	JobID string
	Hosts map[string]*refHostData
}

func refNewJobData(id string) *refJobData {
	return &refJobData{JobID: id, Hosts: make(map[string]*refHostData)}
}

// HostNames returns the job's hosts in sorted order.
func (j *refJobData) HostNames() []string {
	names := make([]string, 0, len(j.Hosts))
	for n := range j.Hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddSnapshot folds a snapshot into the job's per-host series.
func (j *refJobData) AddSnapshot(s model.Snapshot) {
	h := j.Hosts[s.Host]
	if h == nil {
		h = &refHostData{Host: s.Host, Series: make(map[schema.Class]map[string]*refSeries)}
		j.Hosts[s.Host] = h
	}
	for _, r := range s.Records {
		h.Append(s.Time, r)
	}
}

// refCompute reduces a job's assembled series to its Summary, crediting
// vecWidth flops per vector FP instruction (2 for SSE-era cores, 4 for
// AVX, 8 for the Phi). reg supplies the schemas the series were
// collected under.
func refCompute(jd *refJobData, reg *schema.Registry, vecWidth int) (*Summary, error) {
	if vecWidth <= 0 {
		return nil, fmt.Errorf("core: vector width %d, want a positive flops count", vecWidth)
	}
	hosts := jd.HostNames()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("%w %s: no hosts", ErrInsufficient, jd.JobID)
	}
	s := &Summary{JobID: jd.JobID, Nodes: len(hosts)}

	var (
		cpuUsages []float64 // per-node CPU_Usage for idle metric
		durSum    float64
	)
	// Per-node average accumulators; index matches the metric fields.
	avg := refNewMeans()

	// Per-interval node-summed series for Maximum metrics and
	// refCatastrophe; aligned by interval index.
	maxMDC := refNewIntervalSum()
	maxLnet := refNewIntervalSum()
	maxIB := refNewIntervalSum()
	maxMem := refNewIntervalSum()
	catUser := refNewIntervalSum()
	catTotal := refNewIntervalSum()

	for _, host := range hosts {
		hd := jd.Hosts[host]
		dur := refHostDuration(hd)
		if dur <= 0 {
			return nil, fmt.Errorf("%w %s: host %s", ErrInsufficient, jd.JobID, host)
		}
		durSum += dur
		h := refNewHostReducer(hd, reg)

		// --- Lustre ---
		mdcReqs := h.rate(schema.ClassMDC, schema.EvMDCReqs)
		avg.add("mdcreqs", mdcReqs)
		avg.add("oscreqs", h.rate(schema.ClassOSC, schema.EvOSCReqs))
		avg.add("mdcwait", h.rate(schema.ClassMDC, schema.EvMDCWaitUs))
		avg.add("oscwait", h.rate(schema.ClassOSC, schema.EvOSCWaitUs))
		avg.add("openclose", h.rate(schema.ClassLlite, schema.EvLliteOpen)+
			h.rate(schema.ClassLlite, schema.EvLliteClose))
		lnet := h.rate(schema.ClassLnet, schema.EvLnetRxBytes) +
			h.rate(schema.ClassLnet, schema.EvLnetTxBytes)
		avg.add("lnetbw", lnet)

		// --- Network ---
		ib := h.rate(schema.ClassIB, schema.EvIBRxBytes) +
			h.rate(schema.ClassIB, schema.EvIBTxBytes)
		mpi := ib - lnet
		if mpi < 0 {
			mpi = 0
		}
		avg.add("ibbw", mpi)
		avg.add("ibbytes", ib)
		avg.add("ibpkts", h.rate(schema.ClassIB, schema.EvIBRxPkts)+
			h.rate(schema.ClassIB, schema.EvIBTxPkts))
		avg.add("gige", h.rate(schema.ClassNet, schema.EvNetRxBytes)+
			h.rate(schema.ClassNet, schema.EvNetTxBytes))

		// --- Processor ---
		cycles := h.rate(schema.ClassPMC, schema.EvPMCCycles)
		instrs := h.rate(schema.ClassPMC, schema.EvPMCInstrs)
		scalar := h.rate(schema.ClassPMC, schema.EvPMCFPScalar)
		vector := h.rate(schema.ClassPMC, schema.EvPMCFPVector)
		loads := h.rate(schema.ClassPMC, schema.EvPMCLoadAll)
		avg.add("cycles", cycles)
		avg.add("instrs", instrs)
		avg.add("scalar", scalar)
		avg.add("vector", vector)
		avg.add("loads", loads)
		avg.add("l1", h.rate(schema.ClassPMC, schema.EvPMCLoadL1Hit))
		avg.add("l2", h.rate(schema.ClassPMC, schema.EvPMCLoadL2Hit))
		avg.add("llc", h.rate(schema.ClassPMC, schema.EvPMCLoadLLCHit))
		avg.add("membw", 64*(h.rate(schema.ClassIMC, schema.EvIMCCASReads)+
			h.rate(schema.ClassIMC, schema.EvIMCCASWrites)))

		// --- Energy (mJ/s -> W) ---
		avg.add("pkgw", h.rate(schema.ClassRAPL, schema.EvRAPLPkg)/1000)
		avg.add("corew", h.rate(schema.ClassRAPL, schema.EvRAPLCore)/1000)
		avg.add("dramw", h.rate(schema.ClassRAPL, schema.EvRAPLDRAM)/1000)

		// --- OS ---
		user := h.rate(schema.ClassCPU, schema.EvCPUUser)
		total := h.cpuTotalRate()
		cu := 0.0
		if total > 0 {
			cu = user / total
		}
		cpuUsages = append(cpuUsages, cu)
		avg.add("cpuusage", cu)

		micUser := h.rate(schema.ClassMIC, schema.EvMICUser)
		micAll := micUser + h.rate(schema.ClassMIC, schema.EvMICSys) +
			h.rate(schema.ClassMIC, schema.EvMICIdle)
		mu := 0.0
		if micAll > 0 {
			mu = micUser / micAll
		}
		avg.add("mic", mu)

		// --- Maximum metrics: per-interval node series ---
		maxMDC.addHost(h.intervalRates(schema.ClassMDC, schema.EvMDCReqs))
		maxLnet.addHost(refSumSeries(
			h.intervalRates(schema.ClassLnet, schema.EvLnetRxBytes),
			h.intervalRates(schema.ClassLnet, schema.EvLnetTxBytes)))
		ibSeries := refSumSeries(
			h.intervalRates(schema.ClassIB, schema.EvIBRxBytes),
			h.intervalRates(schema.ClassIB, schema.EvIBTxBytes))
		lnetSeries := refSumSeries(
			h.intervalRates(schema.ClassLnet, schema.EvLnetRxBytes),
			h.intervalRates(schema.ClassLnet, schema.EvLnetTxBytes))
		maxIB.addHost(refSubSeriesClamped(ibSeries, lnetSeries))
		maxMem.addHost(h.gaugeSeries(schema.ClassMem, schema.EvMemUsed))

		userSeries := h.intervalRates(schema.ClassCPU, schema.EvCPUUser)
		catUser.addHost(userSeries)
		catTotal.addHost(h.cpuTotalIntervalRates())

		// --- Process table extremes ---
		hwm, threads := h.processExtremes()
		if hwm > s.MaxVmHWM {
			s.MaxVmHWM = hwm
		}
		if threads > s.MaxThreads {
			s.MaxThreads = threads
		}
	}

	n := float64(len(hosts))
	s.Duration = durSum / n

	// Average metrics.
	s.MDCReqs = avg.mean("mdcreqs")
	s.OSCReqs = avg.mean("oscreqs")
	s.MDCWait = refRatio(avg.mean("mdcwait"), avg.mean("mdcreqs"))
	s.OSCWait = refRatio(avg.mean("oscwait"), avg.mean("oscreqs"))
	s.LLiteOpenClose = avg.mean("openclose")
	s.LnetAveBW = avg.mean("lnetbw")
	s.InternodeIBAveBW = avg.mean("ibbw")
	s.PacketSize = refRatio(avg.mean("ibbytes"), avg.mean("ibpkts"))
	s.PacketRate = avg.mean("ibpkts")
	s.GigEBW = avg.mean("gige")
	s.LoadAll = avg.mean("loads")
	s.LoadL1Hits = avg.mean("l1")
	s.LoadL2Hits = avg.mean("l2")
	s.LoadLLCHits = avg.mean("llc")
	s.CPI = refRatio(avg.mean("cycles"), avg.mean("instrs"))
	s.CPLD = refRatio(avg.mean("cycles"), avg.mean("loads"))
	s.Flops = avg.mean("scalar") + float64(vecWidth)*avg.mean("vector")
	s.VecPercent = refRatio(avg.mean("vector"), avg.mean("scalar")+avg.mean("vector"))
	s.MemBW = avg.mean("membw")
	s.PkgWatts = avg.mean("pkgw")
	s.CoreWatts = avg.mean("corew")
	s.DRAMWatts = avg.mean("dramw")
	s.CPUUsage = avg.mean("cpuusage")
	s.MICUsage = avg.mean("mic")

	// Maximum metrics.
	s.MetaDataRate = maxMDC.max()
	s.LnetMaxBW = maxLnet.max()
	s.InternodeIBMaxBW = maxIB.max()
	s.MemUsage = maxMem.max()

	// Imbalance metrics.
	s.Idle = refMinOverMax(cpuUsages)
	s.Catastrophe = refCatastrophe(catUser.sums, catTotal.sums)

	return s, nil
}

// refRatio forms a/b, 0 when b is 0.
func refRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// refMinOverMax returns min(xs)/max(xs) in [0,1]; 0 for empty or all-zero.
func refMinOverMax(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return refRatio(lo, hi)
}

// refCatastrophe computes the time-imbalance metric: per interval, the
// node-summed user rate over the node-summed total rate; then min/max of
// that usage across intervals.
func refCatastrophe(user, total []float64) float64 {
	n := len(user)
	if len(total) < n {
		n = len(total)
	}
	var usages []float64
	for i := 0; i < n; i++ {
		if total[i] > 0 {
			usages = append(usages, user[i]/total[i])
		}
	}
	return refMinOverMax(usages)
}

// refMeans is a tiny named-accumulator map used by refCompute.
type refMeans struct {
	sum map[string]float64
	n   map[string]int
}

func refNewMeans() *refMeans {
	return &refMeans{sum: map[string]float64{}, n: map[string]int{}}
}

// add folds a per-node value into the named mean. NaN values (from
// missing devices) are skipped so one instrument gap doesn't poison the
// job.
func (m *refMeans) add(key string, v float64) {
	if math.IsNaN(v) {
		return
	}
	m.sum[key] += v
	m.n[key]++
}

func (m *refMeans) mean(key string) float64 {
	if m.n[key] == 0 {
		return 0
	}
	return m.sum[key] / float64(m.n[key])
}

// refIntervalSum accumulates node-summed per-interval series aligned by
// interval index.
type refIntervalSum struct {
	sums []float64
}

func refNewIntervalSum() *refIntervalSum { return &refIntervalSum{} }

func (is *refIntervalSum) addHost(rates []float64) {
	for i, r := range rates {
		if i < len(is.sums) {
			is.sums[i] += r
		} else {
			is.sums = append(is.sums, r)
		}
	}
}

func (is *refIntervalSum) max() float64 {
	m := 0.0
	for _, v := range is.sums {
		if v > m {
			m = v
		}
	}
	return m
}

// refSumSeries adds two per-interval series element-wise (shorter length
// wins).
func refSumSeries(a, b []float64) []float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = a[i] + b[i]
	}
	return out
}

// refSubSeriesClamped subtracts b from a element-wise, clamping at zero.
func refSubSeriesClamped(a, b []float64) []float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = a[i] - b[i]
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// refHostReducer performs the per-host counter reductions: total ARC rates,
// per-interval rates, and gauge series, all schema-aware.
type refHostReducer struct {
	hd  *refHostData
	reg *schema.Registry
}

func refNewHostReducer(hd *refHostData, reg *schema.Registry) *refHostReducer {
	return &refHostReducer{hd: hd, reg: reg}
}

// refTimeSeries derives the Fig 5 panels from assembled job data:
// Gigaflops, memory bandwidth (GB/s), memory usage (GB), Lustre
// filesystem bandwidth (MB/s), internode Infiniband traffic (MB/s), and
// CPU user fraction — per node, per sampling interval. The Gigaflops
// panel credits vecWidth flops per vector FP instruction, as refCompute.
func refTimeSeries(jd *refJobData, reg *schema.Registry, vecWidth int) (*JobSeries, error) {
	if vecWidth <= 0 {
		return nil, fmt.Errorf("core: vector width %d, want a positive flops count", vecWidth)
	}
	hosts := jd.HostNames()
	if len(hosts) == 0 {
		return nil, ErrInsufficient
	}
	js := &JobSeries{JobID: jd.JobID}
	panels := []struct {
		name, unit string
		f          func(h *refHostReducer) []float64
	}{
		{"Gigaflops", "GF/s", func(h *refHostReducer) []float64 {
			scalar := h.intervalRates(schema.ClassPMC, schema.EvPMCFPScalar)
			vector := h.intervalRates(schema.ClassPMC, schema.EvPMCFPVector)
			out := make([]float64, min(len(scalar), len(vector)))
			for i := range out {
				out[i] = (scalar[i] + float64(vecWidth)*vector[i]) / 1e9
			}
			return out
		}},
		{"Memory Bandwidth", "GB/s", func(h *refHostReducer) []float64 {
			rd := h.intervalRates(schema.ClassIMC, schema.EvIMCCASReads)
			wr := h.intervalRates(schema.ClassIMC, schema.EvIMCCASWrites)
			out := make([]float64, min(len(rd), len(wr)))
			for i := range out {
				out[i] = 64 * (rd[i] + wr[i]) / 1e9
			}
			return out
		}},
		{"Memory Usage", "GB", func(h *refHostReducer) []float64 {
			g := h.gaugeSeries(schema.ClassMem, schema.EvMemUsed)
			out := make([]float64, 0, len(g))
			// Gauge series has one entry per sample; panels are
			// per-interval, so drop the first sample to align.
			for i, v := range g {
				if i == 0 {
					continue
				}
				out = append(out, v/(1<<30))
			}
			return out
		}},
		{"Lustre Bandwidth", "MB/s", func(h *refHostReducer) []float64 {
			rx := h.intervalRates(schema.ClassLnet, schema.EvLnetRxBytes)
			tx := h.intervalRates(schema.ClassLnet, schema.EvLnetTxBytes)
			out := make([]float64, min(len(rx), len(tx)))
			for i := range out {
				out[i] = (rx[i] + tx[i]) / 1e6
			}
			return out
		}},
		{"Internode IB (MPI)", "MB/s", func(h *refHostReducer) []float64 {
			ib := refSumSeries(
				h.intervalRates(schema.ClassIB, schema.EvIBRxBytes),
				h.intervalRates(schema.ClassIB, schema.EvIBTxBytes))
			lnet := refSumSeries(
				h.intervalRates(schema.ClassLnet, schema.EvLnetRxBytes),
				h.intervalRates(schema.ClassLnet, schema.EvLnetTxBytes))
			mpi := refSubSeriesClamped(ib, lnet)
			for i := range mpi {
				mpi[i] /= 1e6
			}
			return mpi
		}},
		{"CPU User Fraction", "", func(h *refHostReducer) []float64 {
			user := h.intervalRates(schema.ClassCPU, schema.EvCPUUser)
			total := h.cpuTotalIntervalRates()
			out := make([]float64, min(len(user), len(total)))
			for i := range out {
				if total[i] > 0 {
					out[i] = user[i] / total[i]
				}
			}
			return out
		}},
	}

	times := refSampleTimes(jd.Hosts[hosts[0]])
	for _, p := range panels {
		panel := Panel{Name: p.name, Unit: p.unit, Times: times}
		for _, host := range hosts {
			h := refNewHostReducer(jd.Hosts[host], reg)
			panel.Nodes = append(panel.Nodes, NodeSeries{Host: host, Values: p.f(h)})
		}
		js.Panels = append(js.Panels, panel)
	}
	return js, nil
}

// refSampleTimes extracts the host's interval end times from its cpu series.
func refSampleTimes(hd *refHostData) []float64 {
	byInst := hd.Series[schema.ClassCPU]
	for _, s := range byInst {
		out := make([]float64, 0, len(s.Samples))
		for i, smp := range s.Samples {
			if i == 0 {
				continue
			}
			out = append(out, smp.Time)
		}
		return out
	}
	return nil
}

// refHostDuration returns the host's observation span, taken from its
// longest series (prolog to epilog).
func refHostDuration(hd *refHostData) float64 {
	best := 0.0
	for _, byInst := range hd.Series {
		for _, s := range byInst {
			if d := s.Duration(); d > best {
				best = d
			}
		}
	}
	return best
}

// eventDef resolves the schema definition for class/event, returning the
// column index too. ok is false when the class or event is unknown (the
// device is absent on this node).
func (h *refHostReducer) eventDef(c schema.Class, ev string) (schema.EventDef, int, bool) {
	sch := h.reg.Get(c)
	if sch == nil {
		return schema.EventDef{}, 0, false
	}
	i := sch.Index(ev)
	if i < 0 {
		return schema.EventDef{}, 0, false
	}
	return sch.Events[i], i, true
}

// rate returns the host's average rate of change for a cumulative event,
// summed over the class's instances in name order, so the sum's bits
// never depend on map order: sum(deltas)/duration. Absent devices
// yield 0.
func (h *refHostReducer) rate(c schema.Class, ev string) float64 {
	def, idx, ok := h.eventDef(c, ev)
	if !ok {
		return 0
	}
	byInst := h.hd.Series[c]
	total := 0.0
	dur := 0.0
	for _, inst := range h.hd.Instances(c) {
		s := byInst[inst]
		if len(s.Samples) < 2 {
			continue
		}
		if d := s.Duration(); d > dur {
			dur = d
		}
		for i := 1; i < len(s.Samples); i++ {
			total += float64(schema.RolloverDelta(
				s.Samples[i-1].Values[idx], s.Samples[i].Values[idx], def))
		}
	}
	if dur <= 0 {
		return 0
	}
	return total / dur
}

// intervalRates returns, for each sampling interval, the event's delta
// rate summed over the class's instances. Interval boundaries follow the
// first instance's timestamps (all instances of one host are sampled in
// the same sweep).
func (h *refHostReducer) intervalRates(c schema.Class, ev string) []float64 {
	def, idx, ok := h.eventDef(c, ev)
	if !ok {
		return nil
	}
	byInst := h.hd.Series[c]
	var out []float64
	for _, inst := range h.hd.Instances(c) {
		s := byInst[inst]
		for i := 1; i < len(s.Samples); i++ {
			dt := s.Samples[i].Time - s.Samples[i-1].Time
			if dt <= 0 {
				continue
			}
			r := float64(schema.RolloverDelta(
				s.Samples[i-1].Values[idx], s.Samples[i].Values[idx], def)) / dt
			k := i - 1
			if k < len(out) {
				out[k] += r
			} else {
				out = append(out, r)
			}
		}
	}
	return out
}

// gaugeSeries returns the gauge's per-sample value summed over
// instances, one entry per collection.
func (h *refHostReducer) gaugeSeries(c schema.Class, ev string) []float64 {
	_, idx, ok := h.eventDef(c, ev)
	if !ok {
		return nil
	}
	byInst := h.hd.Series[c]
	var out []float64
	for _, inst := range h.hd.Instances(c) {
		s := byInst[inst]
		for i, smp := range s.Samples {
			v := float64(smp.Values[idx])
			if i < len(out) {
				out[i] += v
			} else {
				out = append(out, v)
			}
		}
	}
	return out
}

// cpuTotalRate is the ARC of all cpu jiffy columns summed — the
// denominator of CPU_Usage.
func (h *refHostReducer) cpuTotalRate() float64 {
	sch := h.reg.Get(schema.ClassCPU)
	if sch == nil {
		return 0
	}
	total := 0.0
	for _, e := range sch.Events {
		if e.Kind == schema.Event {
			total += h.rate(schema.ClassCPU, e.Name)
		}
	}
	return total
}

// cpuTotalIntervalRates is the per-interval analogue of cpuTotalRate.
func (h *refHostReducer) cpuTotalIntervalRates() []float64 {
	sch := h.reg.Get(schema.ClassCPU)
	if sch == nil {
		return nil
	}
	var out []float64
	for _, e := range sch.Events {
		if e.Kind != schema.Event {
			continue
		}
		out = refSumOrExtend(out, h.intervalRates(schema.ClassCPU, e.Name))
	}
	return out
}

// refSumOrExtend element-wise adds src into dst, growing dst as needed.
func refSumOrExtend(dst, src []float64) []float64 {
	for i, v := range src {
		if i < len(dst) {
			dst[i] += v
		} else {
			dst = append(dst, v)
		}
	}
	return dst
}

// processExtremes scans the host's ps series for the largest VmHWM and
// thread count seen on any process at any sample.
func (h *refHostReducer) processExtremes() (maxHWM, maxThreads uint64) {
	sch := h.reg.Get(schema.ClassPS)
	if sch == nil {
		return 0, 0
	}
	iHWM := sch.Index(schema.EvPSVmHWM)
	iThr := sch.Index(schema.EvPSThreads)
	for _, s := range h.hd.Series[schema.ClassPS] {
		for _, smp := range s.Samples {
			if iHWM >= 0 && smp.Values[iHWM] > maxHWM {
				maxHWM = smp.Values[iHWM]
			}
			if iThr >= 0 && smp.Values[iThr] > maxThreads {
				maxThreads = smp.Values[iThr]
			}
		}
	}
	return maxHWM, maxThreads
}
