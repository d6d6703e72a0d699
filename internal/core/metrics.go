// Package core implements the paper's primary contribution: the per-job
// metric engine that reduces raw per-host counter series to the Table I
// summary metrics.
//
// Two reduction shapes exist, exactly as §IV-A defines them:
//
//   - Average metrics are Average Rate of Change (ARC): the counter's
//     total delta over the job divided by the job duration, computed per
//     node (summing device instances) and then averaged over nodes.
//   - Maximum metrics take the per-interval delta rate on each node,
//     sum it across nodes, and report the largest interval. They are an
//     approximation to the peak instantaneous rate.
//
// Ratios are formed from already-averaged numerators and denominators
// (§IV-A: "the averages are computed before the ratio is formed"), and
// all counters are decoded rollover-aware against their schema widths.
package core

import (
	"errors"
	"fmt"
	"math"

	"gostats/internal/schema"
)

// ErrInsufficient reports a job without the minimum two samples per node
// the prolog/epilog collections guarantee.
var ErrInsufficient = errors.New("core: fewer than two samples for job")

// Summary holds every metric gostats computes for a job (Table I plus
// the energy extension the new TACC Stats release enables).
type Summary struct {
	// Accounting.
	JobID    string
	Nodes    int
	Duration float64 // seconds between first and last sample

	// Lustre metrics.
	MetaDataRate   float64 // max node-summed metadata reqs/s
	MDCReqs        float64 // avg metadata reqs/s per node
	OSCReqs        float64 // avg object-storage reqs/s per node
	MDCWait        float64 // avg us per metadata op
	OSCWait        float64 // avg us per OSC op
	LLiteOpenClose float64 // avg file opens+closes/s per node
	LnetAveBW      float64 // avg Lustre bytes/s per node
	LnetMaxBW      float64 // max node-summed Lustre bytes/s

	// Network metrics.
	InternodeIBAveBW float64 // avg IB-minus-LNET bytes/s per node (MPI)
	InternodeIBMaxBW float64 // max node-summed IB-minus-LNET bytes/s
	PacketSize       float64 // avg bytes per IB packet
	PacketRate       float64 // avg IB packets/s per node
	GigEBW           float64 // avg Ethernet bytes/s per node

	// Processor metrics.
	LoadAll     float64 // avg retired loads/s per node
	LoadL1Hits  float64 // avg L1-hit loads/s per node
	LoadL2Hits  float64 // avg L2-hit loads/s per node
	LoadLLCHits float64 // avg LLC-hit loads/s per node
	CPI         float64 // cycles per instruction
	CPLD        float64 // cycles per L1D load
	Flops       float64 // avg flops/s per node (scalar + width*vector)
	VecPercent  float64 // vector FP instructions / all FP instructions
	MemBW       float64 // avg memory controller bytes/s per node

	// Energy metrics (RAPL).
	PkgWatts  float64 // avg package power per node, W
	CoreWatts float64 // avg core-plane power per node, W
	DRAMWatts float64 // avg DRAM-plane power per node, W

	// OS metrics.
	MemUsage    float64 // max node-summed resident bytes
	CPUUsage    float64 // avg fraction of cpu time in user space
	Idle        float64 // min/max of per-node CPUUsage (1 = balanced)
	Catastrophe float64 // min/max of per-interval node-summed CPUUsage
	MICUsage    float64 // avg Xeon Phi utilization

	// Process metrics (procfs validation data, §III-B).
	MaxVmHWM   uint64 // largest per-process resident high-water mark
	MaxThreads uint64 // largest per-process thread count
}

// VecWidth is the flops credited per vector FP instruction on the
// 256-bit AVX double-precision Sandy Bridge fleet. Jobs collected on
// other architectures reduce at the width the chip layer detected
// (chip.Descriptor.VecWidth).
const VecWidth = 4

func checkVecWidth(vecWidth int) error {
	if vecWidth <= 0 {
		return fmt.Errorf("core: vector width %d, want a positive flops count", vecWidth)
	}
	return nil
}

// Result reduces everything fed so far to the job's Summary, crediting
// vecWidth flops per vector FP instruction. Hosts fold in name order.
// A job with no host, or a host without two samples of any series,
// gives ErrInsufficient.
func (r *Reducer) Result(vecWidth int) (*Summary, error) {
	if err := checkVecWidth(vecWidth); err != nil {
		return nil, err
	}
	hosts := r.Hosts()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("%w %s: no hosts", ErrInsufficient, r.jobID)
	}
	s := &Summary{JobID: r.jobID, Nodes: len(hosts)}

	var (
		cpuUsages []float64 // per-node CPU_Usage for idle metric
		durSum    float64
	)
	// Per-node average accumulators; index matches the metric fields.
	avg := newMeans()

	// Per-interval node-summed series for Maximum metrics and
	// catastrophe; aligned by interval index.
	maxMDC := newIntervalSum()
	maxLnet := newIntervalSum()
	maxIB := newIntervalSum()
	maxMem := newIntervalSum()
	catUser := newIntervalSum()
	catTotal := newIntervalSum()

	for _, host := range hosts {
		h := r.hosts[host]
		dur := h.duration()
		if dur <= 0 {
			return nil, fmt.Errorf("%w %s: host %s", ErrInsufficient, r.jobID, host)
		}
		durSum += dur
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
		maxMDC.addHost(h.mdc)
		maxLnet.addHost(h.lnet)
		maxIB.addHost(subSeriesClamped(h.ib, h.lnet))
		maxMem.addHost(h.mem)
		catUser.addHost(h.cpuUser)
		catTotal.addHost(h.cpuTotal)

		// --- Process table extremes ---
		if h.maxHWM > s.MaxVmHWM {
			s.MaxVmHWM = h.maxHWM
		}
		if h.maxThreads > s.MaxThreads {
			s.MaxThreads = h.maxThreads
		}
	}

	n := float64(len(hosts))
	s.Duration = durSum / n

	// Average metrics.
	s.MDCReqs = avg.mean("mdcreqs")
	s.OSCReqs = avg.mean("oscreqs")
	s.MDCWait = ratio(avg.mean("mdcwait"), avg.mean("mdcreqs"))
	s.OSCWait = ratio(avg.mean("oscwait"), avg.mean("oscreqs"))
	s.LLiteOpenClose = avg.mean("openclose")
	s.LnetAveBW = avg.mean("lnetbw")
	s.InternodeIBAveBW = avg.mean("ibbw")
	s.PacketSize = ratio(avg.mean("ibbytes"), avg.mean("ibpkts"))
	s.PacketRate = avg.mean("ibpkts")
	s.GigEBW = avg.mean("gige")
	s.LoadAll = avg.mean("loads")
	s.LoadL1Hits = avg.mean("l1")
	s.LoadL2Hits = avg.mean("l2")
	s.LoadLLCHits = avg.mean("llc")
	s.CPI = ratio(avg.mean("cycles"), avg.mean("instrs"))
	s.CPLD = ratio(avg.mean("cycles"), avg.mean("loads"))
	s.Flops = avg.mean("scalar") + float64(vecWidth)*avg.mean("vector")
	s.VecPercent = ratio(avg.mean("vector"), avg.mean("scalar")+avg.mean("vector"))
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
	s.Idle = minOverMax(cpuUsages)
	s.Catastrophe = catastrophe(catUser.sums, catTotal.sums)

	return s, nil
}

// ratio forms a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minOverMax returns min(xs)/max(xs) in [0,1]; 0 for empty or all-zero.
func minOverMax(xs []float64) float64 {
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
	return ratio(lo, hi)
}

// catastrophe computes the time-imbalance metric: per interval, the
// node-summed user rate over the node-summed total rate; then min/max of
// that usage across intervals.
func catastrophe(user, total []float64) float64 {
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
	return minOverMax(usages)
}

// means is a tiny named-accumulator map used by Result.
type means struct {
	sum map[string]float64
	n   map[string]int
}

func newMeans() *means {
	return &means{sum: map[string]float64{}, n: map[string]int{}}
}

// add folds a per-node value into the named mean. NaN values (from
// missing devices) are skipped so one instrument gap doesn't poison the
// job.
func (m *means) add(key string, v float64) {
	if math.IsNaN(v) {
		return
	}
	m.sum[key] += v
	m.n[key]++
}

func (m *means) mean(key string) float64 {
	if m.n[key] == 0 {
		return 0
	}
	return m.sum[key] / float64(m.n[key])
}

// intervalSum accumulates node-summed per-interval series aligned by
// interval index.
type intervalSum struct {
	sums []float64
}

func newIntervalSum() *intervalSum { return &intervalSum{} }

func (is *intervalSum) addHost(rates []float64) {
	n := min(len(rates), len(is.sums))
	for i, r := range rates[:n] {
		is.sums[i] += r
	}
	is.sums = append(is.sums, rates[n:]...)
}

func (is *intervalSum) max() float64 {
	m := 0.0
	for _, v := range is.sums {
		if v > m {
			m = v
		}
	}
	return m
}

// subSeriesClamped subtracts b from a element-wise, clamping at zero.
func subSeriesClamped(a, b []float64) []float64 {
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
