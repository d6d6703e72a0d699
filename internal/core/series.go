package core

import (
	"gostats/internal/model"
	"gostats/internal/schema"
)

// NodeSeries is one node's line on a job detail plot.
type NodeSeries struct {
	Host   string
	Values []float64 // one value per sampling interval
}

// Panel is one plot of the job detail page: a named quantity with one
// line per node, all aligned to Times.
type Panel struct {
	Name  string
	Unit  string
	Times []float64 // interval end times (simulated epoch seconds)
	Nodes []NodeSeries
}

// JobSeries is the full set of Fig 5 panels for one job: the six
// quantities the paper plots per node over time.
type JobSeries struct {
	JobID  string
	Panels []Panel
}

// TimeSeries derives the Fig 5 panels from assembled job data:
// Gigaflops, memory bandwidth (GB/s), memory usage (GB), Lustre
// filesystem bandwidth (MB/s), internode Infiniband traffic (MB/s), and
// CPU user fraction — per node, per sampling interval. The Gigaflops
// panel credits vecWidth flops per vector FP instruction, as Compute.
func TimeSeries(jd *model.JobData, reg *schema.Registry, vecWidth int) (*JobSeries, error) {
	if err := checkVecWidth(vecWidth); err != nil {
		return nil, err
	}
	hosts := jd.HostNames()
	if len(hosts) == 0 {
		return nil, ErrInsufficient
	}
	js := &JobSeries{JobID: jd.JobID}
	panels := []struct {
		name, unit string
		f          func(h *hostReducer) []float64
	}{
		{"Gigaflops", "GF/s", func(h *hostReducer) []float64 {
			scalar := h.intervalRates(schema.ClassPMC, schema.EvPMCFPScalar)
			vector := h.intervalRates(schema.ClassPMC, schema.EvPMCFPVector)
			out := make([]float64, min(len(scalar), len(vector)))
			for i := range out {
				out[i] = (scalar[i] + float64(vecWidth)*vector[i]) / 1e9
			}
			return out
		}},
		{"Memory Bandwidth", "GB/s", func(h *hostReducer) []float64 {
			rd := h.intervalRates(schema.ClassIMC, schema.EvIMCCASReads)
			wr := h.intervalRates(schema.ClassIMC, schema.EvIMCCASWrites)
			out := make([]float64, min(len(rd), len(wr)))
			for i := range out {
				out[i] = 64 * (rd[i] + wr[i]) / 1e9
			}
			return out
		}},
		{"Memory Usage", "GB", func(h *hostReducer) []float64 {
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
		{"Lustre Bandwidth", "MB/s", func(h *hostReducer) []float64 {
			rx := h.intervalRates(schema.ClassLnet, schema.EvLnetRxBytes)
			tx := h.intervalRates(schema.ClassLnet, schema.EvLnetTxBytes)
			out := make([]float64, min(len(rx), len(tx)))
			for i := range out {
				out[i] = (rx[i] + tx[i]) / 1e6
			}
			return out
		}},
		{"Internode IB (MPI)", "MB/s", func(h *hostReducer) []float64 {
			ib := sumSeries(
				h.intervalRates(schema.ClassIB, schema.EvIBRxBytes),
				h.intervalRates(schema.ClassIB, schema.EvIBTxBytes))
			lnet := sumSeries(
				h.intervalRates(schema.ClassLnet, schema.EvLnetRxBytes),
				h.intervalRates(schema.ClassLnet, schema.EvLnetTxBytes))
			mpi := subSeriesClamped(ib, lnet)
			for i := range mpi {
				mpi[i] /= 1e6
			}
			return mpi
		}},
		{"CPU User Fraction", "", func(h *hostReducer) []float64 {
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

	times := sampleTimes(jd.Hosts[hosts[0]])
	for _, p := range panels {
		panel := Panel{Name: p.name, Unit: p.unit, Times: times}
		for _, host := range hosts {
			h := newHostReducer(jd.Hosts[host], reg)
			panel.Nodes = append(panel.Nodes, NodeSeries{Host: host, Values: p.f(h)})
		}
		js.Panels = append(js.Panels, panel)
	}
	return js, nil
}

// sampleTimes extracts the host's interval end times from its cpu series.
func sampleTimes(hd *model.HostData) []float64 {
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// hostReducer reads one host's assembled series for the Fig 5 panels:
// per-interval rates and gauge series, all schema-aware.
type hostReducer struct {
	hd  *model.HostData
	reg *schema.Registry
}

func newHostReducer(hd *model.HostData, reg *schema.Registry) *hostReducer {
	return &hostReducer{hd: hd, reg: reg}
}

// eventDef resolves the schema definition for class/event, returning the
// column index too. ok is false when the class or event is unknown (the
// device is absent on this node).
func (h *hostReducer) eventDef(c schema.Class, ev string) (schema.EventDef, int, bool) {
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

// intervalRates returns, for each sampling interval, the event's delta
// rate summed over the class's instances. Interval boundaries follow the
// first instance's timestamps (all instances of one host are sampled in
// the same sweep).
func (h *hostReducer) intervalRates(c schema.Class, ev string) []float64 {
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
func (h *hostReducer) gaugeSeries(c schema.Class, ev string) []float64 {
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

// cpuTotalIntervalRates is the per-interval rate of all cpu jiffy
// columns summed.
func (h *hostReducer) cpuTotalIntervalRates() []float64 {
	sch := h.reg.Get(schema.ClassCPU)
	if sch == nil {
		return nil
	}
	var out []float64
	for _, e := range sch.Events {
		if e.Kind != schema.Event {
			continue
		}
		out = sumOrExtend(out, h.intervalRates(schema.ClassCPU, e.Name))
	}
	return out
}

// sumOrExtend element-wise adds src into dst, growing dst as needed.
func sumOrExtend(dst, src []float64) []float64 {
	for i, v := range src {
		if i < len(dst) {
			dst[i] += v
		} else {
			dst = append(dst, v)
		}
	}
	return dst
}

// sumSeries adds two per-interval series element-wise (shorter length
// wins).
func sumSeries(a, b []float64) []float64 {
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
