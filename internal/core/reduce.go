package core

import (
	"gostats/internal/model"
	"gostats/internal/schema"
)

// hostReducer performs the per-host counter reductions: total ARC rates,
// per-interval rates, and gauge series, all schema-aware.
type hostReducer struct {
	hd  *model.HostData
	reg *schema.Registry
}

func newHostReducer(hd *model.HostData, reg *schema.Registry) *hostReducer {
	return &hostReducer{hd: hd, reg: reg}
}

// hostDuration returns the host's observation span, taken from its
// longest series (prolog to epilog).
func hostDuration(hd *model.HostData) float64 {
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

// rate returns the host's average rate of change for a cumulative event,
// summed over the class's instances in name order, so the sum's bits
// never depend on map order: sum(deltas)/duration. Absent devices
// yield 0.
func (h *hostReducer) rate(c schema.Class, ev string) float64 {
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

// cpuTotalRate is the ARC of all cpu jiffy columns summed — the
// denominator of CPU_Usage.
func (h *hostReducer) cpuTotalRate() float64 {
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

// processExtremes scans the host's ps series for the largest VmHWM and
// thread count seen on any process at any sample.
func (h *hostReducer) processExtremes() (maxHWM, maxThreads uint64) {
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
