package core

import (
	"fmt"
	"slices"
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

// Panels builds the Fig 5 panels from everything fed so far: Gigaflops,
// memory bandwidth (GB/s), memory usage (GB), Lustre filesystem
// bandwidth (MB/s), internode Infiniband traffic (MB/s), and CPU user
// fraction — per node, per sampling interval, with intervals aligned by
// time as Result aligns them. Times are the interval end times of the
// first host in name order. The Gigaflops panel credits vecWidth flops
// per vector FP instruction, as Result. A job with no host gives
// ErrInsufficient.
func (r *Reducer) Panels(vecWidth int) (*JobSeries, error) {
	if err := checkVecWidth(vecWidth); err != nil {
		return nil, err
	}
	hosts := r.Hosts()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("%w %s: no hosts", ErrInsufficient, r.jobID)
	}
	panels := []struct {
		name, unit string
		f          func(h *hostReduce) []float64
	}{
		{"Gigaflops", "GF/s", func(h *hostReduce) []float64 {
			out := make([]float64, min(len(h.fpScalar), len(h.fpVector)))
			for i := range out {
				out[i] = (h.fpScalar[i] + float64(vecWidth)*h.fpVector[i]) / 1e9
			}
			return out
		}},
		{"Memory Bandwidth", "GB/s", func(h *hostReduce) []float64 {
			return scaled(h.cas, func(v float64) float64 { return 64 * v / 1e9 })
		}},
		{"Memory Usage", "GB", func(h *hostReduce) []float64 {
			return scaled(h.memEnd, func(v float64) float64 { return v / (1 << 30) })
		}},
		{"Lustre Bandwidth", "MB/s", func(h *hostReduce) []float64 {
			return scaled(h.lnet, func(v float64) float64 { return v / 1e6 })
		}},
		{"Internode IB (MPI)", "MB/s", func(h *hostReduce) []float64 {
			mpi := subSeriesClamped(h.ib, h.lnet)
			for i := range mpi {
				mpi[i] /= 1e6
			}
			return mpi
		}},
		{"CPU User Fraction", "", func(h *hostReduce) []float64 {
			out := make([]float64, min(len(h.cpuUser), len(h.cpuTotal)))
			for i := range out {
				if h.cpuTotal[i] > 0 {
					out[i] = h.cpuUser[i] / h.cpuTotal[i]
				}
			}
			return out
		}},
	}
	js := &JobSeries{JobID: r.jobID}
	times := slices.Clone(r.hosts[hosts[0]].ends)
	for _, p := range panels {
		panel := Panel{Name: p.name, Unit: p.unit, Times: times}
		for _, host := range hosts {
			panel.Nodes = append(panel.Nodes, NodeSeries{Host: host, Values: p.f(r.hosts[host])})
		}
		js.Panels = append(js.Panels, panel)
	}
	return js, nil
}

// scaled returns f applied to each of xs.
func scaled(xs []float64, f func(float64) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
