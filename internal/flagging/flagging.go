// Package flagging implements gostats' automatic job screening: the
// threshold tests §V-A describes the portal running after every search
// ("a sublist of jobs that have been flagged for metric values that
// exceed thresholds").
//
// The default flag set is the paper's list: high metadata request rates,
// excessive GigE traffic (MPI over Ethernet), largemem-queue jobs that
// don't need the memory, idle nodes, sudden performance changes
// (compile-then-run or mid-run failure), and high cycles per
// instruction. Thresholds were chosen by the same stakeholders the paper
// credits — system administrators and consultants — and are configurable.
package flagging

import (
	"fmt"

	"gostats/internal/reldb"
)

// Thresholds collects every tunable limit used by the default flags.
type Thresholds struct {
	MetaDataRate   float64 // reqs/s considered abusive to the MDS
	GigEBW         float64 // bytes/s indicating MPI over Ethernet
	LargeMemMin    float64 // bytes a largemem job should at least use
	IdleRatio      float64 // Idle metric below this means idle nodes
	CatastropheMax float64 // Catastrophe below this means a sudden change
	CPIMax         float64 // cycles/instruction above this is suspect
	LowCPUUsage    float64 // user fraction below this wastes cores
}

// DefaultThresholds returns the stock limits.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MetaDataRate:   10000,    // >10k metadata reqs/s stresses the MDS
		GigEBW:         10e6,     // >10 MB/s of GigE is not health traffic
		LargeMemMin:    64 << 30, // largemem (1 TB) jobs using <64 GB
		IdleRatio:      0.01,     // a node doing <1% of the busiest node
		CatastropheMax: 0.05,     // >20x swing in usage across time
		CPIMax:         1.5,      // Sandy Bridge codes above 1.5 CPI stall
		LowCPUUsage:    0.25,     // <25% of time in user space
	}
}

// Flag is one screening rule.
type Flag struct {
	Name string
	Desc string
	Test func(r *reldb.JobRow) bool
}

// Default returns the paper's flag set under the given thresholds.
func Default(t Thresholds) []Flag {
	return []Flag{
		{
			Name: "high_metadata_rate",
			Desc: fmt.Sprintf("peak metadata request rate exceeds %.0f/s", t.MetaDataRate),
			Test: func(r *reldb.JobRow) bool { return r.Metrics.MetaDataRate > t.MetaDataRate },
		},
		{
			Name: "gige_mpi",
			Desc: "heavy GigE traffic: user MPI build running over Ethernet instead of IB",
			Test: func(r *reldb.JobRow) bool { return r.Metrics.GigEBW > t.GigEBW },
		},
		{
			Name: "largemem_waste",
			Desc: "job in the largemem queue using little memory",
			Test: func(r *reldb.JobRow) bool {
				return r.Queue == "largemem" && r.Metrics.MemUsage < t.LargeMemMin
			},
		},
		{
			Name: "idle_nodes",
			Desc: "reserved nodes doing no work (node-level imbalance)",
			Test: func(r *reldb.JobRow) bool {
				return r.Nodes > 1 && r.Metrics.Idle < t.IdleRatio
			},
		},
		{
			Name: "usage_swing",
			Desc: "sudden performance increase or drop over time (compile step or mid-run failure)",
			Test: func(r *reldb.JobRow) bool {
				return r.Metrics.CPUUsage > 0.02 && r.Metrics.Catastrophe < t.CatastropheMax
			},
		},
		{
			Name: "high_cpi",
			Desc: fmt.Sprintf("average cycles per instruction above %.1f", t.CPIMax),
			Test: func(r *reldb.JobRow) bool { return r.Metrics.CPI > t.CPIMax },
		},
		{
			Name: "low_cpu_usage",
			Desc: "job spends most of its time outside user space",
			Test: func(r *reldb.JobRow) bool {
				return r.Metrics.CPUUsage > 0 && r.Metrics.CPUUsage < t.LowCPUUsage
			},
		},
	}
}

// Evaluate runs the flags against one job and returns the names of every
// flag raised.
func Evaluate(flags []Flag, r *reldb.JobRow) []string {
	var out []string
	for _, f := range flags {
		if f.Test(r) {
			out = append(out, f.Name)
		}
	}
	return out
}

// Report is the result of sweeping a job table: which flags each flagged
// job raised, plus per-flag totals.
type Report struct {
	ByJob  map[string][]string
	Counts map[string]int
	Total  int // jobs swept
}

// Sweep evaluates the flags against every row matching the filters.
func Sweep(db *reldb.DB, flags []Flag, filters ...reldb.Filter) (*Report, error) {
	rows, err := db.Query(filters...)
	if err != nil {
		return nil, err
	}
	rep := &Report{ByJob: map[string][]string{}, Counts: map[string]int{}, Total: len(rows)}
	for _, r := range rows {
		raised := Evaluate(flags, r)
		if len(raised) == 0 {
			continue
		}
		rep.ByJob[r.JobID] = raised
		for _, name := range raised {
			rep.Counts[name]++
		}
	}
	return rep, nil
}

// Fraction reports the share of swept jobs raising the named flag.
func (r *Report) Fraction(flag string) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Counts[flag]) / float64(r.Total)
}
