// Package report renders the per-job resource-use profiles the paper's
// consulting staff receive ("a report giving a resource use profile for
// every job run on Stampede and Lonestar 5", §I-B), including the
// rule-based targeted advice §V-B aims for ("so that targeted advice may
// be offered to the user without manual inspection of their
// application").
package report

import (
	"fmt"
	"strings"

	"gostats/internal/flagging"
	"gostats/internal/reldb"
	"gostats/internal/xalt"
)

// Advice is one targeted recommendation with its triggering evidence.
type Advice struct {
	Issue      string
	Evidence   string
	Suggestion string
}

// Recommend derives targeted advice for a job: one entry for each
// screening flag raised (the names flagging.Evaluate returns) that has
// advice, so the advice always agrees with the checks under whatever
// thresholds they ran, plus two advice-only rules read from the metrics
// (a file open/close loop, unvectorized floating point, the latter
// sharpened by the job's XALT record when available).
func Recommend(r *reldb.JobRow, raised map[string]bool, x *xalt.Record) []Advice {
	m := r.Metrics
	var out []Advice
	if m.LLiteOpenClose > 100 {
		out = append(out, Advice{
			Issue:      "file open/close loop",
			Evidence:   fmt.Sprintf("%.4g file opens+closes per second", m.LLiteOpenClose),
			Suggestion: "open files once and hold the descriptor, or stage inputs to /tmp at job start",
		})
	}
	if raised["high_metadata_rate"] {
		out = append(out, Advice{
			Issue:      "metadata server abuse",
			Evidence:   fmt.Sprintf("peak %.4g metadata requests/s", m.MetaDataRate),
			Suggestion: "avoid redundant stat/open operations; use collective I/O and tune Lustre stripe counts",
		})
	}
	if raised["gige_mpi"] {
		out = append(out, Advice{
			Issue:      "MPI over Ethernet",
			Evidence:   fmt.Sprintf("%.4g B/s on the GigE interface", m.GigEBW),
			Suggestion: "rebuild against the system MPI so traffic uses the Infiniband fabric",
		})
	}
	if raised["largemem_waste"] {
		out = append(out, Advice{
			Issue:      "largemem queue misuse",
			Evidence:   fmt.Sprintf("peak memory %.1f GB on 1 TB nodes", m.MemUsage/(1<<30)),
			Suggestion: "submit to the normal queue; largemem nodes are scarce",
		})
	}
	if raised["idle_nodes"] {
		out = append(out, Advice{
			Issue:      "idle reserved nodes",
			Evidence:   fmt.Sprintf("idle metric %.3g across %d nodes", m.Idle, r.Nodes),
			Suggestion: "check the launcher's task count; reserved-but-idle nodes waste the allocation",
		})
	}
	if m.VecPercent < 0.05 && m.Flops > 0 {
		a := Advice{
			Issue:      "unvectorized floating point",
			Evidence:   fmt.Sprintf("%.1f%% of FP instructions vectorized", 100*m.VecPercent),
			Suggestion: "recompile with the most advanced vector instruction set the nodes support",
		}
		if x != nil && x.VecISA != "" && x.VecISA != "avx" {
			a.Evidence += fmt.Sprintf("; built for %s per XALT", strings.ToUpper(x.VecISA))
			a.Suggestion = "recompile with -xAVX (XALT shows a " + strings.ToUpper(x.VecISA) + " build)"
		}
		out = append(out, a)
	}
	if raised["high_cpi"] {
		out = append(out, Advice{
			Issue:      "high cycles per instruction",
			Evidence:   fmt.Sprintf("CPI %.2f", m.CPI),
			Suggestion: "profile memory layout and I/O patterns; the cores are stalling",
		})
	}
	if raised["usage_swing"] {
		a := Advice{
			Issue:      "sudden performance change",
			Evidence:   fmt.Sprintf("catastrophe metric %.3g", m.Catastrophe),
			Suggestion: "performance rose or collapsed mid-run: check for in-job compilation or an application failure",
		}
		if r.Status == "FAILED" {
			a.Suggestion = "the application died mid-run; inspect the job logs around the usage drop"
		}
		out = append(out, a)
	}
	return out
}

// Job renders the full consulting report for one job.
func Job(r *reldb.JobRow, flags []flagging.Flag, x *xalt.Record) string {
	var b strings.Builder
	m := r.Metrics
	fmt.Fprintf(&b, "=== Job %s resource use profile ===\n", r.JobID)
	fmt.Fprintf(&b, "user %s (%s)  exe %s  queue %s  status %s\n",
		r.User, r.Account, r.Exe, r.Queue, r.Status)
	fmt.Fprintf(&b, "%d nodes x %d tasks, %.0f s runtime, %.0f s queue wait, %.1f node-hours\n",
		r.Nodes, r.Wayness, r.RunTime(), r.WaitTime(), r.NodeHours())
	if len(r.Hosts) > 0 {
		fmt.Fprintf(&b, "hosts: %s\n", strings.Join(r.Hosts, ", "))
	}

	b.WriteString("\n-- computation --\n")
	fmt.Fprintf(&b, "  CPU_Usage    %6.1f%%    cpi  %6.2f    cpld %6.2f\n", 100*m.CPUUsage, m.CPI, m.CPLD)
	fmt.Fprintf(&b, "  flops        %9.3g/s  VecPercent %5.1f%%\n", m.Flops, 100*m.VecPercent)
	fmt.Fprintf(&b, "  loads        %9.3g/s  L1/L2/LLC hits %.3g/%.3g/%.3g per s\n",
		m.LoadAll, m.LoadL1Hits, m.LoadL2Hits, m.LoadLLCHits)
	fmt.Fprintf(&b, "  mem bw       %9.3g B/s  mem usage %.1f GB (node-summed max)\n",
		m.MemBW, m.MemUsage/(1<<30))
	fmt.Fprintf(&b, "  balance      idle %.3g  catastrophe %.3g\n", m.Idle, m.Catastrophe)
	if m.MICUsage > 0 {
		fmt.Fprintf(&b, "  MIC usage    %6.1f%%\n", 100*m.MICUsage)
	}

	b.WriteString("\n-- I/O and network --\n")
	fmt.Fprintf(&b, "  Lustre       avg %.3g B/s, peak %.3g B/s\n", m.LnetAveBW, m.LnetMaxBW)
	fmt.Fprintf(&b, "  metadata     avg %.4g req/s, peak %.4g req/s, %.3g us/op\n",
		m.MDCReqs, m.MetaDataRate, m.MDCWait)
	fmt.Fprintf(&b, "  file ops     %.4g opens+closes/s\n", m.LLiteOpenClose)
	fmt.Fprintf(&b, "  MPI (IB)     avg %.3g B/s, peak %.3g B/s, %.0f B packets\n",
		m.InternodeIBAveBW, m.InternodeIBMaxBW, m.PacketSize)
	fmt.Fprintf(&b, "  Ethernet     %.3g B/s\n", m.GigEBW)

	b.WriteString("\n-- energy --\n")
	fmt.Fprintf(&b, "  package %.1f W/node, cores %.1f W, DRAM %.1f W (%.2f kWh total)\n",
		m.PkgWatts, m.CoreWatts, m.DRAMWatts,
		m.PkgWatts*float64(r.Nodes)*r.RunTime()/3.6e6)

	if x != nil {
		b.WriteString("\n-- environment (XALT) --\n")
		fmt.Fprintf(&b, "  exe path  %s\n", x.ExePath)
		fmt.Fprintf(&b, "  modules   %s\n", strings.Join(x.Modules, ", "))
		fmt.Fprintf(&b, "  libraries %s\n", strings.Join(x.Libraries, ", "))
		fmt.Fprintf(&b, "  compiler  %s (vector ISA: %s)\n", x.Compiler, x.VecISA)
	}

	b.WriteString("\n-- checks --\n")
	raised := map[string]bool{}
	for _, name := range flagging.Evaluate(flags, r) {
		raised[name] = true
	}
	for _, f := range flags {
		mark := "pass"
		if raised[f.Name] {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %-20s %s\n", mark, f.Name, f.Desc)
	}

	advice := Recommend(r, raised, x)
	if len(advice) > 0 {
		b.WriteString("\n-- targeted advice --\n")
		for i, a := range advice {
			fmt.Fprintf(&b, "  %d. %s\n     evidence:   %s\n     suggestion: %s\n",
				i+1, a.Issue, a.Evidence, a.Suggestion)
		}
	} else {
		b.WriteString("\nno issues detected; resource use looks healthy.\n")
	}
	return b.String()
}

// FleetSummary renders the daily operations overview: totals, flag
// counts, and the top metadata offenders.
func FleetSummary(db *reldb.DB, flags []flagging.Flag) (string, error) {
	rep, err := flagging.Sweep(db, flags)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== Fleet summary: %d jobs, %d flagged ===\n", rep.Total, len(rep.ByJob))
	names := make([]string, 0, len(rep.Counts))
	for n := range rep.Counts {
		names = append(names, n)
	}
	// Insertion-sort by count, descending.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && rep.Counts[names[j]] > rep.Counts[names[j-1]]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, n := range names {
		fmt.Fprintf(&b, "  %-22s %5d jobs (%.1f%%)\n", n, rep.Counts[n], 100*rep.Fraction(n))
	}
	return b.String(), nil
}
