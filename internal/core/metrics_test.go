package core

import (
	"fmt"
	"math"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/model"
	"gostats/internal/schema"
	"gostats/internal/workload"
)

// feed returns a Reducer for job id fed snaps in order.
func feed(id string, reg *schema.Registry, snaps []model.Snapshot) *Reducer {
	r := NewReducer(id, reg)
	for _, s := range snaps {
		r.Add(s)
	}
	return r
}

// buildJob constructs a hand-made two-node job with exactly known counter
// series so metric arithmetic can be verified against paper definitions.
//
// Timeline: samples at t = 0, 600, 1200 (duration 1200 s).
func buildJob(t *testing.T) ([]model.Snapshot, *schema.Registry) {
	t.Helper()
	reg := schema.DefaultRegistry()
	hosts := map[string][]model.Snapshot{}

	// addSeries puts value row i of one instance into the host's
	// collection at t = 600·i.
	addSeries := func(host string, c schema.Class, inst string, vals [][]uint64) {
		for len(hosts[host]) < len(vals) {
			hosts[host] = append(hosts[host], model.Snapshot{Time: float64(len(hosts[host])) * 600, Host: host})
		}
		for i, v := range vals {
			hosts[host][i].Records = append(hosts[host][i].Records, model.Record{Class: c, Instance: inst, Values: v})
		}
	}

	// cpu schema: user nice system idle iowait irq softirq (jiffies).
	// Host A: per interval, user 48000 of 60000 total -> usage 0.8.
	addSeries("a", schema.ClassCPU, "0", [][]uint64{
		{0, 0, 0, 0, 0, 0, 0},
		{48000, 0, 6000, 6000, 0, 0, 0},
		{96000, 0, 12000, 12000, 0, 0, 0},
	})
	// Host B: user 24000 of 60000 -> usage 0.4 (imbalance: idle = 0.5).
	addSeries("b", schema.ClassCPU, "0", [][]uint64{
		{0, 0, 0, 0, 0, 0, 0},
		{24000, 0, 0, 36000, 0, 0, 0},
		{48000, 0, 0, 72000, 0, 0, 0},
	})

	// MDC: host A rates 1000/s then 2000/s; host B zero.
	// wait counters: 100 us per request.
	addSeries("a", schema.ClassMDC, "m0", [][]uint64{
		{0, 0},
		{600000, 60000000},
		{1800000, 180000000},
	})
	addSeries("b", schema.ClassMDC, "m0", [][]uint64{
		{0, 0}, {0, 0}, {0, 0},
	})

	// PMC on host A only core 0: cycles 1.2e9/interval, instrs 0.6e9,
	// scalar 1.2e8, vector 0.6e8, loads 6e8, l1 5.4e8, l2 0.3e8, llc 0.2e8.
	mk := func(mult uint64) []uint64 {
		return []uint64{
			1200000000 * mult, 600000000 * mult, 120000000 * mult,
			60000000 * mult, 600000000 * mult, 540000000 * mult,
			30000000 * mult, 20000000 * mult,
		}
	}
	addSeries("a", schema.ClassPMC, "0", [][]uint64{mk(0), mk(1), mk(2)})
	addSeries("b", schema.ClassPMC, "0", [][]uint64{mk(0), mk(1), mk(2)})

	// Memory gauge: host A 8 GiB then 16 GiB then 12 GiB; host B 4 GiB flat.
	gib := func(n uint64) uint64 { return n << 30 }
	memRow := func(used uint64) []uint64 { return []uint64{gib(32), used, gib(32) - used, 0, 0} }
	addSeries("a", schema.ClassMem, "0", [][]uint64{
		memRow(gib(8)), memRow(gib(16)), memRow(gib(12)),
	})
	addSeries("b", schema.ClassMem, "0", [][]uint64{
		memRow(gib(4)), memRow(gib(4)), memRow(gib(4)),
	})

	// Lnet: host A 1e8 bytes per interval rx, no tx.
	addSeries("a", schema.ClassLnet, "lnet", [][]uint64{
		{0, 0}, {100000000, 0}, {200000000, 0},
	})
	addSeries("b", schema.ClassLnet, "lnet", [][]uint64{
		{0, 0}, {0, 0}, {0, 0},
	})

	// IB: host A rx = lnet + 2e8 MPI bytes per interval; pkts 1e5/interval.
	addSeries("a", schema.ClassIB, "p1", [][]uint64{
		{0, 0, 0, 0},
		{300000000, 0, 100000, 0},
		{600000000, 0, 200000, 0},
	})
	addSeries("b", schema.ClassIB, "p1", [][]uint64{
		{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
	})

	return append(hosts["a"], hosts["b"]...), reg
}

func TestComputeAverageAndMaxMetrics(t *testing.T) {
	snaps, reg := buildJob(t)
	s, err := feed("42", reg, snaps).Result(VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 2 || s.Duration != 1200 {
		t.Errorf("nodes/duration = %d/%g", s.Nodes, s.Duration)
	}

	// MDCReqs: host A ARC = 1.8e6/1200 = 1500; host B 0 -> mean 750.
	if !close(s.MDCReqs, 750, 1e-9) {
		t.Errorf("MDCReqs = %g, want 750", s.MDCReqs)
	}
	// MetaDataRate: max over intervals of node-summed rate = 2000 (2nd interval).
	if !close(s.MetaDataRate, 2000, 1e-9) {
		t.Errorf("MetaDataRate = %g, want 2000", s.MetaDataRate)
	}
	// MDCWait: avg wait rate / avg req rate. Host A wait ARC = 1.8e8/1200
	// = 150000 us/s; host B 0 -> mean 75000. 75000/750 = 100 us.
	if !close(s.MDCWait, 100, 1e-9) {
		t.Errorf("MDCWait = %g, want 100", s.MDCWait)
	}

	// CPU usage: (0.8 + 0.4)/2 = 0.6; idle = 0.4/0.8 = 0.5.
	if !close(s.CPUUsage, 0.6, 1e-9) {
		t.Errorf("CPUUsage = %g, want 0.6", s.CPUUsage)
	}
	if !close(s.Idle, 0.5, 1e-9) {
		t.Errorf("Idle = %g, want 0.5", s.Idle)
	}
	// Both intervals identical -> catastrophe = 1 (no time imbalance).
	if !close(s.Catastrophe, 1, 1e-9) {
		t.Errorf("Catastrophe = %g, want 1", s.Catastrophe)
	}

	// CPI: cycles/instrs = 2.0 per host, ratio of means = 2.0.
	if !close(s.CPI, 2.0, 1e-9) {
		t.Errorf("CPI = %g, want 2", s.CPI)
	}
	// CPLD: cycles / loads = 1.2e9/6e8 = 2.0.
	if !close(s.CPLD, 2.0, 1e-9) {
		t.Errorf("CPLD = %g, want 2", s.CPLD)
	}
	// Flops: scalar rate 2e5/s + 4*vector rate 1e5/s = 6e5/s per node.
	if !close(s.Flops, 6e5, 1) {
		t.Errorf("Flops = %g, want 6e5", s.Flops)
	}
	// VecPercent: vector/(vector+scalar) = 1e5/3e5.
	if !close(s.VecPercent, 1.0/3.0, 1e-9) {
		t.Errorf("VecPercent = %g, want 1/3", s.VecPercent)
	}
	// Load rates: 6e8 loads per 600 s interval per host -> 1e6/s.
	if !close(s.LoadAll, 1e6, 1e-6) {
		t.Errorf("LoadAll = %g, want 1e6", s.LoadAll)
	}
	if !close(s.LoadL1Hits, 9e5, 1e-6) {
		t.Errorf("LoadL1Hits = %g, want 9e5", s.LoadL1Hits)
	}

	// MemUsage: max over samples of node-summed usage = 16+4 = 20 GiB.
	if !close(s.MemUsage, float64(20<<30), 1) {
		t.Errorf("MemUsage = %g, want 20 GiB", s.MemUsage)
	}

	// LnetAveBW: host A (2e8/1200) ~ 166666.7; mean over 2 nodes.
	if !close(s.LnetAveBW, 2e8/1200/2, 1e-6) {
		t.Errorf("LnetAveBW = %g", s.LnetAveBW)
	}
	// LnetMaxBW: both intervals at 1e8/600 node-summed.
	if !close(s.LnetMaxBW, 1e8/600, 1e-6) {
		t.Errorf("LnetMaxBW = %g", s.LnetMaxBW)
	}

	// Internode IB: host A total IB 6e8/1200 = 5e5 B/s, lnet 2e8/1200;
	// MPI = (6e8-2e8)/1200 = 333333 B/s; mean over nodes = 166666.7.
	if !close(s.InternodeIBAveBW, 4e8/1200/2, 1e-6) {
		t.Errorf("InternodeIBAveBW = %g", s.InternodeIBAveBW)
	}
	// PacketSize: bytes per packet = avg bytes rate / avg pkt rate =
	// (6e8/1200)/2 over (2e5/1200)/2 = 3000.
	if !close(s.PacketSize, 3000, 1e-6) {
		t.Errorf("PacketSize = %g, want 3000", s.PacketSize)
	}
}

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestComputeCatastropheDetectsDrop(t *testing.T) {
	reg := schema.DefaultRegistry()
	// Interval 1: user 54000/60000; interval 2: user 6000/60000 (drop).
	rows := [][]uint64{
		{0, 0, 0, 0, 0, 0, 0},
		{54000, 0, 0, 6000, 0, 0, 0},
		{60000, 0, 0, 60000, 0, 0, 0},
	}
	snaps := craft("a", []float64{0, 600, 1200}, func(k int) []model.Record {
		return []model.Record{{Class: schema.ClassCPU, Instance: "0", Values: rows[k]}}
	})
	s, err := feed("9", reg, snaps).Result(VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	want := (6000.0 / 60000.0) / (54000.0 / 60000.0)
	if !close(s.Catastrophe, want, 1e-9) {
		t.Errorf("Catastrophe = %g, want %g", s.Catastrophe, want)
	}
	// Single host: idle = usage/usage = 1.
	if !close(s.Idle, 1, 1e-9) {
		t.Errorf("Idle = %g, want 1", s.Idle)
	}
}

func TestComputeRolloverCorrection(t *testing.T) {
	reg := schema.DefaultRegistry()
	// 48-bit PMC cycles counter rolls over between samples; the decoded
	// delta must be small, not ~2^48.
	start := uint64(1<<48) - 1000
	pmc := [][]uint64{{start, 0, 0, 0, 1, 0, 0, 0}, {2000, 1000, 0, 0, 1, 0, 0, 0}}
	// cpu series to establish duration and usage.
	cpu := [][]uint64{{0, 0, 0, 0, 0, 0, 0}, {60000, 0, 0, 0, 0, 0, 0}}
	snaps := craft("a", []float64{0, 600}, func(k int) []model.Record {
		return []model.Record{{Class: schema.ClassPMC, Instance: "0", Values: pmc[k]},
			{Class: schema.ClassCPU, Instance: "0", Values: cpu[k]}}
	})

	s, err := feed("7", reg, snaps).Result(VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	// Delta = 3000 cycles over 600 s -> 5 cycles/s.
	wantCycles := 3000.0 / 600.0
	if gotCPI := s.CPI; !close(gotCPI, wantCycles/(1000.0/600.0), 1e-9) {
		t.Errorf("CPI after rollover = %g", gotCPI)
	}
}

func TestComputeCounterResetYieldsZeroNotGarbage(t *testing.T) {
	reg := schema.DefaultRegistry()
	// 64-bit IB counter goes backwards (node reboot / reset).
	ib := []uint64{5000, 100}
	snaps := craft("a", []float64{0, 600}, func(k int) []model.Record {
		return []model.Record{{Class: schema.ClassIB, Instance: "p1", Values: []uint64{ib[k], 0, 0, 0}},
			cpuRec("0", uint64(k)*60000, 0)}
	})
	s, err := feed("8", reg, snaps).Result(VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	if s.InternodeIBAveBW != 0 {
		t.Errorf("reset counter produced bandwidth %g", s.InternodeIBAveBW)
	}
}

func TestComputeErrors(t *testing.T) {
	reg := schema.DefaultRegistry()
	if _, err := NewReducer("x", reg).Result(VecWidth); err == nil {
		t.Error("empty job accepted")
	}
	r := NewReducer("y", reg)
	r.Add(model.Snapshot{Time: 0, Host: "a", Records: []model.Record{cpuRec("0", 0, 0)}})
	if _, err := r.Result(VecWidth); err == nil {
		t.Error("single-sample job accepted")
	}
	r.Add(model.Snapshot{Time: 600, Host: "a", Records: []model.Record{cpuRec("0", 48000, 12000)}})
	if _, err := r.Result(VecWidth); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Result(0); err == nil {
		t.Error("zero vector width accepted")
	}
}

func TestComputeMissingDevicesYieldZero(t *testing.T) {
	// A node without Lustre/IB/Phi produces zero metrics, not NaN or error.
	reg := schema.DefaultRegistry()
	snaps := craft("a", []float64{0, 600}, func(k int) []model.Record {
		return []model.Record{cpuRec("0", uint64(k)*48000, uint64(k)*12000)}
	})
	s, err := feed("z", reg, snaps).Result(VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"MetaDataRate": s.MetaDataRate, "LnetAveBW": s.LnetAveBW,
		"InternodeIBAveBW": s.InternodeIBAveBW, "MICUsage": s.MICUsage,
		"GigEBW": s.GigEBW, "PacketSize": s.PacketSize,
	} {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("%s = %g, want 0", name, v)
		}
	}
	if !close(s.CPUUsage, 0.8, 1e-9) {
		t.Errorf("CPUUsage = %g", s.CPUUsage)
	}
}

func TestComputeEndToEndFromSimulatedJob(t *testing.T) {
	spec := workload.Spec{
		JobID: "e2e", User: "u1", Exe: "wrf.exe", Queue: "normal",
		Nodes: 4, Runtime: 3600, Status: workload.StatusCompleted,
		Model: workload.Steady{Label: "wrf", P: workload.WRFProfile("u1")},
	}
	run, err := cluster.RunJob(spec, chip.StampedeNode(), 600, 17)
	if err != nil {
		t.Fatal(err)
	}
	s, err := feed(spec.JobID, chip.StampedeNode().Registry(), run.Snapshots).Result(VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.WRFProfile("u1")
	// CPU usage should track the profile's user fraction.
	if math.Abs(s.CPUUsage-p.CPUUser) > 0.05 {
		t.Errorf("CPUUsage = %g, want ~%g", s.CPUUsage, p.CPUUser)
	}
	// Flops per node should track the demanded flop rate within jitter.
	if math.Abs(s.Flops-p.Flops)/p.Flops > 0.10 {
		t.Errorf("Flops = %g, want ~%g", s.Flops, p.Flops)
	}
	// Vectorization tracks the profile.
	if math.Abs(s.VecPercent-p.VecFrac) > 0.05 {
		t.Errorf("VecPercent = %g, want ~%g", s.VecPercent, p.VecFrac)
	}
	// Memory bandwidth within jitter of demand.
	if math.Abs(s.MemBW-p.MemBW)/p.MemBW > 0.15 {
		t.Errorf("MemBW = %g, want ~%g", s.MemBW, p.MemBW)
	}
	// Memory usage: node-summed, so ~4x the per-node demand.
	if s.MemUsage < float64(p.MemBytes)*3.5 || s.MemUsage > float64(p.MemBytes)*4.5 {
		t.Errorf("MemUsage = %g, want ~4x %d", s.MemUsage, p.MemBytes)
	}
	// A well-balanced job: idle near 1, catastrophe near 1.
	if s.Idle < 0.85 {
		t.Errorf("Idle = %g for balanced job", s.Idle)
	}
	if s.Catastrophe < 0.8 {
		t.Errorf("Catastrophe = %g for steady job", s.Catastrophe)
	}
	// Energy metrics populated (RAPL present on Sandy Bridge).
	if s.PkgWatts < 50 || s.PkgWatts > 500 {
		t.Errorf("PkgWatts = %g", s.PkgWatts)
	}
	if s.DRAMWatts <= 0 {
		t.Errorf("DRAMWatts = %g", s.DRAMWatts)
	}
	// Process data captured.
	if s.MaxVmHWM == 0 {
		t.Error("MaxVmHWM not captured from ps data")
	}
}

func TestComputeIdleNodesJob(t *testing.T) {
	spec := workload.Spec{
		JobID: "idle", User: "u1", Exe: "a.out", Queue: "normal",
		Nodes: 4, Runtime: 3600, Status: workload.StatusCompleted,
		Model: workload.IdleNodes{
			Inner: workload.Steady{Label: "x", P: workload.VectorizedCompute("u1", "a.out", 0.8)},
			Idle:  2,
		},
	}
	run, err := cluster.RunJob(spec, chip.StampedeNode(), 600, 23)
	if err != nil {
		t.Fatal(err)
	}
	s, err := feed(spec.JobID, chip.StampedeNode().Registry(), run.Snapshots).Result(VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	// Half the nodes idle: the idle metric collapses toward 0.
	if s.Idle > 0.1 {
		t.Errorf("Idle = %g for half-idle job, want ~0", s.Idle)
	}
}

func TestTimeSeriesPanels(t *testing.T) {
	spec := workload.Spec{
		JobID: "fig5", User: "u1", Exe: "wrf.exe", Queue: "normal",
		Nodes: 3, Runtime: 3000, Status: workload.StatusCompleted,
		Model: workload.Steady{Label: "wrf", P: workload.WRFProfile("u1")},
	}
	run, err := cluster.RunJob(spec, chip.StampedeNode(), 600, 29)
	if err != nil {
		t.Fatal(err)
	}
	js, err := feed(spec.JobID, chip.StampedeNode().Registry(), run.Snapshots).Panels(VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	if len(js.Panels) != 6 {
		t.Fatalf("panels = %d, want 6 (Fig 5)", len(js.Panels))
	}
	wantNames := []string{"Gigaflops", "Memory Bandwidth", "Memory Usage",
		"Lustre Bandwidth", "Internode IB (MPI)", "CPU User Fraction"}
	for i, p := range js.Panels {
		if p.Name != wantNames[i] {
			t.Errorf("panel %d = %q, want %q", i, p.Name, wantNames[i])
		}
		if len(p.Nodes) != 3 {
			t.Errorf("panel %q has %d node lines", p.Name, len(p.Nodes))
		}
		for _, ns := range p.Nodes {
			if len(ns.Values) != len(p.Times) {
				t.Errorf("panel %q host %s: %d values vs %d times",
					p.Name, ns.Host, len(ns.Values), len(p.Times))
			}
		}
	}
	// CPU panel values are fractions.
	cpu := js.Panels[5]
	for _, ns := range cpu.Nodes {
		for _, v := range ns.Values {
			if v < 0 || v > 1 {
				t.Errorf("cpu fraction out of range: %g", v)
			}
		}
	}
	if _, err := NewReducer("empty", chip.StampedeNode().Registry()).Panels(VecWidth); err == nil {
		t.Error("empty job accepted by Panels")
	}
}

func TestComputeWithArchVectorWidth(t *testing.T) {
	// The same job run on a pre-AVX (SSE, width 2) node must report the
	// demanded flop rate when reduced with the matching width — the
	// per-architecture self-customization end to end.
	cfg, err := chip.ByArch(chip.Westmere)
	if err != nil {
		t.Fatal(err)
	}
	node := chip.NodeConfig{
		Desc:     cfg,
		Topo:     chip.Topology{Sockets: 2, CoresPerSocket: 6, ThreadsPerCore: 2},
		MemBytes: 24 << 30,
	}
	spec := workload.Spec{
		JobID: "sse", User: "u1", Exe: "old.x", Queue: "normal",
		Nodes: 2, Runtime: 3600, Status: workload.StatusCompleted,
		Model: workload.Steady{Label: "v", P: workload.VectorizedCompute("u1", "old.x", 0.6)},
	}
	run, err := cluster.RunJob(spec, node, 600, 31)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.VectorizedCompute("u1", "old.x", 0.6)
	r := feed(spec.JobID, node.Registry(), run.Snapshots)
	sWrong, err := r.Result(VecWidth) // the AVX width
	if err != nil {
		t.Fatal(err)
	}
	sRight, err := r.Result(cfg.VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sRight.Flops-p.Flops)/p.Flops > 0.10 {
		t.Errorf("width-2 reduction flops = %g, want ~%g", sRight.Flops, p.Flops)
	}
	// Reducing SSE counters with the AVX width overstates flops.
	if sWrong.Flops <= sRight.Flops {
		t.Errorf("AVX-width reduction should overstate SSE flops: %g <= %g",
			sWrong.Flops, sRight.Flops)
	}
	// VecPercent is width-independent.
	if math.Abs(sRight.VecPercent-0.6) > 0.05 {
		t.Errorf("VecPercent = %g", sRight.VecPercent)
	}
}

// TestRateSumsInstancesInNameOrder pins the order rate folds a class's
// instances in. One delta of 2^60 beside eight of 128 sums to 2^60 when
// the large one comes first (each 128 is half an ulp and rounds away)
// and to 2^60+1024 when it comes last, so a fold in arrival or map order
// returns different bits from run to run.
func TestRateSumsInstancesInNameOrder(t *testing.T) {
	deltas := map[string]uint64{"a-big": 1 << 60}
	for i := 0; i < 8; i++ {
		deltas[fmt.Sprintf("s%d", i)] = 128
	}
	want := float64(1 << 60)
	for i := 0; i < 30; i++ {
		r := NewReducer("order", schema.DefaultRegistry())
		var first, second []model.Record
		for inst, d := range deltas { // map order: records arrive shuffled
			first = append(first, model.Record{Class: schema.ClassMDC, Instance: inst, Values: []uint64{0, 0}})
			second = append(second, model.Record{Class: schema.ClassMDC, Instance: inst, Values: []uint64{d, 0}})
		}
		r.Add(model.Snapshot{Host: "h", Time: 0, Records: first})
		r.Add(model.Snapshot{Host: "h", Time: 1, Records: second})
		if got := r.hosts["h"].rate(schema.ClassMDC, schema.EvMDCReqs); got != want {
			t.Fatalf("run %d: rate = %v, want %v (instances folded out of name order)", i, got, want)
		}
	}
}

// TestTimeSeriesCreditsNodeVecWidth: a Nehalem (SSE, width 2) job's
// Gigaflops panel is (scalar + 2·vector)/1e9 per node and interval, the
// rates summed over the node's cores in name order — not the AVX
// fleet's width 4.
func TestTimeSeriesCreditsNodeVecWidth(t *testing.T) {
	cfg, err := chip.Fleet("nehalem")
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{
		JobID: "sse", User: "u1", Exe: "old.x", Queue: "normal",
		Nodes: 2, Runtime: 3000, Status: workload.StatusCompleted,
		Model: workload.Steady{Label: "v", P: workload.VectorizedCompute("u1", "old.x", 0.6)},
	}
	run, err := cluster.RunJob(spec, cfg, 600, 37)
	if err != nil {
		t.Fatal(err)
	}
	reg := cfg.Registry()
	r, jd := NewReducer(spec.JobID, reg), refNewJobData(spec.JobID)
	for _, s := range run.Snapshots {
		r.Add(s)
		jd.AddSnapshot(s)
	}
	if _, err := r.Panels(0); err == nil {
		t.Error("Panels accepted vector width 0")
	}
	js, err := r.Panels(cfg.Desc.VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	pmc := reg.Get(schema.ClassPMC)
	iS, iV := pmc.MustIndex(schema.EvPMCFPScalar), pmc.MustIndex(schema.EvPMCFPVector)
	gf := js.Panels[0]
	for _, ns := range gf.Nodes {
		hd := jd.Hosts[ns.Host]
		var scalar, vector []float64
		for _, inst := range hd.Instances(schema.ClassPMC) {
			smp := hd.Series[schema.ClassPMC][inst].Samples
			for k := 1; k < len(smp); k++ {
				dt := smp[k].Time - smp[k-1].Time
				s := float64(schema.RolloverDelta(smp[k-1].Values[iS], smp[k].Values[iS], pmc.Events[iS])) / dt
				v := float64(schema.RolloverDelta(smp[k-1].Values[iV], smp[k].Values[iV], pmc.Events[iV])) / dt
				if k-1 < len(scalar) {
					scalar[k-1] += s
					vector[k-1] += v
				} else {
					scalar, vector = append(scalar, s), append(vector, v)
				}
			}
		}
		if len(ns.Values) != len(scalar) || len(scalar) == 0 {
			t.Fatalf("host %s: %d panel values, %d intervals", ns.Host, len(ns.Values), len(scalar))
		}
		for k, got := range ns.Values {
			if want := (scalar[k] + 2*vector[k]) / 1e9; got != want {
				t.Errorf("host %s interval %d: %v GF/s, want (scalar + 2·vector)/1e9 = %v", ns.Host, k, got, want)
			}
		}
	}
}

// TestPanelsAgreeWithRowOnRepeatedFirstSweep: a job's page and its row
// come from one reduction. A 2-node WRF job has its first sweep repeated
// at the same instant on each node, as the cluster engine's begin-mark
// and interval sweeps are at every job start. Its panels keep strictly
// increasing Times with one value per time on every node line (no t=0
// point from the zero-length interval), they equal the unrepeated
// run's panels bit for bit, and the Lustre panel's largest node-summed
// interval is the row's LnetMaxBW.
func TestPanelsAgreeWithRowOnRepeatedFirstSweep(t *testing.T) {
	spec := workload.Spec{
		JobID: "rep", User: "u1", Exe: "wrf.exe", Queue: "normal",
		Nodes: 2, Runtime: 3000, Status: workload.StatusCompleted,
		Model: workload.Steady{Label: "wrf", P: workload.WRFProfile("u1")},
	}
	cfg := chip.StampedeNode()
	run, err := cluster.RunJob(spec, cfg, 600, 43)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []model.Snapshot
	repeated := map[string]bool{}
	for _, s := range run.Snapshots {
		snaps = append(snaps, s)
		if !repeated[s.Host] {
			repeated[s.Host] = true
			snaps = append(snaps, s.Clone())
		}
	}
	r := feed(spec.JobID, cfg.Registry(), snaps)
	row, err := r.Result(cfg.Desc.VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	js, err := r.Panels(cfg.Desc.VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range js.Panels {
		if len(p.Times) < 2 {
			t.Fatalf("panel %q: %d times", p.Name, len(p.Times))
		}
		for i := 1; i < len(p.Times); i++ {
			if p.Times[i] <= p.Times[i-1] {
				t.Errorf("panel %q: time %d is %v after %v", p.Name, i, p.Times[i], p.Times[i-1])
			}
		}
		for _, ns := range p.Nodes {
			if len(ns.Values) != len(p.Times) {
				t.Fatalf("panel %q host %s: %d values for %d times", p.Name, ns.Host, len(ns.Values), len(p.Times))
			}
		}
	}
	once, err := feed(spec.JobID, cfg.Registry(), run.Snapshots).Panels(cfg.Desc.VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	checkPanels(t, "repeated first sweep vs once", js, once)
	lustre := js.Panels[3]
	peak := 0.0
	for i := range lustre.Times {
		sum := 0.0
		for _, ns := range lustre.Nodes {
			sum += ns.Values[i]
		}
		peak = math.Max(peak, sum)
	}
	// Each host's interval is divided by 1e6 before the node sum and the
	// row's sum is divided after it: three roundings against one, so the
	// two stay within 4 ulp.
	want := row.LnetMaxBW / 1e6
	if want <= 0 {
		t.Fatalf("LnetMaxBW = %v, want Lustre traffic", row.LnetMaxBW)
	}
	if d := int64(math.Float64bits(peak)) - int64(math.Float64bits(want)); d < -4 || d > 4 {
		t.Errorf("largest node-summed Lustre interval %v MB/s, row LnetMaxBW/1e6 = %v (%d ulp apart)", peak, want, d)
	}
}
