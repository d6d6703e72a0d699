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

// buildJob constructs a hand-made two-node job with exactly known counter
// series so metric arithmetic can be verified against paper definitions.
//
// Timeline: samples at t = 0, 600, 1200 (duration 1200 s).
func buildJob(t *testing.T) (*model.JobData, *schema.Registry) {
	t.Helper()
	reg := schema.DefaultRegistry()
	jd := model.NewJobData("42")

	addSeries := func(host string, c schema.Class, inst string, vals [][]uint64) {
		hd := jd.Host(host)
		for i, v := range vals {
			hd.Append(float64(i)*600, model.Record{Class: c, Instance: inst, Values: v})
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

	return jd, reg
}

func TestComputeAverageAndMaxMetrics(t *testing.T) {
	jd, reg := buildJob(t)
	s, err := Compute(jd, reg, VecWidth)
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
	jd := model.NewJobData("9")
	hd := jd.Host("a")
	// Interval 1: user 54000/60000; interval 2: user 6000/60000 (drop).
	rows := [][]uint64{
		{0, 0, 0, 0, 0, 0, 0},
		{54000, 0, 0, 6000, 0, 0, 0},
		{60000, 0, 0, 60000, 0, 0, 0},
	}
	for i, v := range rows {
		hd.Append(float64(i)*600, model.Record{Class: schema.ClassCPU, Instance: "0", Values: v})
	}
	s, err := Compute(jd, reg, VecWidth)
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
	jd := model.NewJobData("7")
	hd := jd.Host("a")
	// 48-bit PMC cycles counter rolls over between samples; the decoded
	// delta must be small, not ~2^48.
	start := uint64(1<<48) - 1000
	row := func(cyc, ins uint64) []uint64 {
		return []uint64{cyc, ins, 0, 0, 1, 0, 0, 0}
	}
	hd.Append(0, model.Record{Class: schema.ClassPMC, Instance: "0", Values: row(start, 0)})
	hd.Append(600, model.Record{Class: schema.ClassPMC, Instance: "0", Values: row(2000, 1000)})
	// cpu series to establish duration and usage.
	hd.Append(0, model.Record{Class: schema.ClassCPU, Instance: "0", Values: []uint64{0, 0, 0, 0, 0, 0, 0}})
	hd.Append(600, model.Record{Class: schema.ClassCPU, Instance: "0", Values: []uint64{60000, 0, 0, 0, 0, 0, 0}})

	s, err := Compute(jd, reg, VecWidth)
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
	jd := model.NewJobData("8")
	hd := jd.Host("a")
	// 64-bit IB counter goes backwards (node reboot / reset).
	hd.Append(0, model.Record{Class: schema.ClassIB, Instance: "p1", Values: []uint64{5000, 0, 0, 0}})
	hd.Append(600, model.Record{Class: schema.ClassIB, Instance: "p1", Values: []uint64{100, 0, 0, 0}})
	hd.Append(0, model.Record{Class: schema.ClassCPU, Instance: "0", Values: []uint64{0, 0, 0, 0, 0, 0, 0}})
	hd.Append(600, model.Record{Class: schema.ClassCPU, Instance: "0", Values: []uint64{60000, 0, 0, 0, 0, 0, 0}})
	s, err := Compute(jd, reg, VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	if s.InternodeIBAveBW != 0 {
		t.Errorf("reset counter produced bandwidth %g", s.InternodeIBAveBW)
	}
}

func TestComputeErrors(t *testing.T) {
	reg := schema.DefaultRegistry()
	if _, err := Compute(model.NewJobData("x"), reg, VecWidth); err == nil {
		t.Error("empty job accepted")
	}
	jd := model.NewJobData("y")
	jd.Host("a").Append(0, model.Record{Class: schema.ClassCPU, Instance: "0", Values: make([]uint64, 7)})
	if _, err := Compute(jd, reg, VecWidth); err == nil {
		t.Error("single-sample job accepted")
	}
	jd.Host("a").Append(600, model.Record{Class: schema.ClassCPU, Instance: "0", Values: []uint64{48000, 0, 0, 12000, 0, 0, 0}})
	if _, err := Compute(jd, reg, VecWidth); err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(jd, reg, 0); err == nil {
		t.Error("zero vector width accepted")
	}
}

func TestComputeMissingDevicesYieldZero(t *testing.T) {
	// A node without Lustre/IB/Phi produces zero metrics, not NaN or error.
	reg := schema.DefaultRegistry()
	jd := model.NewJobData("z")
	hd := jd.Host("a")
	hd.Append(0, model.Record{Class: schema.ClassCPU, Instance: "0", Values: make([]uint64, 7)})
	hd.Append(600, model.Record{Class: schema.ClassCPU, Instance: "0", Values: []uint64{48000, 0, 0, 12000, 0, 0, 0}})
	s, err := Compute(jd, reg, VecWidth)
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
	s, err := Compute(run.JobData(), chip.StampedeNode().Registry(), VecWidth)
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
	s, err := Compute(run.JobData(), chip.StampedeNode().Registry(), VecWidth)
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
	js, err := TimeSeries(run.JobData(), chip.StampedeNode().Registry())
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
	if _, err := TimeSeries(model.NewJobData("empty"), chip.StampedeNode().Registry()); err == nil {
		t.Error("empty job accepted by TimeSeries")
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
	sWrong, err := Compute(run.JobData(), node.Registry(), VecWidth) // the AVX width
	if err != nil {
		t.Fatal(err)
	}
	sRight, err := Compute(run.JobData(), node.Registry(), cfg.VecWidth)
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
// and to 2^60+1024 when it comes last, so a fold in map order returns
// different bits from call to call.
func TestRateSumsInstancesInNameOrder(t *testing.T) {
	hd := model.NewJobData("order").Host("h")
	deltas := map[string]uint64{"a-big": 1 << 60}
	for i := 0; i < 8; i++ {
		deltas[fmt.Sprintf("s%d", i)] = 128
	}
	for inst, d := range deltas {
		hd.Append(0, model.Record{Class: schema.ClassMDC, Instance: inst, Values: []uint64{0, 0}})
		hd.Append(1, model.Record{Class: schema.ClassMDC, Instance: inst, Values: []uint64{d, 0}})
	}
	h := newHostReducer(hd, schema.DefaultRegistry())
	want := float64(1 << 60)
	for i := 0; i < 30; i++ {
		if got := h.rate(schema.ClassMDC, schema.EvMDCReqs); got != want {
			t.Fatalf("call %d: rate = %v, want %v (instances folded out of name order)", i, got, want)
		}
	}
}
