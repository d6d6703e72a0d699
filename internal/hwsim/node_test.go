package hwsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gostats/internal/chip"
	"gostats/internal/schema"
)

func testNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode("c401-101", chip.StampedeNode(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// val extracts a named event value from the first instance of a class.
func val(t *testing.T, n *Node, c schema.Class, inst int, ev string) uint64 {
	t.Helper()
	recs := n.Read(c)
	if len(recs) <= inst {
		t.Fatalf("class %s has %d instances, want > %d", c, len(recs), inst)
	}
	sch := n.Registry().Get(c)
	return recs[inst].Values[sch.MustIndex(ev)]
}

func TestNewNodeRejectsBadTopology(t *testing.T) {
	cfg := chip.StampedeNode()
	cfg.Topo.Sockets = 0
	if _, err := NewNode("x", cfg, 1); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestInstanceCounts(t *testing.T) {
	n := testNode(t)
	cases := []struct {
		class schema.Class
		want  int
	}{
		{schema.ClassCPU, 16}, // 2 sockets x 8 cores, no HT
		{schema.ClassPMC, 16}, // one per physical core
		{schema.ClassRAPL, 2}, // per socket
		{schema.ClassMem, 2},
		{schema.ClassIMC, 8}, // 4 channels per socket
		{schema.ClassIB, 1},
		{schema.ClassOSC, 4},
		{schema.ClassMIC, 1},
	}
	for _, c := range cases {
		if got := len(n.Read(c.class)); got != c.want {
			t.Errorf("%s: %d instances, want %d", c.class, got, c.want)
		}
	}
}

func TestHTNodeProgramsOneCounterPerCore(t *testing.T) {
	n, err := NewNode("nid00001", chip.LonestarNode(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Read(schema.ClassCPU)); got != 48 {
		t.Errorf("HT node logical cpus = %d, want 48", got)
	}
	if got := len(n.Read(schema.ClassPMC)); got != 24 {
		t.Errorf("HT node pmc instances = %d, want 24 (one per physical core)", got)
	}
}

func TestCountersAreCumulativeAndMonotonic(t *testing.T) {
	n := testNode(t)
	d := Demand{CPUUserFrac: 0.9, IPC: 1.5, FlopsRate: 1e10, VecFrac: 0.5,
		LoadRate: 1e9, L1HitFrac: 0.9, MemBW: 1e10, MemUsed: 8 << 30,
		MDCReqRate: 100, OSCReqRate: 50, LustreReadBW: 1e8, IBBW: 1e9}
	prev := map[string]uint64{}
	for step := 0; step < 5; step++ {
		n.Advance(10, d)
		for _, c := range []schema.Class{schema.ClassCPU, schema.ClassPMC, schema.ClassIB, schema.ClassMDC} {
			sch := n.Registry().Get(c)
			for _, r := range n.Read(c) {
				for i, v := range r.Values {
					if sch.Events[i].Kind != schema.Event {
						continue
					}
					key := string(c) + "/" + r.Instance + "/" + sch.Events[i].Name
					if v < prev[key] {
						t.Errorf("step %d: %s went backwards: %d -> %d", step, key, prev[key], v)
					}
					prev[key] = v
				}
			}
		}
	}
}

func TestAdvanceZeroOrNegativeDtIsNoop(t *testing.T) {
	n := testNode(t)
	n.Advance(10, Demand{CPUUserFrac: 1, IPC: 1})
	before := val(t, n, schema.ClassCPU, 0, schema.EvCPUUser)
	n.Advance(0, Demand{CPUUserFrac: 1, IPC: 1})
	n.Advance(-5, Demand{CPUUserFrac: 1, IPC: 1})
	after := val(t, n, schema.ClassCPU, 0, schema.EvCPUUser)
	if before != after {
		t.Errorf("zero/negative dt advanced counters: %d -> %d", before, after)
	}
}

func TestCPUJiffyAccounting(t *testing.T) {
	n := testNode(t)
	n.Advance(600, Demand{CPUUserFrac: 0.8, CPUSysFrac: 0.1, IPC: 1})
	sch := n.Registry().Get(schema.ClassCPU)
	for _, r := range n.Read(schema.ClassCPU) {
		var total uint64
		for i, e := range sch.Events {
			if e.Kind == schema.Event {
				total += r.Values[i]
			}
		}
		// 600 s -> 60000 jiffies per cpu, modulo integer truncation.
		if total < 59000 || total > 61000 {
			t.Errorf("cpu %s jiffy total = %d, want ~60000", r.Instance, total)
		}
		user := float64(r.Values[sch.MustIndex(schema.EvCPUUser)])
		if user < 0.7*60000 || user > 0.9*60000 {
			t.Errorf("cpu %s user jiffies = %g, want ~48000", r.Instance, user)
		}
	}
}

func TestFlopsAndVectorizationBookkeeping(t *testing.T) {
	n := testNode(t)
	const flops = 1e11
	const vecFrac = 0.75
	n.Advance(100, Demand{CPUUserFrac: 1, IPC: 2, FlopsRate: flops, VecFrac: vecFrac})
	sch := n.Registry().Get(schema.ClassPMC)
	var scalar, vector float64
	for _, r := range n.Read(schema.ClassPMC) {
		scalar += float64(r.Values[sch.MustIndex(schema.EvPMCFPScalar)])
		vector += float64(r.Values[sch.MustIndex(schema.EvPMCFPVector)])
	}
	// Reconstructed flops: scalar + 4*vector over 100 s.
	recon := (scalar + 4*vector) / 100
	if math.Abs(recon-flops)/flops > 0.05 {
		t.Errorf("reconstructed flops = %g, want %g", recon, flops)
	}
	gotVec := vector / (scalar + vector)
	if math.Abs(gotVec-vecFrac) > 0.03 {
		t.Errorf("vector fraction = %g, want %g", gotVec, vecFrac)
	}
}

func TestRAPL32BitRollover(t *testing.T) {
	n := testNode(t)
	// Drive enough energy through to roll a 32-bit mJ register:
	// 2^32 mJ ~ 4.3 MJ; at ~220 W node power that's ~5.4 h per socket
	// (~110 W each). Run 30 simulated hours.
	for i := 0; i < 180; i++ {
		n.Advance(600, Demand{CPUUserFrac: 1, IPC: 1})
	}
	v := val(t, n, schema.ClassRAPL, 0, schema.EvRAPLPkg)
	if v >= 1<<32 {
		t.Errorf("rapl register exceeded 32 bits: %d", v)
	}
	// Total energy actually delivered exceeds the register range, so the
	// masked value must be less than the unmasked accumulation would be.
	// (The bank accumulates in float64 internally; the read is masked.)
}

func TestMemGaugeIsInstantaneous(t *testing.T) {
	n := testNode(t)
	n.Advance(10, Demand{MemUsed: 20 << 30})
	used1 := val(t, n, schema.ClassMem, 0, schema.EvMemUsed) + val(t, n, schema.ClassMem, 1, schema.EvMemUsed)
	n.Advance(10, Demand{MemUsed: 4 << 30})
	used2 := val(t, n, schema.ClassMem, 0, schema.EvMemUsed) + val(t, n, schema.ClassMem, 1, schema.EvMemUsed)
	if used1 != 20<<30 {
		t.Errorf("used1 = %d, want %d", used1, uint64(20<<30))
	}
	if used2 != 4<<30 {
		t.Errorf("gauge did not drop: used2 = %d", used2)
	}
	total := val(t, n, schema.ClassMem, 0, schema.EvMemTotal) + val(t, n, schema.ClassMem, 1, schema.EvMemTotal)
	if total != 32<<30 {
		t.Errorf("MemTotal = %d, want 32 GiB", total)
	}
}

func TestMemUsedClampedToTotal(t *testing.T) {
	n := testNode(t)
	n.Advance(10, Demand{MemUsed: 1 << 45}) // absurd demand
	used := val(t, n, schema.ClassMem, 0, schema.EvMemUsed)
	total := val(t, n, schema.ClassMem, 0, schema.EvMemTotal)
	if used > total {
		t.Errorf("used %d exceeds total %d", used, total)
	}
}

func TestLustreCounters(t *testing.T) {
	n := testNode(t)
	n.Advance(100, Demand{
		MDCReqRate: 1000, MDCWaitUs: 50,
		OSCReqRate: 400, OSCWaitUs: 200,
		LustreReadBW: 1e6, LustreWriteBW: 2e6,
		OpenCloseRate: 60,
	})
	if got := val(t, n, schema.ClassMDC, 0, schema.EvMDCReqs); got != 100000 {
		t.Errorf("mdc reqs = %d, want 100000", got)
	}
	if got := val(t, n, schema.ClassMDC, 0, schema.EvMDCWaitUs); got != 5000000 {
		t.Errorf("mdc wait = %d, want 5000000", got)
	}
	// OSC split across 4 OSTs.
	var oscReqs uint64
	for i := 0; i < 4; i++ {
		oscReqs += val(t, n, schema.ClassOSC, i, schema.EvOSCReqs)
	}
	if oscReqs != 40000 {
		t.Errorf("osc reqs = %d, want 40000", oscReqs)
	}
	if got := val(t, n, schema.ClassLnet, 0, schema.EvLnetRxBytes); got != 1e8 {
		t.Errorf("lnet rx = %d, want 1e8", got)
	}
	if got := val(t, n, schema.ClassLnet, 0, schema.EvLnetTxBytes); got != 2e8 {
		t.Errorf("lnet tx = %d, want 2e8", got)
	}
	opens := val(t, n, schema.ClassLlite, 1, schema.EvLliteOpen) // "scratch" sorts after "work"? no: instances ordered as created
	_ = opens
	// The scratch filesystem carries all open/close traffic.
	recs := n.Read(schema.ClassLlite)
	sch := n.Registry().Get(schema.ClassLlite)
	var totalOpens uint64
	for _, r := range recs {
		totalOpens += r.Values[sch.MustIndex(schema.EvLliteOpen)]
	}
	if totalOpens != 3000 {
		t.Errorf("opens = %d, want 3000", totalOpens)
	}
}

func TestIBIncludesLnetTraffic(t *testing.T) {
	n := testNode(t)
	n.Advance(100, Demand{IBBW: 1e6, LustreReadBW: 5e5, LustreWriteBW: 5e5})
	rx := val(t, n, schema.ClassIB, 0, schema.EvIBRxBytes)
	// rx = (MPI + lustre read) * 100 s = 1.5e8
	if rx != 15e7 {
		t.Errorf("ib rx = %d, want 1.5e8", rx)
	}
	lnetRx := val(t, n, schema.ClassLnet, 0, schema.EvLnetRxBytes)
	if rx <= lnetRx {
		t.Error("ib traffic should strictly exceed lnet traffic when MPI is active")
	}
}

func TestProcessTableAndHighWaterMark(t *testing.T) {
	n := testNode(t)
	p := Process{PID: 100, Exe: "wrf.exe", Owner: "u1", VmSize: 4 << 30, VmRSS: 2 << 30, Threads: 16}
	n.Advance(10, Demand{CPUUserFrac: 0.5, Processes: []Process{p}})
	// RSS shrinks; HWM must not.
	p.VmRSS = 1 << 30
	n.Advance(10, Demand{CPUUserFrac: 0.5, Processes: []Process{p}})

	recs := n.Read(schema.ClassPS)
	if len(recs) != 1 {
		t.Fatalf("ps records = %d", len(recs))
	}
	sch := n.Registry().Get(schema.ClassPS)
	hwm := recs[0].Values[sch.MustIndex(schema.EvPSVmHWM)]
	rss := recs[0].Values[sch.MustIndex(schema.EvPSVmRSS)]
	if hwm != 2<<30 {
		t.Errorf("VmHWM = %d, want %d", hwm, uint64(2<<30))
	}
	if rss != 1<<30 {
		t.Errorf("VmRSS = %d, want %d", rss, uint64(1<<30))
	}
	if recs[0].Instance != "100/u1/wrf.exe" {
		t.Errorf("ps instance = %q", recs[0].Instance)
	}

	// Process exits: table empties and HWM state is reclaimed.
	n.Advance(10, Demand{})
	if got := n.Read(schema.ClassPS); len(got) != 0 {
		t.Errorf("ps records after exit = %d", len(got))
	}
	// New process with same PID starts fresh.
	n.Advance(10, Demand{Processes: []Process{{PID: 100, Exe: "a.out", Owner: "u2", VmRSS: 1 << 20}}})
	recs = n.Read(schema.ClassPS)
	if hwm := recs[0].Values[sch.MustIndex(schema.EvPSVmHWM)]; hwm != 1<<20 {
		t.Errorf("recycled pid inherited old HWM: %d", hwm)
	}
}

func TestReadAllCoversRegistry(t *testing.T) {
	n := testNode(t)
	n.Advance(10, Demand{CPUUserFrac: 0.5, IPC: 1, Processes: []Process{{PID: 1, Exe: "init", Owner: "root"}}})
	recs := n.ReadAll()
	seen := map[schema.Class]bool{}
	for _, r := range recs {
		seen[r.Class] = true
	}
	for _, c := range n.Registry().Classes() {
		if !seen[c] {
			t.Errorf("ReadAll missing class %s", c)
		}
	}
}

func TestReadUnknownClass(t *testing.T) {
	n := testNode(t)
	if got := n.Read("bogus"); got != nil {
		t.Errorf("unknown class returned %v", got)
	}
}

func TestNodeWithoutPhiHasNoMIC(t *testing.T) {
	cfg := chip.StampedeNode()
	cfg.HasPhi = false
	n, err := NewNode("x", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Read(schema.ClassMIC); got != nil {
		t.Errorf("phi-less node exposes mic: %v", got)
	}
}

func TestDemandSanitize(t *testing.T) {
	d := Demand{
		CPUUserFrac: 1.5, CPUSysFrac: -0.2, VecFrac: 2,
		FlopsRate: -1, L1HitFrac: 0.8, L2HitFrac: 0.8, LLCHitFrac: 0.8,
		MDCReqRate: -5, IPC: -1,
	}
	s := d.sanitize()
	if s.CPUUserFrac > 1 || s.CPUSysFrac < 0 {
		t.Errorf("cpu fracs not sanitized: %+v", s)
	}
	if s.VecFrac != 1 {
		t.Errorf("VecFrac = %g", s.VecFrac)
	}
	if s.FlopsRate != 0 || s.MDCReqRate != 0 || s.IPC != 0 {
		t.Errorf("negative rates not zeroed: %+v", s)
	}
	if tot := s.L1HitFrac + s.L2HitFrac + s.LLCHitFrac; tot > 1.0001 {
		t.Errorf("hit fractions sum to %g", tot)
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	mk := func() uint64 {
		n, _ := NewNode("x", chip.StampedeNode(), 7)
		n.Advance(60, Demand{CPUUserFrac: 0.7, IPC: 1.2, FlopsRate: 1e9, LoadRate: 1e8, MemBW: 1e9})
		return n.Read(schema.ClassPMC)[0].Values[0]
	}
	if mk() != mk() {
		t.Error("same seed produced different counters")
	}
	n2, _ := NewNode("x", chip.StampedeNode(), 8)
	n2.Advance(60, Demand{CPUUserFrac: 0.7, IPC: 1.2, FlopsRate: 1e9, LoadRate: 1e8, MemBW: 1e9})
	if n2.Read(schema.ClassPMC)[0].Values[0] == mk() {
		t.Error("different seeds produced identical jitter (suspicious)")
	}
}

func TestIdleDemand(t *testing.T) {
	d := IdleDemand()
	if d.CPUUserFrac != 0 || d.MemUsed == 0 || d.Watts == 0 {
		t.Errorf("idle demand unexpected: %+v", d)
	}
}

// Property: for ANY random demand sequence, cumulative counters never
// decrease between reads (the contract the whole metric pipeline rests
// on), and gauge values stay within physical bounds.
func TestQuickCountersMonotoneUnderRandomDemand(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n, err := NewNode("prop", chip.StampedeNode(), seed)
		if err != nil {
			return false
		}
		prev := map[string]uint64{}
		reg := n.Registry()
		for s := 0; s < int(steps)%12+2; s++ {
			d := Demand{
				CPUUserFrac: rng.Float64() * 1.5, // sanitize clamps
				CPUSysFrac:  rng.Float64() * 0.5,
				IPC:         rng.Float64() * 3,
				FlopsRate:   rng.Float64() * 1e11,
				VecFrac:     rng.Float64() * 1.2,
				LoadRate:    rng.Float64() * 1e10,
				L1HitFrac:   rng.Float64(),
				MemBW:       rng.Float64() * 1e11,
				MemUsed:     uint64(rng.Int63n(64 << 30)),
				MDCReqRate:  rng.Float64() * 1e6,
				IBBW:        rng.Float64() * 1e9,
			}
			n.Advance(rng.Float64()*1200+1, d)
			for _, c := range reg.Classes() {
				if c == schema.ClassPS {
					continue
				}
				sch := reg.Get(c)
				for _, r := range n.Read(c) {
					for i, v := range r.Values {
						if sch.Events[i].Kind != schema.Event {
							continue
						}
						// Skip registers narrower than 64 bits: they
						// legitimately roll over (RAPL in minutes).
						if sch.Events[i].Width != 0 && sch.Events[i].Width < 64 {
							continue
						}
						key := string(c) + "/" + r.Instance + "/" + sch.Events[i].Name
						if v < prev[key] {
							return false
						}
						prev[key] = v
					}
				}
			}
			// Gauge bound: memory used never exceeds the node's total.
			memSch := reg.Get(schema.ClassMem)
			for _, r := range n.Read(schema.ClassMem) {
				used := r.Values[memSch.MustIndex(schema.EvMemUsed)]
				total := r.Values[memSch.MustIndex(schema.EvMemTotal)]
				if used > total {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLimitedPMCNodeCollectsSubset(t *testing.T) {
	// A Nehalem-era node (4 programmable counters) exposes the reduced
	// PMC schema and still produces consistent counters for the events
	// it has; the metric engine sees zero for the missing hit levels.
	desc, err := chip.ByArch(chip.Westmere)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chip.NodeConfig{
		Desc:     desc,
		Topo:     chip.Topology{Sockets: 2, CoresPerSocket: 6, ThreadsPerCore: 2},
		MemBytes: 24 << 30,
	}
	n, err := NewNode("nhm", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sch := n.Registry().Get(schema.ClassPMC)
	if sch.Len() != 6 {
		t.Fatalf("limited pmc schema has %d events, want 6", sch.Len())
	}
	if sch.Index(schema.EvPMCLoadL2Hit) != -1 || sch.Index(schema.EvPMCLoadLLCHit) != -1 {
		t.Error("limited schema still lists L2/LLC hit events")
	}
	n.Advance(600, Demand{CPUUserFrac: 0.9, IPC: 1.3, FlopsRate: 1e10, VecFrac: 0.5,
		LoadRate: 1e9, L1HitFrac: 0.9, L2HitFrac: 0.05, LLCHitFrac: 0.03})
	recs := n.Read(schema.ClassPMC)
	if len(recs) != 12 {
		t.Fatalf("pmc instances = %d, want 12 physical cores", len(recs))
	}
	if got := recs[0].Values[sch.MustIndex(schema.EvPMCCycles)]; got == 0 {
		t.Error("cycles did not advance on limited part")
	}
	if len(recs[0].Values) != 6 {
		t.Errorf("record arity = %d, want 6", len(recs[0].Values))
	}
}
