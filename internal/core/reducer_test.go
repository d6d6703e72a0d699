package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/preload"
	"gostats/internal/schema"
	"gostats/internal/workload"
)

// intervalFields are the Summary fields taken from interval-indexed
// series. The Reducer aligns those by time; refCompute aligned them by
// each instance's own sample index. The two agree on any stream whose
// interval classes are aligned (see aligned), and may differ otherwise.
var intervalFields = map[string]bool{
	"MetaDataRate": true, "LnetMaxBW": true, "InternodeIBMaxBW": true,
	"MemUsage": true, "Catastrophe": true,
}

// The classes whose interval series Result reads, and those Panels reads.
var (
	summaryClasses = []schema.Class{schema.ClassMDC, schema.ClassLnet, schema.ClassIB, schema.ClassMem, schema.ClassCPU}
	panelClasses   = []schema.Class{schema.ClassMDC, schema.ClassLnet, schema.ClassIB, schema.ClassMem, schema.ClassCPU, schema.ClassPMC, schema.ClassIMC}
)

// aligned reports whether each of the given classes of every host has
// all its instances sampled at the same, strictly increasing times —
// the streams on which time and per-instance index give the same
// intervals.
func aligned(jd *refJobData, classes []schema.Class) bool {
	for _, hd := range jd.Hosts {
		for _, c := range classes {
			var times []float64
			for i, inst := range hd.Instances(c) {
				s := hd.Series[c][inst]
				if i == 0 {
					for k, smp := range s.Samples {
						if k > 0 && smp.Time <= s.Samples[k-1].Time {
							return false
						}
						times = append(times, smp.Time)
					}
					continue
				}
				if len(s.Samples) != len(times) {
					return false
				}
				for k, smp := range s.Samples {
					if smp.Time != times[k] {
						return false
					}
				}
			}
		}
	}
	return true
}

// bounds is a closed interval a declared field must lie in.
type bounds struct{ lo, hi float64 }

// intervalEnvelope bounds each interval-indexed field over every way of
// grouping jd's per-instance interval terms into intervals, refCompute's
// and the Reducer's included. A term is one instance's rate over one
// sampling interval (one gauge sample for MemUsage). Each interval
// holds at most one term per (host, instance, column) and every term
// lands in some interval, so a peak is at least the largest term and
// at most the sum over (host, instance, column) of each one's largest
// term. IB−Lnet is clamped at zero, and Catastrophe is a ratio in [0, 1].
func intervalEnvelope(jd *refJobData, reg *schema.Registry) map[string]bounds {
	env := map[string]bounds{"Catastrophe": {0, 1}}
	fold := func(field string, c schema.Class, gauge bool, evs ...string) {
		b := env[field]
		sch := reg.Get(c)
		if sch == nil {
			env[field] = b
			return
		}
		for _, hd := range jd.Hosts {
			for _, s := range hd.Series[c] {
				for _, ev := range evs {
					idx := sch.Index(ev)
					if idx < 0 {
						continue
					}
					top := 0.0
					for k, smp := range s.Samples {
						var v float64
						switch {
						case gauge:
							v = float64(smp.Values[idx])
						case k == 0 || smp.Time <= s.Samples[k-1].Time:
							continue
						default:
							prev := s.Samples[k-1]
							v = float64(schema.RolloverDelta(prev.Values[idx], smp.Values[idx], sch.Events[idx])) / (smp.Time - prev.Time)
						}
						top = math.Max(top, v)
					}
					b.lo = math.Max(b.lo, top)
					b.hi += top
				}
			}
		}
		env[field] = b
	}
	fold("MetaDataRate", schema.ClassMDC, false, schema.EvMDCReqs)
	fold("LnetMaxBW", schema.ClassLnet, false, schema.EvLnetRxBytes, schema.EvLnetTxBytes)
	fold("InternodeIBMaxBW", schema.ClassIB, false, schema.EvIBRxBytes, schema.EvIBTxBytes)
	fold("MemUsage", schema.ClassMem, true, schema.EvMemUsed)
	ib := env["InternodeIBMaxBW"]
	env["InternodeIBMaxBW"] = bounds{0, ib.hi}
	return env
}

// checkSummary compares got against want, the oracle's Summary of jd,
// field by field: every field bit for bit on an aligned stream; on any
// other stream every field but the interval-indexed ones bit for bit,
// and those inside intervalEnvelope.
func checkSummary(t *testing.T, label string, jd *refJobData, reg *schema.Registry, got, want *Summary) {
	t.Helper()
	exact := aligned(jd, summaryClasses)
	var env map[string]bounds
	if !exact {
		env = intervalEnvelope(jd, reg)
	}
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < w.NumField(); i++ {
		name := w.Type().Field(i).Name
		gf, wf := g.Field(i), w.Field(i)
		if wf.Kind() != reflect.Float64 {
			if !reflect.DeepEqual(gf.Interface(), wf.Interface()) {
				t.Errorf("%s: %s = %v, oracle %v", label, name, gf.Interface(), wf.Interface())
			}
			continue
		}
		gv, wv := gf.Float(), wf.Float()
		if math.Float64bits(gv) == math.Float64bits(wv) {
			continue
		}
		if exact || !intervalFields[name] {
			t.Errorf("%s: %s = %v (%#x), oracle %v (%#x)", label, name, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
			continue
		}
		b := env[name]
		for _, v := range []float64{gv, wv} {
			if v < b.lo*(1-1e-12) || v > b.hi*(1+1e-12) {
				t.Errorf("%s: declared field %s = %v (oracle %v) outside its envelope [%v, %v]", label, name, gv, wv, b.lo, b.hi)
			}
		}
	}
}

// checkPanels compares got against want (the oracle's panels, or
// another reduction's), every time and value bit for bit.
func checkPanels(t *testing.T, label string, got, want *JobSeries) {
	t.Helper()
	same := func(what string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Errorf("%s: %s has %d points, want %d", label, what, len(g), len(w))
			return
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Errorf("%s: %s[%d] = %v, want %v", label, what, i, g[i], w[i])
				return
			}
		}
	}
	if got.JobID != want.JobID || len(got.Panels) != len(want.Panels) {
		t.Fatalf("%s: job %q with %d panels, want %q with %d", label, got.JobID, len(got.Panels), want.JobID, len(want.Panels))
	}
	for i, w := range want.Panels {
		g := got.Panels[i]
		if g.Name != w.Name || g.Unit != w.Unit || len(g.Nodes) != len(w.Nodes) {
			t.Errorf("%s: panel %d is %q (%s) with %d nodes, want %q (%s) with %d", label, i, g.Name, g.Unit, len(g.Nodes), w.Name, w.Unit, len(w.Nodes))
			continue
		}
		same(w.Name+" times", g.Times, w.Times)
		for k, wn := range w.Nodes {
			if g.Nodes[k].Host != wn.Host {
				t.Errorf("%s: %s node %d is %s, want %s", label, w.Name, k, g.Nodes[k].Host, wn.Host)
				continue
			}
			same(w.Name+" "+wn.Host, g.Nodes[k].Values, wn.Values)
		}
	}
}

// checkStream reduces one job's snapshots two ways — a Reducer fed the
// stream and the oracle over the assembled series — and requires the
// Reducer's Summary to match the oracle's, and on a panel-aligned
// stream its panels too. It reports whether the stream was
// panel-aligned.
func checkStream(t *testing.T, label, id string, snaps []model.Snapshot, reg *schema.Registry, width int) (panelAligned bool) {
	t.Helper()
	jd := refNewJobData(id)
	r := NewReducer(id, reg)
	for _, s := range snaps {
		jd.AddSnapshot(s)
		r.Add(s)
	}
	want, werr := refCompute(jd, reg, width)
	got, err := r.Result(width)
	if werr != nil || err != nil {
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("%s: error %v, oracle %v", label, err, werr)
		}
	} else {
		checkSummary(t, label, jd, reg, got, want)
	}
	if !aligned(jd, panelClasses) {
		return false
	}
	wantJS, werr := refTimeSeries(jd, reg, width)
	gotJS, err := r.Panels(width)
	if werr != nil || err != nil {
		if !errors.Is(err, ErrInsufficient) || !errors.Is(werr, ErrInsufficient) {
			t.Errorf("%s: panels error %v, oracle %v", label, err, werr)
		}
		return true
	}
	checkPanels(t, label, gotJS, wantJS)
	return true
}

// oracleNodes are the node types the oracle check runs every model on.
func oracleNodes(t *testing.T) map[string]chip.NodeConfig {
	t.Helper()
	nehalem, err := chip.Fleet("nehalem")
	if err != nil {
		t.Fatal(err)
	}
	knc, err := chip.ByArch(chip.KnightsCorner)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]chip.NodeConfig{
		"stampede": chip.StampedeNode(),
		"largemem": chip.LargeMemNode(),
		"nehalem":  nehalem,
		"mic": {Desc: knc, Topo: chip.Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 1},
			HasIB: true, HasPhi: true, HasLustre: true, MemBytes: 8 << 30},
	}
}

// oracleModels is one of every workload model.
func oracleModels() []workload.Model {
	const u, exe = "u1", "a.out"
	return []workload.Model{
		workload.Steady{Label: "wrf", P: workload.WRFProfile(u)},
		workload.Steady{Label: "vectorized", P: workload.VectorizedCompute(u, exe, 0.7)},
		workload.Steady{Label: "scalar", P: workload.ScalarCompute(u, exe)},
		workload.Steady{Label: "memory-bound", P: workload.MemoryBound(u, exe)},
		workload.Steady{Label: "mpi-bound", P: workload.MPIBound(u, exe)},
		workload.Steady{Label: "io-bandwidth", P: workload.IOBandwidth(u, exe)},
		workload.Steady{Label: "eth-mpi", P: workload.EthMPI(u, exe)},
		workload.Steady{Label: "largemem-waste", P: workload.LargeMemWaste(u, exe)},
		workload.IdleNodes{Inner: workload.Steady{Label: "v", P: workload.VectorizedCompute(u, exe, 0.5)}, Idle: 1},
		workload.CompileThenRun(workload.VectorizedCompute(u, exe, 0.5)),
		workload.FailMidway(workload.VectorizedCompute(u, exe, 0.2), 0.5),
		workload.PathologicalWRF(u),
		workload.MICOffload{Base: workload.VectorizedCompute(u, exe, 0.6), MICBusy: 0.7},
	}
}

// TestReducerMatchesBatchOracle runs every workload model through the
// cluster on every node type, plus a generated fleet and shared nodes,
// and requires the Reducer's Summary and panels to equal the oracle's
// bit for bit. Every model stream must be panel-aligned, so the panel
// comparison never passes by being skipped.
func TestReducerMatchesBatchOracle(t *testing.T) {
	for name, cfg := range oracleNodes(t) {
		reg := cfg.Registry()
		for i, m := range oracleModels() {
			for _, runtime := range []float64{300, 4*3600 + 250} {
				spec := workload.Spec{
					JobID: fmt.Sprintf("%s-%d-%g", name, i, runtime), User: "u1", Exe: "a.out",
					Queue: "normal", Nodes: 3, Runtime: runtime, Status: workload.StatusCompleted, Model: m,
				}
				run, err := cluster.RunJob(spec, cfg, 600, int64(40+i))
				if err != nil {
					t.Fatalf("%s %s: %v", name, m.Name(), err)
				}
				if !checkStream(t, name+" "+m.Name(), spec.JobID, run.Snapshots, reg, cfg.Desc.VecWidth) {
					t.Errorf("%s %s: stream not panel-aligned, panels unchecked", name, m.Name())
				}
			}
		}
	}
	specs := workload.GenerateFleet(workload.FleetOpts{Seed: 11, Jobs: 40, SpanSec: 7 * 86400})
	for _, spec := range specs {
		if spec.Runtime > 12*3600 {
			spec.Runtime = 12 * 3600
		}
		cfg := chip.StampedeNode()
		if spec.Queue == "largemem" {
			cfg = chip.LargeMemNode()
		}
		run, err := cluster.RunJob(spec, cfg, 600, 11)
		if err != nil {
			t.Fatal(err)
		}
		checkStream(t, "fleet "+spec.Model.Name(), spec.JobID, run.Snapshots, cfg.Registry(), cfg.Desc.VecWidth)
	}
	for id, snaps := range sharedNodeStreams(t) {
		checkStream(t, "shared node", id, snaps, chip.StampedeNode().Registry(), VecWidth)
	}
}

// sharedNodeStreams runs two overlapping jobs on one node through the
// preload tracker (collections at every process start and exit,
// labeled with every job on the node) beside a second node that runs
// job 2 alone, and returns each job's labeled snapshots.
func sharedNodeStreams(t *testing.T) map[string][]model.Snapshot {
	t.Helper()
	cfg := chip.StampedeNode()
	var all []model.Snapshot
	sink := func(s model.Snapshot) { all = append(all, s) }
	var nodes []*hwsim.Node
	var trs []*preload.Tracker
	for i, host := range []string{"s1", "s2"} {
		n, err := hwsim.NewNode(host, cfg, int64(70+i))
		if err != nil {
			t.Fatal(err)
		}
		nodes, trs = append(nodes, n), append(trs, preload.NewTracker(collect.New(n), sink))
	}
	trs[0].JobStart(0, "1")
	trs[0].JobStart(130, "2")
	trs[1].JobStart(130, "2")
	busy := hwsim.Demand{CPUUserFrac: 0.7, IPC: 1.1, LoadRate: 5e8, L1HitFrac: 0.9, MDCReqRate: 40}
	for at := 600.0; at <= 3600; at += 600 {
		for i, n := range nodes {
			n.Advance(600, busy)
			trs[i].Signal(at-290, preload.ProcExec)
			trs[i].Signal(at-70, preload.ProcExit)
			trs[i].Tick(at)
		}
		if at == 2400 {
			trs[0].JobEnd(at+1, "1")
		}
	}
	trs[0].JobEnd(3700, "2")
	trs[1].JobEnd(3700, "2")
	out := map[string][]model.Snapshot{}
	for _, s := range all {
		for _, id := range s.JobIDs {
			out[id] = append(out[id], s)
		}
	}
	if len(out["1"]) < 4 || len(out["2"]) < 8 {
		t.Fatalf("shared-node streams too thin: %d and %d snapshots", len(out["1"]), len(out["2"]))
	}
	return out
}

// craft is a hand-built host stream: one snapshot per row of times,
// each row holding the records recs gives for that index.
func craft(host string, times []float64, recs func(k int) []model.Record) []model.Snapshot {
	var out []model.Snapshot
	for k, at := range times {
		out = append(out, model.Snapshot{Time: at, Host: host, JobIDs: []string{"x"}, Records: recs(k)})
	}
	return out
}

func cpuRec(inst string, user, idle uint64) model.Record {
	return model.Record{Class: schema.ClassCPU, Instance: inst, Values: []uint64{user, 0, 0, idle, 0, 0, 0}}
}

func mdcRec(inst string, reqs uint64) model.Record {
	return model.Record{Class: schema.ClassMDC, Instance: inst, Values: []uint64{reqs, reqs * 100}}
}

// TestReducerCraftedStreams covers the edges the workload models never
// produce: counter rollover and reset, an instance joining mid-job,
// repeated timestamps, single-sample hosts and missing classes. The
// stream cases are checked against the oracle (bit for bit, or inside
// the declared envelope where the interval alignment differs).
func TestReducerCraftedStreams(t *testing.T) {
	reg := schema.DefaultRegistry()
	times := []float64{0, 600, 1200, 1800}
	wrap := uint64(1)<<48 - 5000
	cases := map[string][]model.Snapshot{
		"rollover and reset": craft("a", times, func(k int) []model.Record {
			pmc := []uint64{wrap + uint64(k)*3000, uint64(k) * 1000, 0, 0, 1, 0, 0, 0}
			pmc[0] &= 1<<48 - 1
			ib := []uint64{[]uint64{9000, 12000, 100, 700}[k], 0, 0, 0} // resets at k=2
			return []model.Record{cpuRec("0", uint64(k)*40000, uint64(k)*20000),
				{Class: schema.ClassPMC, Instance: "0", Values: pmc},
				{Class: schema.ClassIB, Instance: "p1", Values: ib},
				{Class: schema.ClassRAPL, Instance: "0", Values: []uint64{uint64(k) * (1 << 31), 0, 0}}}
		}),
		"instance joins mid-job": craft("a", times, func(k int) []model.Record {
			recs := []model.Record{cpuRec("0", uint64(k)*30000, uint64(k)*30000), mdcRec("m1", uint64(k)*6000)}
			if k >= 2 {
				recs = append(recs, cpuRec("1", uint64(k)*50000, uint64(k)*10000), mdcRec("m0", uint64(k*k)*9000))
			}
			return recs
		}),
		"repeated timestamps": craft("a", []float64{0, 0, 600, 1200, 1200, 1800}, func(k int) []model.Record {
			return []model.Record{cpuRec("0", uint64(k)*30000, uint64(k)*30000), cpuRec("1", uint64(k*k)*9000, uint64(k)*20000),
				mdcRec("m0", uint64(k)*6000), mdcRec("m1", uint64(k*k)*600)}
		}),
		"single-sample host": append(craft("a", times, func(k int) []model.Record {
			return []model.Record{cpuRec("0", uint64(k)*30000, uint64(k)*30000)}
		}), craft("b", times[:1], func(int) []model.Record {
			return []model.Record{cpuRec("0", 0, 0)}
		})...),
		"empty host": append(craft("a", times, func(k int) []model.Record {
			return []model.Record{cpuRec("0", uint64(k)*30000, uint64(k)*30000)}
		}), model.Snapshot{Time: 600, Host: "b"}),
		"missing classes": append(append(craft("a", times, func(k int) []model.Record {
			return []model.Record{cpuRec("0", uint64(k)*30000, uint64(k)*30000), mdcRec("m0", uint64(k)*6000),
				{Class: schema.ClassIB, Instance: "p1", Values: []uint64{uint64(k) * 1e9, uint64(k) * 1e9, 0, 0}},
				{Class: "gpu", Instance: "0", Values: []uint64{uint64(k)}}}
		}), craft("b", times, func(k int) []model.Record {
			return []model.Record{cpuRec("0", uint64(k)*20000, uint64(k)*40000),
				{Class: schema.ClassLnet, Instance: "lnet", Values: []uint64{uint64(k) * 5e8, 0}}}
		})...), craft("c", []float64{0, 2400}, func(k int) []model.Record {
			return []model.Record{{Class: "gpu", Instance: "0", Values: []uint64{uint64(k)}}}
		})...),
	}
	for name, snaps := range cases {
		checkStream(t, name, "x", snaps, reg, VecWidth)
	}
	// The stream cases that break alignment must be recognized as such:
	// otherwise the check above would have held them to exact bits.
	for _, name := range []string{"instance joins mid-job", "repeated timestamps"} {
		jd := refNewJobData("x")
		for _, s := range cases[name] {
			jd.AddSnapshot(s)
		}
		if aligned(jd, summaryClasses) {
			t.Errorf("%s: stream counted as aligned", name)
		}
	}
	if _, err := NewReducer("none", reg).Result(VecWidth); !errors.Is(err, ErrInsufficient) {
		t.Errorf("empty reducer: err = %v, want ErrInsufficient", err)
	}
}

// TestReducerAlignsIntervalsByTime pins the declared difference on the
// stream the cluster engine emits at every job start: a begin-mark
// collection and an interval collection at the same time. Two metadata
// clients each run 100 req/s in the second interval, one of them also
// in the first, so the node's peak is 200 req/s. The Reducer sees it;
// refCompute skips the zero-length interval and shifts only the
// name-first instance, and reports 100.
func TestReducerAlignsIntervalsByTime(t *testing.T) {
	reg := schema.DefaultRegistry()
	m0 := []uint64{0, 0, 60000, 120000}
	m1 := []uint64{0, 0, 0, 60000}
	snaps := craft("a", []float64{0, 0, 600, 1200}, func(k int) []model.Record {
		return []model.Record{cpuRec("0", uint64(k)*30000, uint64(k)*30000), mdcRec("m0", m0[k]), mdcRec("m1", m1[k])}
	})
	jd := refNewJobData("x")
	r := NewReducer("x", reg)
	for _, s := range snaps {
		jd.AddSnapshot(s)
		r.Add(s)
	}
	got, err := r.Result(VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refCompute(jd, reg, VecWidth)
	if err != nil {
		t.Fatal(err)
	}
	if got.MetaDataRate != 200 || want.MetaDataRate != 100 {
		t.Errorf("MetaDataRate: reducer %v (want 200), oracle %v (want 100)", got.MetaDataRate, want.MetaDataRate)
	}
	checkSummary(t, "repeated begin time", jd, reg, got, want)
}

// fuzzStream draws a random multi-host stream: per host a few
// snapshots, times that sometimes repeat, instance sets that change
// from snapshot to snapshot, classes some hosts lack, and counters that
// wrap their register width or reset. Counter steps stay small enough
// that every delta sum is an integer below 2^53, where the Reducer's
// per-instance sums add up to the batch chain exactly.
func fuzzStream(rng *rand.Rand, reg *schema.Registry, nHosts, nSnaps int) []model.Snapshot {
	classes := []schema.Class{schema.ClassCPU, schema.ClassMDC, schema.ClassLnet, schema.ClassIB,
		schema.ClassMem, schema.ClassPMC, schema.ClassRAPL, schema.ClassPS, schema.ClassOSC}
	var out []model.Snapshot
	for h := 0; h < nHosts; h++ {
		host := fmt.Sprintf("h%d", h)
		vals := map[string][]uint64{}
		var present []schema.Class
		for _, c := range classes {
			if rng.Intn(5) > 0 {
				present = append(present, c)
			}
		}
		at := float64(rng.Intn(3)) * 600
		for k := 0; k < nSnaps; k++ {
			s := model.Snapshot{Time: at, Host: host, JobIDs: []string{"f"}}
			for _, c := range present {
				sch := reg.Get(c)
				for i := 0; i < 2; i++ {
					inst := fmt.Sprint(i)
					if rng.Intn(8) == 0 && k > 0 { // missing from this snapshot
						continue
					}
					key := string(c) + "/" + inst
					v := vals[key]
					if v == nil {
						v = make([]uint64, sch.Len())
						for e, def := range sch.Events {
							if def.Width != 0 {
								v[e] = uint64(1)<<def.Width - uint64(rng.Intn(1<<22))
							}
						}
					} else {
						for e, def := range sch.Events {
							switch x := uint64(rng.Int63n(1 << 30)); {
							case rng.Intn(16) == 0:
								v[e] = x // reset
							case def.Width != 0:
								v[e] = (v[e] + x) & (uint64(1)<<def.Width - 1)
							default:
								v[e] += x
							}
						}
					}
					vals[key] = v
					s.Records = append(s.Records, model.Record{Class: c, Instance: inst, Values: append([]uint64(nil), v...)})
				}
			}
			rng.Shuffle(len(s.Records), func(i, j int) { s.Records[i], s.Records[j] = s.Records[j], s.Records[i] })
			out = append(out, s)
			if rng.Intn(5) > 0 {
				at += float64(1 + rng.Intn(900))
			}
		}
	}
	return out
}

// FuzzReducerMatchesBatch feeds random per-host streams through the
// Reducer and the oracle.
func FuzzReducerMatchesBatch(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 7001} {
		f.Add(seed, uint8(3), uint8(6))
	}
	reg := chip.StampedeNode().Registry()
	f.Fuzz(func(t *testing.T, seed int64, hosts, snaps uint8) {
		rng := rand.New(rand.NewSource(seed))
		stream := fuzzStream(rng, reg, int(hosts%4)+1, int(snaps%10)+1)
		checkStream(t, fmt.Sprintf("seed %d", seed), "f", stream, reg, VecWidth)
	})
}
