// Package hwsim simulates the hardware of an HPC compute node at the
// counter level: every device class TACC Stats monitors is modelled as a
// bank of 64-bit registers that advance according to software demand.
//
// The simulator is deliberately not cycle-accurate — it is *counter*
// accurate. Registers are cumulative and masked to their real hardware
// widths (48-bit core PMCs, 32-bit RAPL energy status), so the collector
// and metric pipeline exercise exactly the same rollover and delta logic
// they would against real silicon.
package hwsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"gostats/internal/chip"
	"gostats/internal/model"
	"gostats/internal/schema"
)

// CoreHz is the simulated core clock. 2.7 GHz matches Stampede's E5-2680.
const CoreHz = 2.7e9

// bank is one device class's register file: a value matrix indexed by
// [instance][event], masked per event width.
type bank struct {
	sch       *schema.Schema
	instances []string
	vals      [][]float64 // accumulated in float64, exposed masked uint64
	masks     []uint64
}

func newBank(sch *schema.Schema, instances []string) *bank {
	b := &bank{sch: sch, instances: instances}
	b.vals = make([][]float64, len(instances))
	for i := range b.vals {
		b.vals[i] = make([]float64, len(sch.Events))
	}
	b.masks = make([]uint64, len(sch.Events))
	for i, e := range sch.Events {
		if e.Width != 0 && e.Width < 64 {
			b.masks[i] = (uint64(1) << e.Width) - 1
		} else {
			b.masks[i] = ^uint64(0)
		}
	}
	return b
}

func (b *bank) add(inst, ev int, x float64) {
	if x > 0 {
		b.vals[inst][ev] += x
	}
}

func (b *bank) set(inst, ev int, x float64) {
	if x < 0 {
		x = 0
	}
	b.vals[inst][ev] = x
}

// read renders the instance's registers as masked uint64s.
func (b *bank) read(inst int) []uint64 {
	out := make([]uint64, len(b.vals[inst]))
	for i, v := range b.vals[inst] {
		out[i] = uint64(v) & b.masks[i]
	}
	return out
}

// Node is one simulated compute node.
type Node struct {
	mu   sync.Mutex
	host string
	cfg  chip.NodeConfig
	reg  *schema.Registry
	rng  *rand.Rand

	banks map[schema.Class]*bank

	procs   []Process      // current process table
	hwm     map[int]uint64 // per-PID resident high water mark
	utime   map[int]float64
	lastDmd Demand
}

// NewNode builds a node with the given hostname and configuration. The
// seed makes each node's jitter deterministic and distinct.
func NewNode(host string, cfg chip.NodeConfig, seed int64) (*Node, error) {
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		host:  host,
		cfg:   cfg,
		reg:   cfg.Registry(),
		rng:   rand.New(rand.NewSource(seed)),
		banks: make(map[schema.Class]*bank),
		hwm:   make(map[int]uint64),
		utime: make(map[int]float64),
	}
	n.initBanks()
	return n, nil
}

func (n *Node) initBanks() {
	topo := n.cfg.Topo
	mk := func(c schema.Class, instances []string) {
		if sch := n.reg.Get(c); sch != nil {
			n.banks[c] = newBank(sch, instances)
		}
	}
	cpus := make([]string, topo.LogicalCPUs())
	for i := range cpus {
		cpus[i] = fmt.Sprintf("%d", i)
	}
	mk(schema.ClassCPU, cpus)

	pmcs := make([]string, 0, topo.PhysicalCores())
	for _, c := range topo.CollectCPUs() {
		pmcs = append(pmcs, fmt.Sprintf("%d", c))
	}
	mk(schema.ClassPMC, pmcs)

	var sockets []string
	for s := 0; s < topo.Sockets; s++ {
		sockets = append(sockets, fmt.Sprintf("%d", s))
	}
	mk(schema.ClassRAPL, sockets)
	mk(schema.ClassMem, sockets)

	// 4 memory channels per socket, 1 QPI link per socket pair direction.
	var chans []string
	for s := 0; s < topo.Sockets; s++ {
		for c := 0; c < 4; c++ {
			chans = append(chans, fmt.Sprintf("%d/%d", s, c))
		}
	}
	mk(schema.ClassIMC, chans)
	var links []string
	for l := 0; l < topo.Sockets; l++ {
		links = append(links, fmt.Sprintf("%d", l))
	}
	mk(schema.ClassQPI, links)

	mk(schema.ClassIB, []string{"mlx4_0/1"})
	mk(schema.ClassNet, []string{"eth0"})
	mk(schema.ClassLlite, []string{"scratch", "work"})
	mk(schema.ClassMDC, []string{"scratch-MDT0000"})
	mk(schema.ClassOSC, []string{"scratch-OST0000", "scratch-OST0001", "scratch-OST0002", "scratch-OST0003"})
	mk(schema.ClassLnet, []string{"lnet"})
	mk(schema.ClassBlock, []string{"sda"})
	mk(schema.ClassMIC, []string{"mic0"})
	mk(schema.ClassVM, []string{"-"})

	// Initialize gauges that have a meaningful baseline.
	if b := n.banks[schema.ClassMem]; b != nil {
		per := float64(n.cfg.MemBytes) / float64(len(b.instances))
		for i := range b.instances {
			b.set(i, b.sch.MustIndex(schema.EvMemTotal), per)
			b.set(i, b.sch.MustIndex(schema.EvMemFree), per)
		}
	}
}

// Host returns the node's hostname.
func (n *Node) Host() string { return n.host }

// Config returns the node's hardware configuration.
func (n *Node) Config() chip.NodeConfig { return n.cfg }

// Registry returns the node's runtime-detected schema registry.
func (n *Node) Registry() *schema.Registry { return n.reg }

// jitter multiplies x by a small random factor (±amp/2) so repeated runs
// of the same workload produce realistic, non-identical counters.
func (n *Node) jitter(x, amp float64) float64 {
	return x * (1 + amp*(n.rng.Float64()-0.5))
}

// Advance runs the node for dt simulated seconds under the given demand,
// incrementing every device counter.
func (n *Node) Advance(dt float64, d Demand) {
	if dt <= 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	d = d.sanitize()
	n.lastDmd = d
	topo := n.cfg.Topo

	n.advanceCPU(dt, d, topo)
	n.advancePMC(dt, d, topo)
	n.advanceMemory(dt, d, topo)
	n.advancePower(dt, d, topo)
	n.advanceLustre(dt, d)
	n.advanceNetworks(dt, d)
	n.advanceMisc(dt, d)
	n.advanceProcs(dt, d)
}

func (n *Node) advanceCPU(dt float64, d Demand, topo chip.Topology) {
	b := n.banks[schema.ClassCPU]
	if b == nil {
		return
	}
	iUser := b.sch.MustIndex(schema.EvCPUUser)
	iSys := b.sch.MustIndex(schema.EvCPUSystem)
	iIdle := b.sch.MustIndex(schema.EvCPUIdle)
	iWait := b.sch.MustIndex(schema.EvCPUIOWait)
	jiffies := dt * 100 // centiseconds
	for i := range b.instances {
		// Perturb each core, then renormalize so per-core fractions sum to 1.
		u := clamp01(n.jitter(d.CPUUserFrac, 0.06))
		s := clamp01(n.jitter(d.CPUSysFrac, 0.06))
		w := clamp01(n.jitter(d.CPUIOWaitFrac, 0.06))
		if tot := u + s + w; tot > 1 {
			u, s, w = u/tot, s/tot, w/tot
		}
		b.add(i, iUser, jiffies*u)
		b.add(i, iSys, jiffies*s)
		b.add(i, iWait, jiffies*w)
		b.add(i, iIdle, jiffies*(1-u-s-w))
	}
}

func (n *Node) advancePMC(dt float64, d Demand, topo chip.Topology) {
	b := n.banks[schema.ClassPMC]
	if b == nil {
		return
	}
	nCores := float64(len(b.instances))
	busy := d.CPUUserFrac + d.CPUSysFrac
	cyclesPerCore := busy * CoreHz * dt
	instrPerCore := cyclesPerCore * d.IPC

	// Derive FP instruction rates from the flop rate and vector fraction:
	// a vector instruction retires the architecture's vector width in
	// flops, a scalar one flop.
	vecWidth := float64(n.cfg.Desc.VecWidth)
	if vecWidth <= 0 {
		vecWidth = 4
	}
	denom := (1 - d.VecFrac) + vecWidth*d.VecFrac
	fpInstrRate := 0.0
	if denom > 0 {
		fpInstrRate = d.FlopsRate / denom
	}
	scalarPerCore := fpInstrRate * (1 - d.VecFrac) * dt / nCores
	vectorPerCore := fpInstrRate * d.VecFrac * dt / nCores
	loadsPerCore := d.LoadRate * dt / nCores

	// Four-counter parts expose a reduced PMC schema (no L2/LLC hit
	// events); resolve indices dynamically and skip absent columns.
	iCyc := b.sch.Index(schema.EvPMCCycles)
	iIns := b.sch.Index(schema.EvPMCInstrs)
	iSc := b.sch.Index(schema.EvPMCFPScalar)
	iVe := b.sch.Index(schema.EvPMCFPVector)
	iLd := b.sch.Index(schema.EvPMCLoadAll)
	iL1 := b.sch.Index(schema.EvPMCLoadL1Hit)
	iL2 := b.sch.Index(schema.EvPMCLoadL2Hit)
	iLL := b.sch.Index(schema.EvPMCLoadLLCHit)
	addIf := func(inst, ev int, x float64) {
		if ev >= 0 {
			b.add(inst, ev, x)
		}
	}
	for i := range b.instances {
		c := n.jitter(cyclesPerCore, 0.04)
		addIf(i, iCyc, c)
		addIf(i, iIns, n.jitter(instrPerCore, 0.04))
		addIf(i, iSc, n.jitter(scalarPerCore, 0.04))
		addIf(i, iVe, n.jitter(vectorPerCore, 0.04))
		ld := n.jitter(loadsPerCore, 0.04)
		addIf(i, iLd, ld)
		addIf(i, iL1, ld*d.L1HitFrac)
		addIf(i, iL2, ld*d.L2HitFrac)
		addIf(i, iLL, ld*d.LLCHitFrac)
	}
}

func (n *Node) advanceMemory(dt float64, d Demand, topo chip.Topology) {
	if b := n.banks[schema.ClassIMC]; b != nil {
		// 64 bytes per CAS transfer; reads:writes split 2:1.
		cas := d.MemBW * dt / 64
		perChan := cas / float64(len(b.instances))
		iR := b.sch.MustIndex(schema.EvIMCCASReads)
		iW := b.sch.MustIndex(schema.EvIMCCASWrites)
		for i := range b.instances {
			b.add(i, iR, n.jitter(perChan*2/3, 0.05))
			b.add(i, iW, n.jitter(perChan*1/3, 0.05))
		}
	}
	if b := n.banks[schema.ClassQPI]; b != nil {
		// Cross-socket traffic modelled as ~20% of memory traffic in
		// 8-byte flits.
		flits := d.MemBW * 0.2 * dt / 8 / float64(len(b.instances))
		idle := (CoreHz / 2) * dt
		iD := b.sch.MustIndex(schema.EvQPIDataFlits)
		iI := b.sch.MustIndex(schema.EvQPIIdleFlits)
		for i := range b.instances {
			b.add(i, iD, n.jitter(flits, 0.05))
			b.add(i, iI, idle-flits)
		}
	}
	if b := n.banks[schema.ClassMem]; b != nil {
		per := float64(d.MemUsed) / float64(len(b.instances))
		total := float64(n.cfg.MemBytes) / float64(len(b.instances))
		iT := b.sch.MustIndex(schema.EvMemTotal)
		iU := b.sch.MustIndex(schema.EvMemUsed)
		iF := b.sch.MustIndex(schema.EvMemFree)
		iFile := b.sch.MustIndex(schema.EvMemFile)
		iSlab := b.sch.MustIndex(schema.EvMemSlab)
		for i := range b.instances {
			used := per
			if used > total {
				used = total
			}
			b.set(i, iT, total)
			b.set(i, iU, used)
			b.set(i, iF, total-used)
			b.set(i, iFile, total*0.02)
			b.set(i, iSlab, total*0.005)
		}
	}
}

func (n *Node) advancePower(dt float64, d Demand, topo chip.Topology) {
	b := n.banks[schema.ClassRAPL]
	if b == nil {
		return
	}
	watts := d.Watts
	if watts == 0 {
		// Simple linear power model: idle floor plus activity terms.
		watts = 90 + 130*(d.CPUUserFrac+d.CPUSysFrac) + 25*d.MemBW/1e11
	}
	perSocket := watts / float64(len(b.instances))
	dramW := 8 + d.MemBW/4e9 // watts per socket on the DRAM plane
	iP := b.sch.MustIndex(schema.EvRAPLPkg)
	iC := b.sch.MustIndex(schema.EvRAPLCore)
	iD := b.sch.MustIndex(schema.EvRAPLDRAM)
	for i := range b.instances {
		mj := n.jitter(perSocket*dt*1000, 0.03)
		b.add(i, iP, mj)
		b.add(i, iC, mj*0.7)
		if n.cfg.Desc.HasDRAMRAPL {
			b.add(i, iD, n.jitter(dramW*dt*1000, 0.03))
		}
	}
}

func (n *Node) advanceLustre(dt float64, d Demand) {
	if b := n.banks[schema.ClassLlite]; b != nil {
		iO := b.sch.MustIndex(schema.EvLliteOpen)
		iC := b.sch.MustIndex(schema.EvLliteClose)
		iR := b.sch.MustIndex(schema.EvLliteReadBytes)
		iW := b.sch.MustIndex(schema.EvLliteWriteBytes)
		// All activity lands on the first filesystem ("scratch");
		// "work" stays idle, as is typical.
		b.add(0, iO, d.OpenCloseRate/2*dt)
		b.add(0, iC, d.OpenCloseRate/2*dt)
		b.add(0, iR, d.LustreReadBW*dt)
		b.add(0, iW, d.LustreWriteBW*dt)
	}
	if b := n.banks[schema.ClassMDC]; b != nil {
		reqs := d.MDCReqRate * dt
		iR := b.sch.MustIndex(schema.EvMDCReqs)
		iW := b.sch.MustIndex(schema.EvMDCWaitUs)
		b.add(0, iR, reqs)
		b.add(0, iW, reqs*d.MDCWaitUs)
	}
	if b := n.banks[schema.ClassOSC]; b != nil {
		per := 1.0 / float64(len(b.instances))
		iR := b.sch.MustIndex(schema.EvOSCReqs)
		iW := b.sch.MustIndex(schema.EvOSCWaitUs)
		iRB := b.sch.MustIndex(schema.EvOSCReadBytes)
		iWB := b.sch.MustIndex(schema.EvOSCWriteBytes)
		for i := range b.instances {
			reqs := d.OSCReqRate * dt * per
			b.add(i, iR, reqs)
			b.add(i, iW, reqs*d.OSCWaitUs)
			b.add(i, iRB, d.LustreReadBW*dt*per)
			b.add(i, iWB, d.LustreWriteBW*dt*per)
		}
	}
	if b := n.banks[schema.ClassLnet]; b != nil {
		b.add(0, b.sch.MustIndex(schema.EvLnetRxBytes), d.LustreReadBW*dt)
		b.add(0, b.sch.MustIndex(schema.EvLnetTxBytes), d.LustreWriteBW*dt)
	}
}

func (n *Node) advanceNetworks(dt float64, d Demand) {
	if b := n.banks[schema.ClassIB]; b != nil {
		// Lustre LNET traffic rides the IB fabric, so port counters see
		// MPI traffic plus filesystem traffic. The metric engine
		// subtracts LNET to isolate internode (MPI) bandwidth.
		rx := (d.IBBW + d.LustreReadBW) * dt
		tx := (d.IBBW + d.LustreWriteBW) * dt
		pkt := d.IBPktSize
		if pkt == 0 {
			pkt = 2048
		}
		b.add(0, b.sch.MustIndex(schema.EvIBRxBytes), rx)
		b.add(0, b.sch.MustIndex(schema.EvIBTxBytes), tx)
		b.add(0, b.sch.MustIndex(schema.EvIBRxPkts), rx/pkt)
		b.add(0, b.sch.MustIndex(schema.EvIBTxPkts), tx/pkt)
	}
	if b := n.banks[schema.ClassNet]; b != nil {
		bytes := d.EthBW * dt
		b.add(0, b.sch.MustIndex(schema.EvNetRxBytes), bytes/2)
		b.add(0, b.sch.MustIndex(schema.EvNetTxBytes), bytes/2)
		b.add(0, b.sch.MustIndex(schema.EvNetRxPkts), bytes/2/1500)
		b.add(0, b.sch.MustIndex(schema.EvNetTxPkts), bytes/2/1500)
	}
}

func (n *Node) advanceMisc(dt float64, d Demand) {
	if b := n.banks[schema.ClassBlock]; b != nil {
		secs := d.BlockBW * dt / 512
		b.add(0, b.sch.MustIndex(schema.EvBlockRdSectors), secs/2)
		b.add(0, b.sch.MustIndex(schema.EvBlockWrSectors), secs/2)
	}
	if b := n.banks[schema.ClassVM]; b != nil {
		b.add(0, b.sch.MustIndex(schema.EvVMPgFault), d.PgFaultRate*dt)
		b.add(0, b.sch.MustIndex(schema.EvVMPgMajFault), d.PgFaultRate*dt*0.001)
	}
	if b := n.banks[schema.ClassMIC]; b != nil {
		// 61-core Phi; jiffies summed over cores as the host sees them.
		jif := dt * 100 * 61
		b.add(0, b.sch.MustIndex(schema.EvMICUser), jif*d.MICFrac)
		b.add(0, b.sch.MustIndex(schema.EvMICSys), jif*0.005)
		b.add(0, b.sch.MustIndex(schema.EvMICIdle), jif*(1-d.MICFrac-0.005))
	}
}

func (n *Node) advanceProcs(dt float64, d Demand) {
	// Maintain kernel-side per-process state: the VmHWM high water mark
	// survives RSS fluctuations for the lifetime of the PID, and utime
	// accumulates.
	alive := make(map[int]bool, len(d.Processes))
	for _, p := range d.Processes {
		alive[p.PID] = true
		if p.VmRSS > n.hwm[p.PID] {
			n.hwm[p.PID] = p.VmRSS
		}
		n.utime[p.PID] += dt * 100 * n.lastDmd.CPUUserFrac
	}
	for pid := range n.hwm {
		if !alive[pid] {
			delete(n.hwm, pid)
			delete(n.utime, pid)
		}
	}
	n.procs = append(n.procs[:0], d.Processes...)
}

// Read returns the current register values of every instance of a device
// class as records, sorted by instance. Unknown classes return nil.
func (n *Node) Read(c schema.Class) []model.Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.readLocked(c)
}

func (n *Node) readLocked(c schema.Class) []model.Record {
	if c == schema.ClassPS {
		return n.readProcs()
	}
	b := n.banks[c]
	if b == nil {
		return nil
	}
	out := make([]model.Record, len(b.instances))
	for i, inst := range b.instances {
		out[i] = model.Record{Class: c, Instance: inst, Values: b.read(i)}
	}
	return out
}

// readProcs renders the simulated /proc table against the ps schema.
func (n *Node) readProcs() []model.Record {
	sch := n.reg.Get(schema.ClassPS)
	if sch == nil {
		return nil
	}
	procs := append([]Process(nil), n.procs...)
	sort.Slice(procs, func(i, j int) bool { return procs[i].PID < procs[j].PID })
	out := make([]model.Record, 0, len(procs))
	for _, p := range procs {
		v := make([]uint64, sch.Len())
		v[sch.MustIndex(schema.EvPSVmSize)] = p.VmSize
		v[sch.MustIndex(schema.EvPSVmHWM)] = n.hwm[p.PID]
		v[sch.MustIndex(schema.EvPSVmRSS)] = p.VmRSS
		v[sch.MustIndex(schema.EvPSVmLck)] = p.VmLck
		v[sch.MustIndex(schema.EvPSVmData)] = p.VmData
		v[sch.MustIndex(schema.EvPSVmStk)] = p.VmStk
		v[sch.MustIndex(schema.EvPSVmExe)] = p.VmExe
		v[sch.MustIndex(schema.EvPSThreads)] = uint64(p.Threads)
		v[sch.MustIndex(schema.EvPSCPUAff)] = p.CPUAff
		v[sch.MustIndex(schema.EvPSMemAff)] = p.MemAff
		v[sch.MustIndex(schema.EvPSUserTime)] = uint64(n.utime[p.PID])
		out = append(out, model.Record{
			Class:    schema.ClassPS,
			Instance: fmt.Sprintf("%d/%s/%s", p.PID, p.Owner, p.Exe),
			Values:   v,
		})
	}
	return out
}

// ReadAll returns records for every device class the node exposes, in
// sorted class order — the full sweep a collection performs.
func (n *Node) ReadAll() []model.Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []model.Record
	for _, c := range n.reg.Classes() {
		out = append(out, n.readLocked(c)...)
	}
	return out
}

// Processes returns a copy of the current simulated process table.
func (n *Node) Processes() []Process {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Process(nil), n.procs...)
}
