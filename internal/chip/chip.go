// Package chip models the processor architecture layer of gostats.
//
// The paper's TACC Stats identifies the chip architecture and uncore
// devices automatically at runtime (reading CPUID and probing PCI config
// space), then programs the correct event sets for Nehalem, Westmere,
// Sandy Bridge, Ivy Bridge and Haswell cores, and detects node topology
// including hardware threading. This package reproduces that behaviour
// against simulated CPUID data: given a CPUID signature it resolves an
// architecture descriptor that names the uncore boxes present and the PMC
// events programmable on that core, and derives the collection topology.
package chip

import (
	"fmt"

	"gostats/internal/schema"
)

// Arch names a microarchitecture generation.
type Arch string

// Supported microarchitectures (§III-B of the paper).
const (
	Nehalem       Arch = "nehalem"
	Westmere      Arch = "westmere"
	SandyBridge   Arch = "sandybridge"
	IvyBridge     Arch = "ivybridge"
	Haswell       Arch = "haswell"
	KnightsCorner Arch = "knightscorner" // Xeon Phi, monitored from the host
)

// Signature is a simulated CPUID signature: family/model identify the
// microarchitecture exactly as on real Intel parts.
type Signature struct {
	Vendor string // "GenuineIntel"
	Family int
	Model  int
}

// Descriptor describes everything the collector needs to know about an
// architecture: which uncore device classes exist, whether RAPL is
// available, and the PMC schema for its cores.
type Descriptor struct {
	Arch        Arch
	Signature   Signature
	HasUncore   bool // discrete IMC/QPI boxes in PCI config space
	HasRAPL     bool
	HasDRAMRAPL bool // DRAM plane energy (server parts from SNB-EP on)
	PMC         *schema.Schema
	// CountersPerCore is the number of programmable counters; fixed
	// counters (cycles, instructions) come on top.
	CountersPerCore int
	// VecWidth is the double-precision flops a vector FP instruction
	// retires on this core: 2 for SSE-era parts (Nehalem/Westmere), 4
	// for AVX (Sandy Bridge through Haswell), 8 for the Phi's 512-bit
	// unit. The metric engine uses it to convert instruction counts to
	// flops — part of the per-architecture self-customization.
	VecWidth int
}

// knownChips is the detection table, keyed by family/model the way the
// real tool keys its msr setup. Family 6 models follow Intel's SDM.
var knownChips = []Descriptor{
	{Arch: Nehalem, Signature: Signature{"GenuineIntel", 6, 0x1A}, HasUncore: false, HasRAPL: false, CountersPerCore: 4, VecWidth: 2},
	{Arch: Westmere, Signature: Signature{"GenuineIntel", 6, 0x2C}, HasUncore: false, HasRAPL: false, CountersPerCore: 4, VecWidth: 2},
	{Arch: SandyBridge, Signature: Signature{"GenuineIntel", 6, 0x2D}, HasUncore: true, HasRAPL: true, HasDRAMRAPL: true, CountersPerCore: 8, VecWidth: 4},
	{Arch: IvyBridge, Signature: Signature{"GenuineIntel", 6, 0x3E}, HasUncore: true, HasRAPL: true, HasDRAMRAPL: true, CountersPerCore: 8, VecWidth: 4},
	{Arch: Haswell, Signature: Signature{"GenuineIntel", 6, 0x3F}, HasUncore: true, HasRAPL: true, HasDRAMRAPL: true, CountersPerCore: 8, VecWidth: 4},
	{Arch: KnightsCorner, Signature: Signature{"GenuineIntel", 11, 0x01}, HasUncore: false, HasRAPL: false, CountersPerCore: 2, VecWidth: 8},
}

// pmcFor picks the PMC event set the architecture's counters can hold:
// four-counter parts program the limited set, eight-counter parts the
// full one — the runtime self-customization of §III-B.
func pmcFor(d Descriptor) *schema.Schema {
	if d.CountersPerCore < 6 {
		return schema.PMCSchemaLimited()
	}
	return schema.PMCSchema()
}

// Detect resolves a CPUID signature to an architecture descriptor,
// mirroring tacc_stats' runtime architecture identification. Unknown
// signatures return an error so deployments on unexpected hardware fail
// loudly instead of collecting garbage.
func Detect(sig Signature) (Descriptor, error) {
	for _, d := range knownChips {
		if d.Signature == sig {
			d.PMC = pmcFor(d)
			return d, nil
		}
	}
	return Descriptor{}, fmt.Errorf("chip: unsupported cpuid signature %+v", sig)
}

// ByArch returns the descriptor for a named architecture.
func ByArch(a Arch) (Descriptor, error) {
	for _, d := range knownChips {
		if d.Arch == a {
			d.PMC = pmcFor(d)
			return d, nil
		}
	}
	return Descriptor{}, fmt.Errorf("chip: unknown architecture %q", a)
}

// mustArch is ByArch for an architecture in the detection table.
func mustArch(a Arch) Descriptor {
	d, err := ByArch(a)
	if err != nil {
		panic(err)
	}
	return d
}

// Archs lists the supported architectures in detection-table order.
func Archs() []Arch {
	out := make([]Arch, len(knownChips))
	for i, d := range knownChips {
		out[i] = d.Arch
	}
	return out
}

// Topology describes the processor layout of a node as the collector
// discovers it (sockets, cores, hardware threads). TACC Stats detects
// hardware threading and adapts which logical CPUs it programs counters
// on; CollectCPUs reproduces that choice.
type Topology struct {
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int // 1 = no SMT, 2 = HyperThreading on
}

// Validate checks the topology for internal consistency.
func (t Topology) Validate() error {
	if t.Sockets < 1 || t.CoresPerSocket < 1 || t.ThreadsPerCore < 1 {
		return fmt.Errorf("chip: invalid topology %+v", t)
	}
	if t.ThreadsPerCore > 2 {
		return fmt.Errorf("chip: threads per core %d not supported", t.ThreadsPerCore)
	}
	return nil
}

// PhysicalCores is the number of physical cores on the node.
func (t Topology) PhysicalCores() int { return t.Sockets * t.CoresPerSocket }

// LogicalCPUs is the number of logical CPUs the OS sees.
func (t Topology) LogicalCPUs() int { return t.PhysicalCores() * t.ThreadsPerCore }

// CollectCPUs returns the logical CPU ids on which the collector programs
// performance counters: one per physical core. With hardware threading
// the sibling thread shares the core's counters, so programming both would
// double count — the collector picks the first thread of each core, which
// is how tacc_stats "modifies its collection procedure appropriately for
// processors with and without hardware threading".
func (t Topology) CollectCPUs() []int {
	cpus := make([]int, 0, t.PhysicalCores())
	for c := 0; c < t.PhysicalCores(); c++ {
		// Linux enumerates thread siblings at core + PhysicalCores.
		cpus = append(cpus, c)
	}
	return cpus
}

// SocketOf maps a logical CPU id to its socket index under the standard
// Linux enumeration (cores first across sockets in blocks, thread
// siblings offset by PhysicalCores).
func (t Topology) SocketOf(cpu int) int {
	core := cpu % t.PhysicalCores()
	return core / t.CoresPerSocket
}

// NodeConfig ties an architecture to a topology plus the three build-time
// options the paper says remain (Infiniband, Xeon Phi, Lustre support).
// Everything else is runtime-detected.
type NodeConfig struct {
	Desc      Descriptor
	Topo      Topology
	HasIB     bool
	HasPhi    bool
	HasLustre bool
	MemBytes  uint64 // total RAM
}

// StampedeNode returns the configuration of a Stampede compute node:
// 2-socket 8-core Sandy Bridge, 32 GB, one Xeon Phi, IB + Lustre.
func StampedeNode() NodeConfig {
	return NodeConfig{
		Desc:      mustArch(SandyBridge),
		Topo:      Topology{Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 1},
		HasIB:     true,
		HasPhi:    true,
		HasLustre: true,
		MemBytes:  32 << 30,
	}
}

// LargeMemNode returns the configuration of a Stampede largemem node:
// 1 TB of RAM, 4-socket, no Phi.
func LargeMemNode() NodeConfig {
	return NodeConfig{
		Desc:      mustArch(SandyBridge),
		Topo:      Topology{Sockets: 4, CoresPerSocket: 8, ThreadsPerCore: 1},
		HasIB:     true,
		HasLustre: true,
		MemBytes:  1 << 40,
	}
}

// LonestarNode returns the configuration of a Lonestar 5 (Cray) node:
// 2-socket 12-core Haswell with HyperThreading, 64 GB, Lustre via Aries
// (modelled as IB for transport accounting).
func LonestarNode() NodeConfig {
	return NodeConfig{
		Desc:      mustArch(Haswell),
		Topo:      Topology{Sockets: 2, CoresPerSocket: 12, ThreadsPerCore: 2},
		HasIB:     true,
		HasLustre: true,
		MemBytes:  64 << 30,
	}
}

// Fleet returns the node configuration a fleet runs, by the name the
// daemons and tools take on their -arch flag: stampede, lonestar,
// largemem, or nehalem (a Ranger-era part: no uncore boxes, no RAPL,
// four programmable counters — the collector self-customizes to the
// reduced set).
func Fleet(name string) (NodeConfig, error) {
	switch name {
	case "stampede":
		return StampedeNode(), nil
	case "lonestar":
		return LonestarNode(), nil
	case "largemem":
		return LargeMemNode(), nil
	case "nehalem":
		return NodeConfig{
			Desc:     mustArch(Nehalem),
			Topo:     Topology{Sockets: 2, CoresPerSocket: 4, ThreadsPerCore: 2},
			MemBytes: 16 << 30,
		}, nil
	default:
		return NodeConfig{}, fmt.Errorf("chip: unknown node type %q", name)
	}
}

// Registry returns the schema registry appropriate for this node: the
// default set, minus device classes whose hardware is absent. This is the
// runtime self-customization step: a node without a Phi simply has no mic
// schema rather than failing.
func (c NodeConfig) Registry() *schema.Registry {
	base := schema.DefaultRegistry()
	keep := make([]*schema.Schema, 0, 16)
	for _, cl := range base.Classes() {
		s := base.Get(cl)
		switch cl {
		case schema.ClassIB:
			if !c.HasIB {
				continue
			}
		case schema.ClassMIC:
			if !c.HasPhi {
				continue
			}
		case schema.ClassLlite, schema.ClassMDC, schema.ClassOSC, schema.ClassLnet:
			if !c.HasLustre {
				continue
			}
		case schema.ClassIMC, schema.ClassQPI:
			if !c.Desc.HasUncore {
				continue
			}
		case schema.ClassRAPL:
			if !c.Desc.HasRAPL {
				continue
			}
		}
		keep = append(keep, s)
	}
	r, err := schema.NewRegistry(keep...)
	if err != nil {
		panic(err) // keep is a subset of a duplicate-free set
	}
	// The architecture's own PMC event set replaces the default: a
	// four-counter part exposes fewer events, and every downstream
	// consumer adapts through the schema rather than guessing.
	if c.Desc.PMC != nil {
		r = r.Merge(c.Desc.PMC)
	}
	return r
}
