package chip

import (
	"testing"

	"gostats/internal/schema"
)

func TestDetectKnownSignatures(t *testing.T) {
	cases := []struct {
		sig  Signature
		want Arch
	}{
		{Signature{"GenuineIntel", 6, 0x1A}, Nehalem},
		{Signature{"GenuineIntel", 6, 0x2C}, Westmere},
		{Signature{"GenuineIntel", 6, 0x2D}, SandyBridge},
		{Signature{"GenuineIntel", 6, 0x3E}, IvyBridge},
		{Signature{"GenuineIntel", 6, 0x3F}, Haswell},
		{Signature{"GenuineIntel", 11, 0x01}, KnightsCorner},
	}
	for _, c := range cases {
		d, err := Detect(c.sig)
		if err != nil {
			t.Fatalf("Detect(%+v): %v", c.sig, err)
		}
		if d.Arch != c.want {
			t.Errorf("Detect(%+v) = %s, want %s", c.sig, d.Arch, c.want)
		}
		if d.PMC == nil {
			t.Errorf("%s: PMC schema nil", d.Arch)
		}
	}
}

func TestDetectUnknownSignature(t *testing.T) {
	if _, err := Detect(Signature{"AuthenticAMD", 15, 1}); err == nil {
		t.Error("unknown signature accepted")
	}
}

func TestByArch(t *testing.T) {
	d, err := ByArch(Haswell)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasUncore || !d.HasRAPL || !d.HasDRAMRAPL {
		t.Errorf("haswell capabilities wrong: %+v", d)
	}
	if _, err := ByArch("z80"); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestArchsListsAll(t *testing.T) {
	if n := len(Archs()); n != 6 {
		t.Errorf("Archs() has %d entries, want 6", n)
	}
}

func TestNehalemLacksUncoreAndRAPL(t *testing.T) {
	d, _ := ByArch(Nehalem)
	if d.HasUncore || d.HasRAPL {
		t.Errorf("nehalem should predate discrete uncore PCI boxes and RAPL: %+v", d)
	}
}

func TestTopologyCounts(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 1}
	if topo.PhysicalCores() != 16 || topo.LogicalCPUs() != 16 {
		t.Errorf("counts: %d/%d", topo.PhysicalCores(), topo.LogicalCPUs())
	}
	ht := Topology{Sockets: 2, CoresPerSocket: 12, ThreadsPerCore: 2}
	if ht.PhysicalCores() != 24 || ht.LogicalCPUs() != 48 {
		t.Errorf("HT counts: %d/%d", ht.PhysicalCores(), ht.LogicalCPUs())
	}
}

func TestTopologyValidate(t *testing.T) {
	bad := []Topology{
		{Sockets: 0, CoresPerSocket: 8, ThreadsPerCore: 1},
		{Sockets: 2, CoresPerSocket: 0, ThreadsPerCore: 1},
		{Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 0},
		{Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 4},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", b)
		}
	}
	if err := (Topology{Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 1}).Validate(); err != nil {
		t.Errorf("minimal topology rejected: %v", err)
	}
}

func TestCollectCPUsOnePerPhysicalCore(t *testing.T) {
	// With HT on, the collector must program one logical CPU per
	// physical core, never the sibling thread.
	ht := Topology{Sockets: 2, CoresPerSocket: 12, ThreadsPerCore: 2}
	cpus := ht.CollectCPUs()
	if len(cpus) != 24 {
		t.Fatalf("CollectCPUs len = %d, want 24", len(cpus))
	}
	seen := map[int]bool{}
	for _, c := range cpus {
		if c < 0 || c >= ht.LogicalCPUs() {
			t.Errorf("cpu id %d out of range", c)
		}
		if c >= ht.PhysicalCores() {
			t.Errorf("cpu id %d is a sibling thread", c)
		}
		if seen[c] {
			t.Errorf("cpu id %d duplicated", c)
		}
		seen[c] = true
	}
}

func TestSocketOf(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 2}
	if s := topo.SocketOf(0); s != 0 {
		t.Errorf("SocketOf(0) = %d", s)
	}
	if s := topo.SocketOf(8); s != 1 {
		t.Errorf("SocketOf(8) = %d", s)
	}
	// Sibling thread of cpu 0 is cpu 16 and belongs to socket 0.
	if s := topo.SocketOf(16); s != 0 {
		t.Errorf("SocketOf(16) = %d", s)
	}
	// Sibling thread of cpu 8 is cpu 24, socket 1.
	if s := topo.SocketOf(24); s != 1 {
		t.Errorf("SocketOf(24) = %d", s)
	}
}

func TestStandardNodeConfigs(t *testing.T) {
	st := StampedeNode()
	if st.Desc.Arch != SandyBridge || !st.HasPhi || !st.HasIB || !st.HasLustre {
		t.Errorf("stampede config wrong: %+v", st)
	}
	if st.MemBytes != 32<<30 {
		t.Errorf("stampede memory = %d", st.MemBytes)
	}
	lm := LargeMemNode()
	if lm.MemBytes != 1<<40 || lm.HasPhi {
		t.Errorf("largemem config wrong: %+v", lm)
	}
	ls := LonestarNode()
	if ls.Desc.Arch != Haswell || ls.Topo.ThreadsPerCore != 2 {
		t.Errorf("lonestar config wrong: %+v", ls)
	}
}

func TestRegistryCustomization(t *testing.T) {
	// Full Stampede node: all classes present.
	st := StampedeNode()
	r := st.Registry()
	for _, cl := range []schema.Class{
		schema.ClassCPU, schema.ClassPMC, schema.ClassIMC, schema.ClassQPI,
		schema.ClassRAPL, schema.ClassIB, schema.ClassMIC, schema.ClassLlite,
	} {
		if r.Get(cl) == nil {
			t.Errorf("stampede registry missing %s", cl)
		}
	}

	// Node without Phi, IB, Lustre drops those classes but keeps the rest.
	bare := st
	bare.HasPhi = false
	bare.HasIB = false
	bare.HasLustre = false
	r2 := bare.Registry()
	for _, cl := range []schema.Class{schema.ClassMIC, schema.ClassIB,
		schema.ClassLlite, schema.ClassMDC, schema.ClassOSC, schema.ClassLnet} {
		if r2.Get(cl) != nil {
			t.Errorf("bare registry still has %s", cl)
		}
	}
	if r2.Get(schema.ClassCPU) == nil || r2.Get(schema.ClassPMC) == nil {
		t.Error("bare registry lost core classes")
	}

	// Nehalem node: no uncore boxes, no RAPL.
	nh, _ := ByArch(Nehalem)
	old := NodeConfig{Desc: nh, Topo: Topology{1, 4, 1}, MemBytes: 8 << 30}
	r3 := old.Registry()
	if r3.Get(schema.ClassIMC) != nil || r3.Get(schema.ClassQPI) != nil || r3.Get(schema.ClassRAPL) != nil {
		t.Error("nehalem registry exposes unavailable uncore/RAPL devices")
	}
}

func TestVecWidthPerArchitecture(t *testing.T) {
	want := map[Arch]int{
		Nehalem: 2, Westmere: 2,
		SandyBridge: 4, IvyBridge: 4, Haswell: 4,
		KnightsCorner: 8,
	}
	for arch, w := range want {
		d, err := ByArch(arch)
		if err != nil {
			t.Fatal(err)
		}
		if d.VecWidth != w {
			t.Errorf("%s VecWidth = %d, want %d", arch, d.VecWidth, w)
		}
	}
}

// TestFleet: every fleet name the daemons and tools accept on -arch
// resolves to one node configuration, and an unknown name is refused.
func TestFleet(t *testing.T) {
	want := map[string]Arch{
		"stampede": SandyBridge, "largemem": SandyBridge,
		"lonestar": Haswell, "nehalem": Nehalem,
	}
	for name, arch := range want {
		cfg, err := Fleet(name)
		if err != nil {
			t.Fatalf("Fleet(%q): %v", name, err)
		}
		if cfg.Desc.Arch != arch {
			t.Errorf("Fleet(%q) arch = %s, want %s", name, cfg.Desc.Arch, arch)
		}
		if err := cfg.Topo.Validate(); err != nil {
			t.Errorf("Fleet(%q): %v", name, err)
		}
	}
	if cfg, want := mustFleet(t, "stampede"), StampedeNode(); cfg.Topo != want.Topo || cfg.HasPhi != want.HasPhi || cfg.MemBytes != want.MemBytes {
		t.Errorf("Fleet(stampede) = %+v, want StampedeNode() %+v", cfg, want)
	}
	if _, err := Fleet("ranger"); err == nil {
		t.Error("Fleet accepted an unknown node type")
	}
}

func mustFleet(t *testing.T, name string) NodeConfig {
	t.Helper()
	cfg, err := Fleet(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
