// Package schema defines the typed description of everything gostats
// collects: device classes (cpu, pmc, rapl, lustre clients, ...), the
// events each class exposes, and the textual schema-line codec used by the
// raw stats file format.
//
// The design mirrors TACC Stats: each device class has a fixed ordered
// list of events; a raw record is a vector of uint64 values positionally
// matched to that list. Events are either cumulative counters ("events",
// flagged E, possibly with a register width for rollover correction) or
// instantaneous gauges.
package schema

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
)

// Kind discriminates cumulative counters from instantaneous gauges.
type Kind int

const (
	// Gauge values are instantaneous readings (e.g. memory in use).
	Gauge Kind = iota
	// Event values are cumulative, monotonically increasing counters
	// (e.g. bytes transmitted since boot), subject to register rollover.
	Event
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Event {
		return "event"
	}
	return "gauge"
}

// Class identifies a device class ("cpu", "ib", "llite", ...).
type Class string

// The device classes gostats knows how to collect. These correspond to
// the device list in §III-B of the paper.
const (
	ClassCPU   Class = "cpu"   // per-core jiffy accounting from /proc/stat
	ClassPMC   Class = "pmc"   // per-core performance counters (msr)
	ClassIMC   Class = "imc"   // uncore integrated memory controller (PCI cfg)
	ClassQPI   Class = "qpi"   // uncore QPI link layer (PCI cfg)
	ClassRAPL  Class = "rapl"  // running average power limit energy counters
	ClassMem   Class = "mem"   // per-socket memory gauges (meminfo/numa)
	ClassIB    Class = "ib"    // Infiniband HCA port counters
	ClassNet   Class = "net"   // Ethernet interface counters
	ClassLlite Class = "llite" // Lustre client filesystem operations
	ClassMDC   Class = "mdc"   // Lustre metadata client
	ClassOSC   Class = "osc"   // Lustre object storage client
	ClassLnet  Class = "lnet"  // Lustre networking layer
	ClassBlock Class = "block" // block device counters
	ClassPS    Class = "ps"    // per-process data from procfs
	ClassMIC   Class = "mic"   // Xeon Phi coprocessor, read from the host
	ClassVM    Class = "vm"    // kernel vmstat counters
)

// EventDef describes one column of a device class's value vector.
type EventDef struct {
	Name string
	Kind Kind
	// Unit is a human-readable unit tag ("B", "us", "mJ", "ops", ...).
	Unit string
	// Width is the hardware register width in bits for Event counters
	// that roll over before 64 bits (48 for Intel PMCs, 32 for RAPL
	// energy status). Zero means a full 64-bit counter.
	Width uint
}

// flagString encodes an EventDef's metadata in schema-line form.
func (e EventDef) flagString() string {
	var parts []string
	if e.Kind == Event {
		parts = append(parts, "E")
	}
	if e.Width != 0 {
		parts = append(parts, "W="+strconv.FormatUint(uint64(e.Width), 10))
	}
	if e.Unit != "" {
		parts = append(parts, "U="+e.Unit)
	}
	if len(parts) == 0 {
		return ""
	}
	return "," + strings.Join(parts, ",")
}

// Schema is the ordered event list for one device class.
type Schema struct {
	Class  Class
	Events []EventDef
}

// Len reports the number of events (columns) in the schema.
func (s *Schema) Len() int { return len(s.Events) }

// Index returns the column index of the named event, or -1.
func (s *Schema) Index(name string) int {
	for i, e := range s.Events {
		if e.Name == name {
			return i
		}
	}
	return -1
}

// MustIndex is Index but panics on a missing event; for use where the
// event name is a compile-time constant.
func (s *Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("schema: class %q has no event %q", s.Class, name))
	}
	return i
}

// Line renders the schema in raw stats file form:
//
//	!cpu user,E,U=cs nice,E system,E ...
func (s *Schema) Line() string {
	var b strings.Builder
	b.WriteByte('!')
	b.WriteString(string(s.Class))
	for _, e := range s.Events {
		b.WriteByte(' ')
		b.WriteString(e.Name)
		b.WriteString(e.flagString())
	}
	return b.String()
}

// ParseLine parses a schema line produced by Line.
func ParseLine(line string) (*Schema, error) {
	if !strings.HasPrefix(line, "!") {
		return nil, fmt.Errorf("schema: line does not start with '!': %q", line)
	}
	fields := strings.Fields(line[1:])
	if len(fields) == 0 {
		return nil, fmt.Errorf("schema: empty schema line")
	}
	s := &Schema{Class: Class(fields[0])}
	for _, f := range fields[1:] {
		parts := strings.Split(f, ",")
		e := EventDef{Name: parts[0]}
		if e.Name == "" {
			return nil, fmt.Errorf("schema: empty event name in %q", line)
		}
		for _, flag := range parts[1:] {
			switch {
			case flag == "E":
				e.Kind = Event
			case strings.HasPrefix(flag, "W="):
				w, err := strconv.ParseUint(flag[2:], 10, 8)
				if err != nil || w == 0 || w > 64 {
					return nil, fmt.Errorf("schema: bad width flag %q", flag)
				}
				e.Width = uint(w)
			case strings.HasPrefix(flag, "U="):
				e.Unit = flag[2:]
			default:
				return nil, fmt.Errorf("schema: unknown flag %q in %q", flag, line)
			}
		}
		s.Events = append(s.Events, e)
	}
	return s, nil
}

// RolloverDelta computes cur-prev for a counter of the given register
// width, correcting a single rollover. For gauges (or width 64 counters
// that appear to move backwards, i.e. a reset) it returns 0 rather than a
// huge bogus delta — matching the paper's tooling, which treats resets as
// missing intervals.
func RolloverDelta(prev, cur uint64, e EventDef) uint64 {
	if e.Kind != Event {
		return 0
	}
	if cur >= prev {
		return cur - prev
	}
	if e.Width != 0 && e.Width < 64 {
		return (uint64(1) << e.Width) - prev + cur
	}
	return 0
}

// Registry holds schemas keyed by class. A Registry is immutable after
// construction and safe for concurrent use; its sorted class list, its
// rendered schema block and the block's fingerprint are computed once,
// when it is built.
type Registry struct {
	byClass map[Class]*Schema
	classes []Class // sorted
	block   string
	fp      uint64
}

// NewRegistry builds a registry from the given schemas. Duplicate classes
// are an error.
func NewRegistry(schemas ...*Schema) (*Registry, error) {
	byClass := make(map[Class]*Schema, len(schemas))
	for _, s := range schemas {
		if _, dup := byClass[s.Class]; dup {
			return nil, fmt.Errorf("schema: duplicate class %q", s.Class)
		}
		byClass[s.Class] = s
	}
	return newRegistry(byClass), nil
}

func newRegistry(byClass map[Class]*Schema) *Registry {
	r := &Registry{byClass: byClass, classes: make([]Class, 0, len(byClass))}
	for c := range byClass {
		r.classes = append(r.classes, c)
	}
	slices.Sort(r.classes)
	var b strings.Builder
	for _, c := range r.classes {
		b.WriteString(byClass[c].Line())
		b.WriteByte('\n')
	}
	r.block = b.String()
	h := fnv.New64a()
	h.Write([]byte(r.block))
	r.fp = h.Sum64()
	return r
}

// Get returns the schema for class, or nil.
func (r *Registry) Get(c Class) *Schema { return r.byClass[c] }

// Classes returns the registered classes in sorted order.
func (r *Registry) Classes() []Class { return slices.Clone(r.classes) }

// Block returns the registry's schema lines in sorted class order, each
// followed by a newline: the schema section of a raw stats file header.
func (r *Registry) Block() string { return r.block }

// Fingerprint is the FNV-64a hash of Block: two registries with the
// same record layout have the same fingerprint.
func (r *Registry) Fingerprint() uint64 { return r.fp }

// Merge returns a new registry containing the schemas of r plus extra.
// Classes in extra override classes in r (used for per-architecture PMC
// schemas layered over the base set).
func (r *Registry) Merge(extra ...*Schema) *Registry {
	byClass := make(map[Class]*Schema, len(r.byClass)+len(extra))
	for c, s := range r.byClass {
		byClass[c] = s
	}
	for _, s := range extra {
		byClass[s.Class] = s
	}
	return newRegistry(byClass)
}
