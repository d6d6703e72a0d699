package fabric

import (
	"slices"
	"testing"

	"gostats/internal/broker"
	"gostats/internal/leakcheck"
	"gostats/internal/telemetry"
)

// badMaps are partition maps no fabric member builds. Each edits a
// valid three-broker map.
var badMaps = []struct {
	name string
	edit func(*Map)
}{
	{"zero partitions", func(m *Map) { m.Partitions = 0 }},
	{"negative partitions", func(m *Map) { m.Partitions = -1 }},
	{"partitions above max", func(m *Map) { m.Partitions = MaxPartitions + 1 }},
	{"a billion partitions", func(m *Map) { m.Partitions = 1_000_000_000 }},
	{"zero replication", func(m *Map) { m.Replication = 0 }},
	{"no brokers", func(m *Map) { m.Brokers = nil }},
	{"unsorted brokers", func(m *Map) { m.Brokers = []string{"b:1", "a:1", "c:1"} }},
	{"duplicate brokers", func(m *Map) { m.Brokers = []string{"a:1", "a:1", "c:1"} }},
	{"dead non-member", func(m *Map) { m.Dead = []string{"d:1"} }},
}

// TestBadPartitionMapsRefused: a listener turns the map a broker serves
// into one consumer per owned partition, so every malformed map must be
// refused by DecodeMap and by Bootstrap from a broker serving it. The
// test fails on the first map accepted, before any consumer could start.
func TestBadPartitionMapsRefused(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, tc := range badMaps {
		m := NewMap([]string{"a:1", "b:1", "c:1"}, 8, 2)
		tc.edit(&m)
		payload := m.Encode()
		if got, err := DecodeMap(payload); err == nil {
			t.Fatalf("%s: DecodeMap accepted %+v", tc.name, got)
		}

		srv := broker.NewServer()
		srv.Metrics = telemetry.NewRegistry()
		srv.MapProvider = func() (uint64, []byte) { return m.Version, payload }
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Bootstrap([]string{addr})
		srv.Close()
		if err == nil {
			t.Fatalf("%s: Bootstrap accepted a served map with %d partitions", tc.name, got.Partitions)
		}
	}
}

// FuzzDecodeMap: decoding never panics, a decoded map re-encodes to an
// equal map, and routing by it stays in range.
func FuzzDecodeMap(f *testing.F) {
	good := NewMap([]string{"a:1", "b:1", "c:1"}, 8, 2)
	f.Add(good.Encode(), "c401-101")
	good.Dead = []string{"b:1"}
	good.Version = 7
	f.Add(good.Encode(), "nid00001")
	for _, tc := range badMaps {
		m := good.Clone()
		tc.edit(&m)
		f.Add(m.Encode(), "h")
	}
	f.Fuzz(func(t *testing.T, payload []byte, host string) {
		m, err := DecodeMap(payload)
		if err != nil {
			return
		}
		again, err := DecodeMap(m.Encode())
		if err != nil {
			t.Fatalf("re-encoded map refused: %v", err)
		}
		if again.Version != m.Version || again.Partitions != m.Partitions ||
			again.Replication != m.Replication ||
			!slices.Equal(again.Brokers, m.Brokers) || !slices.Equal(again.Dead, m.Dead) {
			t.Fatalf("round trip %+v -> %+v", m, again)
		}
		p := m.PartitionOf(host)
		if p < 0 || p >= m.Partitions {
			t.Fatalf("PartitionOf(%q) = %d outside [0, %d)", host, p, m.Partitions)
		}
		alive := len(m.Alive())
		for _, q := range []int{0, p, m.Partitions - 1} {
			owners := m.Owners(q)
			if len(owners) > m.Replication || (alive > 0) != (len(owners) > 0) {
				t.Fatalf("Owners(%d) = %v with replication %d and %d alive", q, owners, m.Replication, alive)
			}
			for i, o := range owners {
				if _, ok := slices.BinarySearch(m.Brokers, o); !ok || m.IsDead(o) || slices.Contains(owners[:i], o) {
					t.Fatalf("Owners(%d) = %v: %q is not a distinct live member", q, owners, o)
				}
			}
		}
	})
}
