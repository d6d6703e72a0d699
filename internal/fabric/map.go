// Package fabric is the partitioned multi-broker transport layer: the
// scale-out of daemon mode from one brokerd to a static-membership
// cluster of brokers that jointly own a consistent-hash ring over host
// IDs.
//
// The pieces, bottom up:
//
//   - Map: a versioned partition map. Host IDs hash onto one of P
//     partitions; each partition is owned by R brokers (a primary and
//     R-1 replicas) chosen by Kademlia-style XOR distance in a shared
//     64-bit ID space, so ownership is deterministic from the member
//     list and the set of live brokers — no coordinator.
//   - View: the live, shared membership state a publisher or consumer
//     routes through. Marking a broker dead or alive bumps the map
//     version and rebalances ownership; per-broker circuit breakers
//     (the PR 2 machinery) decide when to mark.
//   - Publisher: replicated publishes. Each snapshot goes to every
//     owner of its host's partition with confirmed delivery and only
//     counts as published when the replication factor is met;
//     otherwise it lands in the node's durable spool, whose drainer
//     replays through the *current* map — frames spooled against a
//     dead broker reroute to the new owner.
//   - Group: partition-group consumption. A group member drains its
//     share of partitions from every owner broker in parallel,
//     deduplicates replicated deliveries by (host, seq), and restarts
//     dead partition consumers with backoff instead of dying.
//
// Replication here is publisher-driven (the producer writes to every
// owner) rather than broker-to-broker: the brokers stay simple queue
// servers, and the failure-handling machinery — breakers, spool,
// replay — already lives on the nodes.
package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"

	"gostats/internal/model"
)

// Defaults for fabric construction.
const (
	// DefaultPartitions is the partition count when unset. Partition
	// count is a cluster constant: it must match across brokers,
	// publishers, and listener groups (the map carries it, so anything
	// bootstrapping from a broker inherits the right value).
	DefaultPartitions = 16

	// MaxPartitions bounds the partition count of any map. A listener
	// starts one consumer per owned partition and owner broker, so a
	// map from the network with more partitions is refused rather than
	// trusted.
	MaxPartitions = 1024

	// DefaultReplication is the publish replication factor when unset.
	// 2 survives any single broker death with zero loss.
	DefaultReplication = 2
)

// Map is the versioned partition map: the static broker membership,
// which members are currently considered dead, and the constants the
// ownership computation needs. It is pure data — Owners and
// PartitionOf are deterministic functions of it, so two parties holding
// equal Maps route identically.
type Map struct {
	// Version orders map revisions. Any membership change (a broker
	// marked dead or alive) bumps it; holders adopt a map with a higher
	// version than their own.
	Version uint64 `json:"version"`

	// Partitions is the size of the partition space host IDs hash into.
	Partitions int `json:"partitions"`

	// Replication is how many brokers own each partition (primary +
	// replicas). Clamped to the live member count when fewer survive.
	Replication int `json:"replication"`

	// Brokers is the static membership: every broker address, sorted.
	Brokers []string `json:"brokers"`

	// Dead lists members currently considered down, sorted. They stay
	// in Brokers (membership is static); they just own nothing until
	// marked alive again.
	Dead []string `json:"dead,omitempty"`
}

// NewMap builds a version-1 map over the given brokers with every
// member alive. Zero partitions/replication take the defaults.
func NewMap(brokers []string, partitions, replication int) Map {
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	if replication <= 0 {
		replication = DefaultReplication
	}
	bs := append([]string(nil), brokers...)
	sort.Strings(bs)
	return Map{Version: 1, Partitions: partitions, Replication: replication, Brokers: bs}
}

// Clone returns a deep copy.
func (m Map) Clone() Map {
	out := m
	out.Brokers = append([]string(nil), m.Brokers...)
	out.Dead = append([]string(nil), m.Dead...)
	return out
}

// IsDead reports whether addr is currently marked dead.
func (m Map) IsDead(addr string) bool {
	for _, d := range m.Dead {
		if d == addr {
			return true
		}
	}
	return false
}

// Alive returns the live members, sorted.
func (m Map) Alive() []string {
	out := make([]string, 0, len(m.Brokers))
	for _, b := range m.Brokers {
		if !m.IsDead(b) {
			out = append(out, b)
		}
	}
	return out
}

// hash64 is the shared 64-bit ID space brokers, partitions, and hosts
// all hash into (FNV-1a: stable across processes and runs, which the
// no-coordinator design depends on).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// PartitionOf maps a host ID onto its partition.
func (m Map) PartitionOf(host string) int {
	if m.Partitions <= 0 {
		return 0
	}
	return int(hash64(host) % uint64(m.Partitions))
}

// partitionID places a partition in the 64-bit ID space.
func partitionID(p int) uint64 {
	return hash64("gostats.partition." + strconv.Itoa(p))
}

// Owners returns the brokers owning partition p — the Replication live
// members nearest the partition's ID by XOR distance (Kademlia-style
// ID-space routing), primary first. Fewer than Replication live
// members returns them all; zero live members returns nil.
//
// XOR distance gives the property live rebalancing needs: when a
// broker dies, only the partitions it owned move (each to the next
// nearest survivor) — ownership of everything else is unchanged, so a
// single death never triggers a fleet-wide shuffle.
func (m Map) Owners(p int) []string {
	alive := m.Alive()
	if len(alive) == 0 {
		return nil
	}
	pid := partitionID(p)
	sort.SliceStable(alive, func(i, j int) bool {
		di := hash64(alive[i]) ^ pid
		dj := hash64(alive[j]) ^ pid
		if di != dj {
			return di < dj
		}
		return alive[i] < alive[j]
	})
	r := m.Replication
	if r <= 0 {
		r = DefaultReplication
	}
	if r > len(alive) {
		r = len(alive)
	}
	return alive[:r]
}

// Primary returns partition p's primary owner ("" when no member is
// alive).
func (m Map) Primary(p int) string {
	o := m.Owners(p)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// OwnersOfHost resolves host -> partition -> owner brokers in one step.
func (m Map) OwnersOfHost(host string) (partition int, owners []string) {
	p := m.PartitionOf(host)
	return p, m.Owners(p)
}

// PrimaryCount returns, per broker address, how many partitions it is
// the primary owner of — the partition-ownership telemetry view.
func (m Map) PrimaryCount() map[string]int {
	out := make(map[string]int, len(m.Brokers))
	for _, b := range m.Brokers {
		out[b] = 0
	}
	for p := 0; p < m.Partitions; p++ {
		if pr := m.Primary(p); pr != "" {
			out[pr]++
		}
	}
	return out
}

// Encode serializes the map for the broker handshake (the payload a
// broker's MapProvider serves and FetchMap returns).
func (m Map) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// Map contains only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("fabric: encode map: %v", err))
	}
	return b
}

// DecodeMap parses a handshake map payload. The payload arrives from
// the network, so a map that fails Validate is refused.
func DecodeMap(b []byte) (Map, error) {
	var m Map
	if err := json.Unmarshal(b, &m); err != nil {
		return Map{}, fmt.Errorf("fabric: decode map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Map{}, fmt.Errorf("fabric: decode map: %w", err)
	}
	return m, nil
}

// Validate reports why m is not a map a fabric can route by: a
// partition count outside [1, MaxPartitions], a replication factor
// below 1, no brokers, brokers unsorted or duplicated, or a dead entry
// that is not a member.
func (m Map) Validate() error {
	if m.Partitions < 1 || m.Partitions > MaxPartitions {
		return fmt.Errorf("partitions %d outside [1, %d]", m.Partitions, MaxPartitions)
	}
	if m.Replication < 1 {
		return fmt.Errorf("replication %d below 1", m.Replication)
	}
	if len(m.Brokers) == 0 {
		return errors.New("no brokers")
	}
	for i := 1; i < len(m.Brokers); i++ {
		if m.Brokers[i-1] >= m.Brokers[i] {
			return fmt.Errorf("brokers not sorted and unique at %q", m.Brokers[i])
		}
	}
	for _, d := range m.Dead {
		if _, ok := slices.BinarySearch(m.Brokers, d); !ok {
			return fmt.Errorf("dead broker %q is not a member", d)
		}
	}
	return nil
}

// PartitionQueue is the broker queue name for one partition's raw
// snapshot stream. The same name exists independently on every owner
// broker; replication is the same frame pushed to each.
func PartitionQueue(p int) string {
	return fmt.Sprintf("gostats.raw.p%03d", p)
}

// SeqOf derives a snapshot's dedup sequence from its content:
// FNV-1a over the same (time, mark) identity the conservation audit
// keys on, so the value is stable across codec round-trips, spool
// recovery, and process restarts — a replayed frame always carries the
// sequence its first publish carried, which is what makes (host, seq)
// dedup idempotent across replicated delivery AND spool replay without
// persisting a counter anywhere.
func SeqOf(s model.Snapshot) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strconv.FormatFloat(s.Time, 'f', 3, 64)))
	h.Write([]byte{'#'})
	h.Write([]byte(s.Mark))
	return h.Sum64()
}
