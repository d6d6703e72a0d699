// Package model defines the shared in-memory data types that flow through
// the gostats pipeline: a Record is one device reading, a Snapshot is all
// records taken on one host at one instant.
//
// Time is represented as float64 seconds on the simulated cluster clock
// (unix-epoch-like). Using a plain float keeps the simulator deterministic
// and serialization trivial, and matches the raw file format's timestamp
// lines.
package model

import (
	"sort"

	"gostats/internal/schema"
)

// Stage identifies one hop of the ingest pipeline for provenance
// tracing. Stages are ordered in pipeline flow order; the numeric
// values are part of the v2 codec trace encoding and must not be
// reassigned.
type Stage uint8

const (
	StageCollect Stage = iota // origin: the collector read the devices
	StagePublish              // a publisher handed the snapshot to the broker client
	StageSpoolReplay
	StageBrokerDeliver
	StageArchive
	StageAssemble
	StageStoreIngest
	stageCount
)

var stageNames = [stageCount]string{
	"collect", "publish", "spool_replay", "broker_deliver",
	"archive", "assemble", "store_ingest",
}

// String returns the stage's exposition label (e.g. "broker_deliver").
func (s Stage) String() string {
	if s < stageCount {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every pipeline stage in flow order.
func Stages() []Stage {
	out := make([]Stage, stageCount)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// ParseStage maps an exposition label back to its Stage.
func ParseStage(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// StageStamp records when (wall clock, unix nanoseconds) a snapshot
// passed one pipeline stage. Unlike Snapshot.Time — which is simulated
// cluster time — stamps are real wall-clock provenance, so per-stage
// latencies and freshness are measured properties of the running
// pipeline, not of the simulation schedule.
type StageStamp struct {
	Stage  Stage
	UnixNs int64
}

// Record is one device instance reading: a value vector positionally
// matched against the schema of its class.
type Record struct {
	Class    schema.Class
	Instance string
	Values   []uint64
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	v := make([]uint64, len(r.Values))
	copy(v, r.Values)
	return Record{Class: r.Class, Instance: r.Instance, Values: v}
}

// Snapshot is everything collected on one host at one time.
type Snapshot struct {
	Time   float64 // simulated unix seconds
	Host   string
	JobIDs []string // jobs running on the host at collection time
	// Mark tags special collections: "begin %jobid", "end %jobid",
	// "procdump" (shared-node process signal), or "" for interval
	// collections. Mirrors the raw format's % marker lines.
	Mark    string
	Records []Record
	// Trace is the snapshot's provenance: one wall-clock stamp per
	// pipeline stage it has passed, in the order stamped. Nil when
	// tracing is off; codecs carry it only when present, so traceless
	// streams are byte-identical to pre-trace streams.
	Trace []StageStamp
}

// Clone returns a deep copy of the snapshot.
func (s Snapshot) Clone() Snapshot {
	out := s
	out.JobIDs = append([]string(nil), s.JobIDs...)
	out.Records = make([]Record, len(s.Records))
	for i, r := range s.Records {
		out.Records[i] = r.Clone()
	}
	out.Trace = append([]StageStamp(nil), s.Trace...)
	return out
}

// StageTime returns the wall-clock nanosecond stamp of the snapshot's
// first pass through the given stage, if stamped.
func (s Snapshot) StageTime(st Stage) (int64, bool) {
	for _, ts := range s.Trace {
		if ts.Stage == st {
			return ts.UnixNs, true
		}
	}
	return 0, false
}

// RecordsOf returns the snapshot's records of the given class, in
// instance order.
func (s Snapshot) RecordsOf(c schema.Class) []Record {
	var out []Record
	for _, r := range s.Records {
		if r.Class == c {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Instance < out[j].Instance })
	return out
}

// HasJob reports whether the snapshot is labeled with the given job id.
func (s Snapshot) HasJob(id string) bool {
	for _, j := range s.JobIDs {
		if j == id {
			return true
		}
	}
	return false
}
