package main

import (
	"fmt"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/codec"
	"gostats/internal/collect"
	"gostats/internal/etl"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/schema"
	"gostats/internal/workload"
)

// stream is one generated fleet's collection stream, in the order the
// node daemons would publish it, plus what the checks need to know
// about it.
type stream struct {
	reg   *schema.Registry
	snaps []model.Snapshot // as decoded from wire
	wire  [][]byte         // encoded with the default v1 text codec
	meta  map[string]etl.Meta
	span  float64 // simulated seconds
	hosts []string
}

// genStream runs the simulated cluster (hwsim nodes sampled by the
// collector every 10 simulated minutes) for the given span and encodes
// every snapshot for the wire. The same seed always gives the same
// stream.
func genStream(seed int64, hosts int, span float64) (*stream, error) {
	specs := workload.GenerateFleet(workload.FleetOpts{
		Seed: seed, Jobs: hosts * int(span/7200), SpanSec: span * 0.8})
	st := &stream{
		reg:  chip.StampedeNode().Registry(),
		meta: make(map[string]etl.Meta, len(specs)),
		span: span,
	}
	for i := range specs {
		if specs[i].Nodes > hosts {
			specs[i].Nodes = hosts
		}
		if specs[i].Runtime > span/4 {
			specs[i].Runtime = span / 4
		}
		specs[i].Queue = "normal"
		st.meta[specs[i].JobID] = etl.MetaFromSpec(specs[i])
	}
	eng, err := cluster.NewEngine(hosts, chip.StampedeNode(), cluster.DefaultInterval, seed)
	if err != nil {
		return nil, err
	}
	eng.NewSink = func(*hwsim.Node, *collect.Collector) (cluster.Sink, error) {
		return cluster.SinkFunc(func(s model.Snapshot) error {
			st.snaps = append(st.snaps, s)
			return nil
		}), nil
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	eng.Submit(specs...)
	if err := eng.Run(span); err != nil {
		return nil, err
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	st.hosts = eng.Nodes()
	st.wire = make([][]byte, len(st.snaps))
	for i, s := range st.snaps {
		b, err := broker.EncodeSnapshotWire(s, st.reg, codec.V1Text)
		if err != nil {
			return nil, fmt.Errorf("encode snapshot %d: %w", i, err)
		}
		st.wire[i] = b
		// Keep what the wire carries (the text codec rounds times), so
		// the checks compare against what the system was sent.
		if st.snaps[i], _, err = broker.DecodeSnapshotWire(b, st.reg); err != nil {
			return nil, fmt.Errorf("decode snapshot %d: %w", i, err)
		}
	}
	return st, nil
}

// hostTally is one host's snapshot count and newest snapshot time.
type hostTally struct {
	count int
	last  float64
}

// tally counts the first n snapshots of the stream per host.
func (st *stream) tally(n int) map[string]hostTally {
	out := make(map[string]hostTally)
	for _, s := range st.snaps[:n] {
		t := out[s.Host]
		t.count++
		if s.Time > t.last {
			t.last = s.Time
		}
		out[s.Host] = t
	}
	return out
}
