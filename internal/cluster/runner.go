// Package cluster simulates the batch system TACC Stats lives inside: it
// creates nodes, schedules jobs onto them, fires the prolog/epilog
// collections the paper requires ("at least 2 data points per job"), and
// drives interval collections in either operation mode.
//
// Two entry points cover the two scales the experiments need:
//
//   - RunJob executes a single job spec on dedicated nodes and returns
//     every snapshot — the unit of the per-job metric pipeline.
//   - Engine steps a persistent multi-node cluster through simulated
//     time with a queue of jobs, pluggable per-node sinks (cron spool or
//     broker), daily rsync, and node-failure injection — the testbed for
//     the Fig 1 vs Fig 2 mode comparison and the realtime analyses.
package cluster

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/workload"
)

// DefaultInterval is the paper's usual sampling cadence: 10 minutes.
const DefaultInterval = 600.0

// JobRun is the result of running one job: its snapshots (all hosts,
// time-ordered per host) plus accounting.
type JobRun struct {
	Spec      workload.Spec
	Hosts     []string
	StartTime float64
	EndTime   float64
	Snapshots []model.Snapshot
	// CollectCost is the total simulated single-core seconds the
	// collector consumed across all nodes.
	CollectCost float64
}

// hashSeed derives a deterministic per-job RNG seed.
func hashSeed(base int64, jobID string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", base, jobID)
	return int64(h.Sum64())
}

// RunJob executes spec on freshly provisioned nodes of the given
// configuration, sampling every interval seconds, and returns all
// collected data. The run is deterministic in (spec, cfg, interval,
// seed).
func RunJob(spec workload.Spec, cfg chip.NodeConfig, interval float64, seed int64) (*JobRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	jobSeed := hashSeed(seed, spec.JobID)
	rng := rand.New(rand.NewSource(jobSeed))

	start := spec.SubmitAt + spec.WaitSec
	run := &JobRun{Spec: spec, StartTime: start, EndTime: start + spec.Runtime}

	nodes := make([]*hwsim.Node, spec.Nodes)
	cols := make([]*collect.Collector, spec.Nodes)
	for i := range nodes {
		host := fmt.Sprintf("c%03d-%03d", 400+(int(jobSeed)&0xff+i)/8%100, 100+i%8)
		n, err := hwsim.NewNode(host, cfg, jobSeed+int64(i))
		if err != nil {
			return nil, err
		}
		// Warm the counters with pre-job uptime so deltas start from
		// realistic non-zero registers.
		n.Advance(3600*24+float64(rng.Intn(100000)), hwsim.IdleDemand())
		nodes[i] = n
		cols[i] = collect.New(n)
		run.Hosts = append(run.Hosts, host)
	}

	jobs := []string{spec.JobID}
	collectAll := func(now float64, mark string) {
		for i, c := range cols {
			snap, cost := c.Collect(now, jobs, mark)
			_ = i
			run.CollectCost += cost
			run.Snapshots = append(run.Snapshots, snap)
		}
	}

	// Prolog: scheduler runs the collector with the job id.
	collectAll(start, collect.JobMark(collect.MarkBegin, spec.JobID))

	// Interval sampling during execution.
	elapsed := 0.0
	for elapsed+interval < spec.Runtime {
		for i, n := range nodes {
			d := spec.Model.Demand(elapsed, spec.Runtime, i, spec.Nodes, rng)
			n.Advance(interval, d)
		}
		elapsed += interval
		collectAll(start+elapsed, "")
	}
	// Remainder of the run, then the epilog collection.
	if rem := spec.Runtime - elapsed; rem > 0 {
		for i, n := range nodes {
			d := spec.Model.Demand(elapsed, spec.Runtime, i, spec.Nodes, rng)
			n.Advance(rem, d)
		}
	}
	collectAll(run.EndTime, collect.JobMark(collect.MarkEnd, spec.JobID))
	return run, nil
}
