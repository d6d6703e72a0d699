package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/lustresim"
	"gostats/internal/model"
	"gostats/internal/workload"
)

// Sink receives every snapshot a node produces. Implementations are the
// two operation modes (cron spool, broker publish) or test callbacks.
type Sink interface {
	Handle(s model.Snapshot) error
	Close() error
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(s model.Snapshot) error

// Handle implements Sink.
func (f SinkFunc) Handle(s model.Snapshot) error { return f(s) }

// Close implements Sink.
func (f SinkFunc) Close() error { return nil }

// nodeRT is one node's runtime state inside the engine.
type nodeRT struct {
	node   *hwsim.Node
	col    *collect.Collector
	sink   Sink
	job    *activeJob // nil when free
	jobIdx int        // node index within the job
	failed bool
	// nextSync is the next daily rsync time for cron-mode accounting;
	// managed by the engine's SyncHook.
	nextSync float64
}

// activeJob is a running job inside the engine.
type activeJob struct {
	spec      workload.Spec
	rng       *rand.Rand
	start     float64
	end       float64
	nodes     []*nodeRT
	suspended bool
}

// Engine steps a persistent cluster through simulated time.
type Engine struct {
	Interval float64 // sampling interval (seconds)
	Clock    float64 // current simulated time

	nodes   []*nodeRT
	pending []workload.Spec // sorted by ready time (submit+wait)
	active  map[string]*activeJob

	// NewSink builds the per-node sink; defaults to a discard sink.
	NewSink func(n *hwsim.Node, col *collect.Collector) (Sink, error)
	// FS, if set, is the shared Lustre filesystem every node mounts:
	// aggregate metadata and data demand feeds its load model, and the
	// resulting server latency and bandwidth throttling are imposed on
	// every job — the §VI-A cross-job interference channel.
	FS *lustresim.Filesystem
	// SyncHook, if set, is invoked when a node crosses its daily sync
	// time (cron-mode rsync). now is the simulated time of the sync.
	SyncHook func(host string, now float64) error
	// OnJobEnd, if set, is invoked when a job's epilog completes — the
	// point where the scheduler writes its accounting record.
	OnJobEnd func(spec workload.Spec, start, end float64, hosts []string) error
	// OnTick, if set, is invoked at the end of every Step with the new
	// simulated time — the seam chaos schedules hang off (e.g. killing
	// a broker at a fixed simulated second mid-run).
	OnTick func(now float64) error
	// syncPeriod is a day; nodes get a random offset so syncs spread out
	// across low-utilization hours like the real deployment.
	rng *rand.Rand

	// Accounting.
	Started  int
	Finished int
}

// NewEngine builds an engine with nNodes nodes of the given config.
func NewEngine(nNodes int, cfg chip.NodeConfig, interval float64, seed int64) (*Engine, error) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	e := &Engine{
		Interval: interval,
		active:   make(map[string]*activeJob),
		rng:      rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < nNodes; i++ {
		host := fmt.Sprintf("c%03d-%03d", 401+i/8, 101+i%8)
		n, err := hwsim.NewNode(host, cfg, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		n.Advance(86400, hwsim.IdleDemand())
		rt := &nodeRT{node: n, col: collect.New(n)}
		rt.nextSync = float64(e.rng.Intn(86400))
		e.nodes = append(e.nodes, rt)
	}
	return e, nil
}

// Start initializes per-node sinks. Call after setting NewSink.
func (e *Engine) Start() error {
	for _, rt := range e.nodes {
		if e.NewSink == nil {
			rt.sink = SinkFunc(func(model.Snapshot) error { return nil })
			continue
		}
		s, err := e.NewSink(rt.node, rt.col)
		if err != nil {
			return err
		}
		rt.sink = s
	}
	return nil
}

// Submit queues jobs for execution.
func (e *Engine) Submit(specs ...workload.Spec) {
	e.pending = append(e.pending, specs...)
	sort.SliceStable(e.pending, func(i, j int) bool {
		return e.pending[i].SubmitAt+e.pending[i].WaitSec < e.pending[j].SubmitAt+e.pending[j].WaitSec
	})
}

// Nodes returns the engine's node runtimes' hosts.
func (e *Engine) Nodes() []string {
	out := make([]string, len(e.nodes))
	for i, rt := range e.nodes {
		out[i] = rt.node.Host()
	}
	return out
}

// SuspendJob stops a running job's workload (its nodes go idle while it
// keeps its reservation) — the §VI-B automated response to a problem job
// "before it creates system-wide slowdowns". Returns false if the job is
// not running.
func (e *Engine) SuspendJob(id string) bool {
	job, ok := e.active[id]
	if !ok {
		return false
	}
	job.suspended = true
	return true
}

// Suspended reports whether a running job is suspended.
func (e *Engine) Suspended(id string) bool {
	job, ok := e.active[id]
	return ok && job.suspended
}

// FailNode marks a node dead: it stops advancing, collecting and
// syncing. Returns false if the host is unknown.
func (e *Engine) FailNode(host string) bool {
	for _, rt := range e.nodes {
		if rt.node.Host() == host {
			rt.failed = true
			return true
		}
	}
	return false
}

// freeNodes returns up to want healthy, unassigned nodes.
func (e *Engine) freeNodes(want int) []*nodeRT {
	var out []*nodeRT
	for _, rt := range e.nodes {
		if rt.job == nil && !rt.failed {
			out = append(out, rt)
			if len(out) == want {
				return out
			}
		}
	}
	return nil
}

// emit collects on one node and hands the snapshot to its sink.
func (e *Engine) emit(rt *nodeRT, mark string) error {
	var jobs []string
	if rt.job != nil {
		jobs = []string{rt.job.spec.JobID}
	}
	snap, _ := rt.col.Collect(e.Clock, jobs, mark)
	return rt.sink.Handle(snap)
}

// Step advances the cluster by one sampling interval: ends due jobs
// (epilog), starts ready jobs (prolog), advances hardware, and performs
// the interval collection on every healthy node.
func (e *Engine) Step() error {
	next := e.Clock + e.Interval

	// 1. End jobs finishing within this step (epilog at job end time;
	//    quantized to the step boundary for simplicity), in id order so
	//    one seed always gives one stream.
	for _, id := range e.ActiveJobs() {
		if job := e.active[id]; job.end <= next {
			// Advance the tail of the job before the epilog.
			tail := job.end - e.Clock
			if tail > 0 {
				e.advanceJob(job, tail)
			}
			for _, rt := range job.nodes {
				if rt.failed {
					continue
				}
				savedClock := e.Clock
				e.Clock = job.end
				if err := e.emit(rt, collect.JobMark(collect.MarkEnd, id)); err != nil {
					return err
				}
				e.Clock = savedClock
				rt.job = nil
			}
			if e.OnJobEnd != nil {
				hosts := make([]string, 0, len(job.nodes))
				for _, rt := range job.nodes {
					hosts = append(hosts, rt.node.Host())
				}
				if err := e.OnJobEnd(job.spec, job.start, job.end, hosts); err != nil {
					return err
				}
			}
			delete(e.active, id)
			e.Finished++
		}
	}

	// 2. Start ready jobs that fit.
	var rest []workload.Spec
	for _, spec := range e.pending {
		ready := spec.SubmitAt + spec.WaitSec
		if ready > next {
			rest = append(rest, spec)
			continue
		}
		nodes := e.freeNodes(spec.Nodes)
		if nodes == nil {
			rest = append(rest, spec) // wait for capacity
			continue
		}
		job := &activeJob{
			spec:  spec,
			rng:   rand.New(rand.NewSource(hashSeed(991, spec.JobID))),
			start: next,
			end:   next + spec.Runtime,
			nodes: nodes,
		}
		for i, rt := range nodes {
			rt.job = job
			rt.jobIdx = i
		}
		e.active[spec.JobID] = job
		e.Started++
		savedClock := e.Clock
		e.Clock = next
		for _, rt := range nodes {
			if rt.failed {
				continue
			}
			if err := e.emit(rt, collect.JobMark(collect.MarkBegin, spec.JobID)); err != nil {
				return err
			}
		}
		e.Clock = savedClock
	}
	e.pending = rest

	// 3. Compute demands, feed the shared filesystem, advance hardware.
	type pending struct {
		rt *nodeRT
		d  hwsim.Demand
	}
	var plan []pending
	for _, id := range e.ActiveJobs() { // deterministic demand-draw order
		job := e.active[id]
		elapsed := e.Clock - job.start
		if elapsed < 0 {
			elapsed = 0
		}
		for _, rt := range job.nodes {
			if rt.failed {
				continue
			}
			d := hwsim.IdleDemand()
			if !job.suspended {
				d = job.spec.Model.Demand(elapsed, job.spec.Runtime, rt.jobIdx, len(job.nodes), job.rng)
			}
			plan = append(plan, pending{rt, d})
		}
	}
	if e.FS != nil {
		var mds, oss float64
		for _, p := range plan {
			mds += p.d.MDCReqRate
			oss += p.d.LustreReadBW + p.d.LustreWriteBW
		}
		e.FS.Step(mds, oss)
		wait := e.FS.MDSWaitUs()
		thr := e.FS.Throttle()
		for i := range plan {
			if plan[i].d.MDCWaitUs < wait {
				plan[i].d.MDCWaitUs = wait
			}
			plan[i].d.LustreReadBW *= thr
			plan[i].d.LustreWriteBW *= thr
		}
	}
	for _, p := range plan {
		p.rt.node.Advance(e.Interval, p.d)
	}
	for _, rt := range e.nodes {
		if rt.job == nil && !rt.failed {
			rt.node.Advance(e.Interval, hwsim.IdleDemand())
		}
	}

	// 4. Interval collection on every healthy node.
	e.Clock = next
	for _, rt := range e.nodes {
		if rt.failed {
			continue
		}
		if err := e.emit(rt, ""); err != nil {
			return err
		}
	}

	// 5. Daily syncs.
	if e.SyncHook != nil {
		for _, rt := range e.nodes {
			if rt.failed {
				continue
			}
			for rt.nextSync <= e.Clock {
				if err := e.SyncHook(rt.node.Host(), rt.nextSync); err != nil {
					return err
				}
				rt.nextSync += 86400
			}
		}
	}

	// 6. External tick hooks (chaos schedules, probes).
	if e.OnTick != nil {
		if err := e.OnTick(e.Clock); err != nil {
			return err
		}
	}
	return nil
}

// advanceJob advances every healthy node of a job by dt under the job's
// workload model (used for end-of-job tail advancement; the shared
// filesystem's current latency applies but its load is not re-sampled).
func (e *Engine) advanceJob(job *activeJob, dt float64) {
	elapsed := e.Clock - job.start
	if elapsed < 0 {
		elapsed = 0
	}
	var wait, thr float64 = 0, 1
	if e.FS != nil {
		wait = e.FS.MDSWaitUs()
		thr = e.FS.Throttle()
	}
	for _, rt := range job.nodes {
		if rt.failed {
			continue
		}
		d := hwsim.IdleDemand()
		if !job.suspended {
			d = job.spec.Model.Demand(elapsed, job.spec.Runtime, rt.jobIdx, len(job.nodes), job.rng)
		}
		if e.FS != nil {
			if d.MDCWaitUs < wait {
				d.MDCWaitUs = wait
			}
			d.LustreReadBW *= thr
			d.LustreWriteBW *= thr
		}
		rt.node.Advance(dt, d)
	}
}

// Run steps the engine until the clock reaches until.
func (e *Engine) Run(until float64) error {
	for e.Clock < until {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every node sink.
func (e *Engine) Close() error {
	var first error
	for _, rt := range e.nodes {
		if rt.sink == nil {
			continue
		}
		if err := rt.sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ActiveJobs reports the ids of currently running jobs.
func (e *Engine) ActiveJobs() []string {
	ids := make([]string, 0, len(e.active))
	for id := range e.active {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
