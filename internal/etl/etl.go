// Package etl wires the pipeline stages together: run (or read) raw
// per-host data, map it to jobs, compute Table I metrics, and ingest job
// rows into the relational store. It is the programmatic equivalent of
// the nightly job_etl cron the paper's deployment runs.
package etl

import (
	"runtime"
	"sync"

	"gostats/internal/acct"

	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/core"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/reldb"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
	"gostats/internal/workload"
)

// etlMetrics are the batch-ingest telemetry series.
type etlMetrics struct {
	jobsMapped   *telemetry.Counter
	rowsIngested *telemetry.Counter
	jobsSkipped  *telemetry.Counter
	lateDrops    *telemetry.Counter
	batchSeconds *telemetry.Histogram
}

func newETLMetrics(reg *telemetry.Registry) *etlMetrics {
	return &etlMetrics{
		jobsMapped: reg.Counter("gostats_etl_jobs_mapped_total",
			"Jobs assembled from the raw store by the job mapper."),
		rowsIngested: reg.Counter("gostats_etl_rows_ingested_total",
			"Job rows reduced and inserted into the relational store."),
		jobsSkipped: reg.Counter("gostats_etl_jobs_skipped_total",
			"Jobs too thin to reduce (single sample) dropped at finalize."),
		lateDrops: reg.Counter("gostats_etl_late_drops_total",
			"Samples or marks arriving after their job finalized, dropped. Non-zero means delivery skew exceeded the lateness window."),
		batchSeconds: reg.Histogram("gostats_etl_batch_seconds",
			"Wall time of one store-ingest batch (map + reduce + insert).",
			[]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 300}),
	}
}

// BuildRow reduces one job run to its database row, computing vector
// metrics at the architecture's vector width (chip.Descriptor.VecWidth;
// core.VecWidth is the AVX default).
func BuildRow(run *cluster.JobRun, reg *schema.Registry, vecWidth int) (*reldb.JobRow, error) {
	sum, err := core.Compute(run.JobData(), reg, vecWidth)
	if err != nil {
		return nil, err
	}
	spec := run.Spec
	return &reldb.JobRow{
		JobID:      spec.JobID,
		User:       spec.User,
		Account:    spec.Account,
		Exe:        spec.Exe,
		JobName:    spec.JobName,
		Queue:      spec.Queue,
		Status:     string(spec.Status),
		Nodes:      spec.Nodes,
		Wayness:    spec.Wayness,
		Hosts:      run.Hosts,
		SubmitTime: spec.SubmitAt,
		StartTime:  run.StartTime,
		EndTime:    run.EndTime,
		Metrics:    *sum,
	}, nil
}

// FleetStats reports what a fleet run did.
type FleetStats struct {
	Jobs        int
	Failed      int     // jobs that errored in simulation or reduction
	CollectCost float64 // total simulated collector seconds
	NodeSeconds float64 // total simulated node-seconds of work
}

// RunFleet simulates every spec (each on dedicated nodes), computes its
// metrics and inserts the rows into a fresh DB. Jobs are distributed
// over a worker pool; results are deterministic in (specs, cfg,
// interval, seed) regardless of worker count because each job's RNG is
// derived from its id.
func RunFleet(specs []workload.Spec, cfg chip.NodeConfig, interval float64, seed int64, workers int) (*reldb.DB, FleetStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	db := reldb.New()
	reg := cfg.Registry()
	var (
		mu    sync.Mutex
		stats FleetStats
		wg    sync.WaitGroup
	)
	jobs := make(chan workload.Spec)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range jobs {
				run, err := cluster.RunJob(spec, cfg, interval, seed)
				if err != nil {
					mu.Lock()
					stats.Failed++
					mu.Unlock()
					continue
				}
				row, err := BuildRow(run, reg, cfg.Desc.VecWidth)
				if err != nil {
					mu.Lock()
					stats.Failed++
					mu.Unlock()
					continue
				}
				mu.Lock()
				db.Insert(row)
				stats.Jobs++
				stats.CollectCost += run.CollectCost
				stats.NodeSeconds += float64(spec.Nodes) * spec.Runtime
				mu.Unlock()
			}
		}()
	}
	for _, s := range specs {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	return db, stats, nil
}

// Meta is the scheduler accounting record the store-ingestion path joins
// against (the paper gets this from the batch system's logs).
type Meta struct {
	User    string
	Account string
	Exe     string
	JobName string
	Queue   string
	Status  string
	Nodes   int
	Wayness int
	Submit  float64
}

// MetaFromAcct converts a scheduler accounting record into the join
// table shape.
func MetaFromAcct(r acct.Record) Meta {
	return Meta{
		User: r.User, Account: r.Account, Exe: r.Exe, JobName: r.JobName,
		Queue: r.Queue, Status: r.State, Nodes: r.Nodes, Wayness: r.Wayness,
		Submit: r.Submit,
	}
}

// MetaFromSpec derives accounting metadata from a workload spec.
func MetaFromSpec(s workload.Spec) Meta {
	return Meta{
		User: s.User, Account: s.Account, Exe: s.Exe, JobName: s.JobName,
		Queue: s.Queue, Status: string(s.Status), Nodes: s.Nodes,
		Wayness: s.Wayness, Submit: s.SubmitAt,
	}
}

// IngestStore streams every archived snapshot in a central raw store —
// all hosts merged in global time order, damaged files recovered to
// their intact prefix — through the incremental Assembler, reducing
// each complete job to a row, joining the accounting metadata, and
// inserting into db. Jobs missing metadata are ingested with blank
// accounting fields rather than dropped — data beats completeness here,
// as in the real system. It returns the ids ingested, sorted.
//
// This is the batch face of the streaming core: raw files are decoded
// one snapshot at a time (text or binary, sniffed per file) and never
// materialized whole; memory scales with in-flight jobs, not with the
// store.
func IngestStore(st *rawfile.Store, reg *schema.Registry, meta map[string]Meta, db *reldb.DB) ([]string, error) {
	return IngestStoreJournaled(st, reg, core.VecWidth, meta, db, nil)
}

// IngestStoreJournaled is IngestStore for a fleet whose cores credit
// vecWidth flops per vector FP instruction (chip.Descriptor.VecWidth;
// IngestStore assumes the AVX fleet's core.VecWidth), with a crash-safe
// journal: every finalized row is appended to jnl the moment it exists,
// so a killed run resumes from the journal instead of starting over. A
// nil jnl degrades to the plain batch path.
func IngestStoreJournaled(st *rawfile.Store, reg *schema.Registry, vecWidth int, meta map[string]Meta, db *reldb.DB, jnl *reldb.Journal) ([]string, error) {
	met := newETLMetrics(telemetry.Default())
	timer := met.batchSeconds.Start()
	defer timer.Stop()
	a := &Assembler{Registry: reg, Meta: meta, DB: db, Journal: jnl, EndGrace: DefaultEndGrace, vecWidth: vecWidth}
	if _, err := st.Walk(func(s model.Snapshot) error {
		a.Feed(s)
		return nil
	}); err != nil {
		return nil, err
	}
	a.Flush()
	return a.IngestedIDs(), a.Err()
}

// DefaultNodeConfig is the node type fleets run on unless a spec says
// otherwise.
func DefaultNodeConfig(queue string) chip.NodeConfig {
	if queue == "largemem" {
		return chip.LargeMemNode()
	}
	return chip.StampedeNode()
}

// RunFleetMixed is RunFleet but routes largemem-queue jobs to largemem
// nodes, as the scheduler does.
func RunFleetMixed(specs []workload.Spec, interval float64, seed int64, workers int) (*reldb.DB, FleetStats, error) {
	var normal, large []workload.Spec
	for _, s := range specs {
		if s.Queue == "largemem" {
			large = append(large, s)
		} else {
			normal = append(normal, s)
		}
	}
	db, stats, err := RunFleet(normal, chip.StampedeNode(), interval, seed, workers)
	if err != nil {
		return nil, stats, err
	}
	if len(large) > 0 {
		db2, stats2, err := RunFleet(large, chip.LargeMemNode(), interval, seed, workers)
		if err != nil {
			return nil, stats, err
		}
		db.Insert(db2.All()...)
		stats.Jobs += stats2.Jobs
		stats.Failed += stats2.Failed
		stats.CollectCost += stats2.CollectCost
		stats.NodeSeconds += stats2.NodeSeconds
	}
	return db, stats, nil
}
