package etl

import (
	"sort"
	"strings"

	"gostats/internal/collect"
	"gostats/internal/core"
	"gostats/internal/model"
	"gostats/internal/reldb"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
	"gostats/internal/trace"
)

// DefaultEndGrace is the grace window the batch driver uses: one
// canonical collection interval (the paper's 10-minute tick), long
// enough that every host's same-cycle samples land before the reduce.
const DefaultEndGrace = 600

// Assembler is the streaming job-run assembler at the heart of the
// incremental ETL: it consumes decoded snapshots as they arrive — from
// the live broker stream or a raw-store walk — and finalizes each job
// into a relational row the moment the stream says it is over, without
// ever materializing whole raw files.
//
// A job finalizes when its "% end <id>" mark has been seen and the
// stream watermark (the maximum snapshot time observed) has advanced
// past the end time by EndGrace — the grace window lets straggler hosts
// of a multi-node job flush their last samples before the row is
// reduced. A job that never gets an end mark (its node died, or the
// scheduler never delivered the epilog) stays in flight until Flush.
//
// The trigger is evaluated against stream time, not wall time, so a
// historical replay behaves identically to a live tail, and it is held
// back by the Lateness window so cross-host delivery skew cannot
// truncate a job. A finalized job stays finalized: its id is tombstoned,
// and any sample or mark that still arrives for it is dropped and
// counted rather than starting a second, truncated row. Flush finalizes
// everything left (batch end-of-input).
//
// Not safe for concurrent use; the listener serializes messages anyway.
type Assembler struct {
	// Registry reduces each finalized job to Table I metrics.
	Registry *schema.Registry
	// Meta joins scheduler accounting onto finalized rows (may be nil:
	// rows then carry blank accounting, as in the batch path).
	Meta map[string]Meta
	// DB receives finalized rows.
	DB *reldb.DB
	// Journal, if set, appends every finalized row to the crash-safe
	// reldb journal the moment it exists — the durable system of record
	// that replaces save-on-a-timer. Append failures stick and surface
	// via Err.
	Journal *reldb.Journal

	// EndGrace is how far (stream seconds) the watermark must pass a
	// job's end mark before the row is reduced. Zero finalizes on the
	// first snapshot after the mark.
	EndGrace float64
	// Lateness holds the finalize trigger back by this many stream
	// seconds past the watermark. Live broker delivery is only
	// approximately time-ordered — per-host FIFO, but cross-host skew of
	// up to about a collection interval — and a job finalized before a
	// lagging host's tail samples arrive would be reduced over a
	// truncated series. Set it to one collection interval for live
	// streams; zero is correct for time-ordered input (Store.Walk, tests).
	// Arrivals later than the window are dropped (LateDrops).
	Lateness float64

	// OnRow, if set, observes every finalized row (tests, metrics).
	OnRow func(*reldb.JobRow)

	// OnSnapshot, if set, observes every fed snapshot after it has been
	// folded in and before the trigger it fired is swept, so every
	// job it touched is still in flight — the tap the online watch stage
	// hangs off.
	OnSnapshot func(model.Snapshot)

	// Trace, if set, stamps the assemble hop on every fed snapshot.
	Trace *trace.Recorder

	// Metrics selects the telemetry registry; nil uses Default().
	Metrics *telemetry.Registry

	// vecWidth is the flops credited per vector FP instruction; zero
	// means core.VecWidth, the AVX fleet's. The batch ETL sets the
	// fleet's own width.
	vecWidth int

	jobs      map[string]*jobState
	done      map[string]bool // finalized ids: late arrivals must not resurrect them
	watermark float64
	ingested  []string
	skipped   int
	late      int
	jnlErr    error
	met       *etlMetrics
}

// jobState is one in-flight job's accumulation.
type jobState struct {
	jd        *model.JobData
	begin     float64
	end       float64
	haveBegin bool
	haveEnd   bool
}

func (a *Assembler) init() {
	if a.jobs == nil {
		a.jobs = make(map[string]*jobState)
		a.done = make(map[string]bool)
	}
	if a.met == nil {
		reg := a.Metrics
		if reg == nil {
			reg = telemetry.Default()
		}
		a.met = newETLMetrics(reg)
	}
}

// job returns id's in-flight state, creating it on first sight, or nil
// — counting a late drop — when id has already been finalized.
func (a *Assembler) job(id string) *jobState {
	js := a.jobs[id]
	if js == nil {
		if a.done[id] {
			a.late++
			a.met.lateDrops.Inc()
			return nil
		}
		js = &jobState{jd: model.NewJobData(id)}
		a.jobs[id] = js
		a.met.jobsMapped.Inc()
	}
	return js
}

// Feed folds one snapshot into every job it is labeled with, records
// begin/end marks, advances the watermark, and finalizes any job whose
// trigger fired. Snapshots must arrive in globally non-decreasing time
// order, up to the Lateness window (Store.Walk and the live stream both
// provide this); a sample later than that may find its job finalized
// and be dropped.
func (a *Assembler) Feed(s model.Snapshot) {
	a.init()
	a.Trace.Stamp(&s, model.StageAssemble)
	for _, id := range s.JobIDs {
		if js := a.job(id); js != nil {
			js.jd.AddSnapshot(s)
		}
	}
	switch kind, id := jobMark(s.Mark); kind {
	case collect.MarkBegin:
		if js := a.job(id); js != nil {
			js.begin, js.haveBegin = s.Time, true
		}
	case collect.MarkEnd:
		if js := a.job(id); js != nil {
			js.end, js.haveEnd = s.Time, true
		}
	}
	if s.Time > a.watermark {
		a.watermark = s.Time
	}
	if a.OnSnapshot != nil {
		a.OnSnapshot(s)
	}
	a.sweep()
}

// jobMark splits a job-lifecycle mark ("begin 4001", see
// collect.JobMark) into its kind and job id; both are empty for any
// other mark.
func jobMark(mark string) (kind, id string) {
	kind, id, _ = strings.Cut(mark, " ")
	if id == "" || (kind != collect.MarkBegin && kind != collect.MarkEnd) {
		return "", ""
	}
	return kind, id
}

// sweep finalizes every job whose end-mark trigger has fired at the
// current watermark, held back by the lateness window.
func (a *Assembler) sweep() {
	mark := a.watermark - a.Lateness
	var due []string
	for id, js := range a.jobs {
		if js.haveEnd && mark >= js.end+a.EndGrace {
			due = append(due, id)
		}
	}
	sort.Strings(due)
	for _, id := range due {
		a.finalize(id)
	}
}

// row reduces one accumulated job to its relational row: Table I
// metrics, the scheduler-meta join (Nodes falls back to the observed
// hosts), and the begin/end span, or the observed sample span when a
// mark is missing. Finalize and Running both build rows here. Jobs too
// thin to reduce (a single sample) return core's error.
func (a *Assembler) row(id string, js *jobState) (*reldb.JobRow, error) {
	width := a.vecWidth
	if width == 0 {
		width = core.VecWidth
	}
	sum, err := core.Compute(js.jd, a.Registry, width)
	if err != nil {
		return nil, err
	}
	row := &reldb.JobRow{JobID: id, Hosts: js.jd.HostNames(), Metrics: *sum}
	if js.haveBegin && js.haveEnd {
		row.StartTime, row.EndTime = js.begin, js.end
	} else {
		row.StartTime, row.EndTime = observedSpan(js.jd)
	}
	if md, ok := a.Meta[id]; ok {
		row.User, row.Account, row.Exe, row.JobName = md.User, md.Account, md.Exe, md.JobName
		row.Queue, row.Status = md.Queue, md.Status
		row.Nodes, row.Wayness = md.Nodes, md.Wayness
		row.SubmitTime = md.Submit
	}
	if row.Status == "" {
		row.Status = "RUNNING"
	}
	if row.Nodes == 0 {
		row.Nodes = len(js.jd.Hosts)
	}
	return row, nil
}

// observedSpan returns the earliest and latest sample times across a
// job's hosts.
func observedSpan(jd *model.JobData) (first, last float64) {
	started := false
	for _, hd := range jd.Hosts {
		for _, byInst := range hd.Series {
			for _, s := range byInst {
				if len(s.Samples) == 0 {
					continue
				}
				f := s.Samples[0].Time
				l := s.Samples[len(s.Samples)-1].Time
				if !started || f < first {
					first = f
				}
				if !started || l > last {
					last = l
				}
				started = true
			}
		}
	}
	return first, last
}

// Running builds the provisional row of a job still running —
// accumulating, its end mark not yet seen — exactly as finalize would
// build it now, without finalizing it. ok is false for any other id; a
// running job still too thin to reduce gives ok with a nil row. It is
// the online watcher's read-only view of in-flight jobs.
func (a *Assembler) Running(id string) (row *reldb.JobRow, ok bool) {
	js := a.jobs[id]
	if js == nil || js.haveEnd {
		return nil, false
	}
	row, _ = a.row(id, js)
	return row, true
}

// finalize reduces one job to its row, inserts it, forgets the
// accumulated state and tombstones the id. Jobs too thin to reduce (a
// single sample — the node died between ticks) are dropped, as in the
// batch path.
func (a *Assembler) finalize(id string) {
	js := a.jobs[id]
	delete(a.jobs, id)
	a.done[id] = true
	row, err := a.row(id, js)
	if err != nil {
		a.skipped++
		a.met.jobsSkipped.Inc()
		return
	}
	if a.DB != nil {
		a.DB.Insert(row)
	}
	// Once the journal has latched a write error, later rows can never
	// be made durable — stop appending so Err reflects the first loss
	// rather than burying it under repeats.
	if a.Journal != nil && a.jnlErr == nil {
		if err := a.Journal.Append(row); err != nil {
			a.jnlErr = err
		}
	}
	a.met.rowsIngested.Inc()
	a.ingested = append(a.ingested, id)
	if a.OnRow != nil {
		a.OnRow(row)
	}
}

// Flush finalizes every job still in flight, in sorted id order —
// end-of-input for a batch, or shutdown for a live tail.
func (a *Assembler) Flush() {
	a.init()
	ids := make([]string, 0, len(a.jobs))
	for id := range a.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a.finalize(id)
	}
}

// Pending reports how many jobs are accumulating but not yet finalized.
func (a *Assembler) Pending() int { return len(a.jobs) }

// Err reports the first journal-append failure, if any — rows after it
// are still inserted in memory but the durable log is incomplete.
func (a *Assembler) Err() error { return a.jnlErr }

// Watermark reports the stream time: the latest snapshot time fed.
func (a *Assembler) Watermark() float64 { return a.watermark }

// IngestedIDs returns every finalized job id so far, sorted.
func (a *Assembler) IngestedIDs() []string {
	ids := append([]string(nil), a.ingested...)
	sort.Strings(ids)
	return ids
}

// Skipped reports jobs dropped because they were too thin to reduce.
func (a *Assembler) Skipped() int { return a.skipped }

// LateDrops reports samples and marks dropped because their job had
// already finalized; non-zero means delivery skew exceeded Lateness.
func (a *Assembler) LateDrops() int { return a.late }
