// Package watch is the online job-flagging stage: the same screening
// rules internal/flagging applies to finished rows, evaluated
// incrementally against jobs that are still running. It is an observer
// of an etl.Assembler, the one place snapshots are folded into jobs: on
// the assembler's snapshot tap it re-evaluates each running job's
// provisional row on a stream-time cadence — so a job spinning on idle
// nodes or hammering the metadata server is flagged minutes into its
// run, not after the nightly ETL — and on its row tap it takes the final
// verdict from exactly the row the assembler finalized.
//
// Alerts route two ways: telemetry counters
// (gostats_watch_flags_raised_total, by flag) for dashboards, and a
// structured JSON-lines event log (plus an optional synchronous Notify
// hook) for operators and audits. The paper's future-work section asks
// for exactly this automated real-time analysis; PerSyst and the MPCDF
// system (PAPERS.md) are the precedents for running it inside the
// ingest path.
package watch

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"gostats/internal/etl"
	"gostats/internal/flagging"
	"gostats/internal/model"
	"gostats/internal/reldb"
	"gostats/internal/telemetry"
)

// DefaultCheckEvery is the stream-time cadence (seconds) at which a
// running job's provisional metrics are re-evaluated: one canonical
// collection interval, so every new sample batch triggers one check.
const DefaultCheckEvery = 600

// Event is one structured alert emitted by the watcher.
type Event struct {
	// Kind is "flag_raised" (a rule newly fired mid-run) or "job_final"
	// (the job finalized; Flags carries its final flag set).
	Kind       string   `json:"kind"`
	JobID      string   `json:"job_id"`
	Flag       string   `json:"flag,omitempty"`
	Flags      []string `json:"flags,omitempty"`
	StreamTime float64  `json:"stream_time"`
	WallUnixNs int64    `json:"wall_unix_ns"`
}

// Result is the watcher's verdict on one finalized job.
type Result struct {
	JobID string
	// Flags is the final flag set, evaluated on the complete series —
	// the set that must match the post-hoc batch sweep.
	Flags []string
	// Raised maps each flag to the stream time it first fired, which for
	// mid-run detections is strictly before the job's end.
	Raised map[string]float64
	// Start and End bound the job in stream time (begin/end marks, or
	// the observed sample span).
	Start, End float64
}

// watchMetrics are the watcher's telemetry series.
type watchMetrics struct {
	reg       *telemetry.Registry
	watched   *telemetry.Counter
	finalized *telemetry.Counter
	checks    *telemetry.Counter
	byFlag    map[string]*telemetry.Counter
}

func newWatchMetrics(reg *telemetry.Registry) *watchMetrics {
	return &watchMetrics{
		reg: reg,
		watched: reg.Counter("gostats_watch_jobs_total",
			"Jobs the online watcher started tracking."),
		finalized: reg.Counter("gostats_watch_jobs_finalized_total",
			"Jobs the online watcher finalized."),
		checks: reg.Counter("gostats_watch_checks_total",
			"Mid-run provisional metric evaluations performed."),
		byFlag: make(map[string]*telemetry.Counter),
	}
}

func (m *watchMetrics) flagCounter(flag string) *telemetry.Counter {
	c := m.byFlag[flag]
	if c == nil {
		c = m.reg.Counter("gostats_watch_flags_raised_total",
			"Online flags raised while jobs were still running, by flag.", "flag", flag)
		m.byFlag[flag] = c
	}
	return c
}

// jobWatch is the watcher's own state for one job; the series live in
// the assembler.
type jobWatch struct {
	lastCheck float64
	raised    map[string]float64 // flag -> stream time first fired
}

// Watcher screens the jobs an etl.Assembler is folding. It runs inside
// the assembler's Feed (one goroutine); Results is safe to call
// concurrently with it.
type Watcher struct {
	// Thresholds tune the flag set; zero value is not usable — callers
	// pass flagging.DefaultThresholds() or a test-specific set.
	Thresholds flagging.Thresholds

	// EventLog, if set, receives one JSON line per event.
	EventLog io.Writer
	// Notify, if set, is invoked synchronously for every event.
	Notify func(Event)
	// Metrics selects the telemetry registry; nil uses Default().
	Metrics *telemetry.Registry

	mu      sync.Mutex
	asm     *etl.Assembler
	flags   []flagging.Flag
	jobs    map[string]*jobWatch
	results map[string]Result
	met     *watchMetrics
}

// Attach makes w an observer of a, taking over a's OnSnapshot and OnRow
// hooks: mid-run checks run on every fed snapshot, verdicts on every
// finalized row, and flushing a flushes w. Set w's fields first.
func (w *Watcher) Attach(a *etl.Assembler) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.asm = a
	w.jobs = make(map[string]*jobWatch)
	w.results = make(map[string]Result)
	w.flags = flagging.Default(w.Thresholds)
	reg := w.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	w.met = newWatchMetrics(reg)
	a.OnSnapshot = w.observe
	a.OnRow = w.final
}

func (w *Watcher) job(id string) *jobWatch {
	jw := w.jobs[id]
	if jw == nil {
		jw = &jobWatch{raised: make(map[string]float64)}
		w.jobs[id] = jw
		w.met.watched.Inc()
	}
	return jw
}

// observe runs the due provisional checks for every running job the
// snapshot is labeled with. Jobs still too thin to reduce raise nothing
// — they get rechecked on the next cadence tick.
func (w *Watcher) observe(s model.Snapshot) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, id := range s.JobIDs {
		last := 0.0
		if jw := w.jobs[id]; jw != nil {
			last = jw.lastCheck
		}
		if s.Time-last < DefaultCheckEvery {
			continue
		}
		row, running := w.asm.Running(id)
		if !running {
			continue
		}
		jw := w.job(id)
		jw.lastCheck = s.Time
		w.met.checks.Inc()
		if row == nil {
			continue
		}
		for _, flag := range flagging.Evaluate(w.flags, row) {
			if _, already := jw.raised[flag]; already {
				continue
			}
			jw.raised[flag] = s.Time
			w.met.flagCounter(flag).Inc()
			w.emit(Event{Kind: "flag_raised", JobID: id, Flag: flag, StreamTime: s.Time,
				WallUnixNs: time.Now().UnixNano()})
		}
	}
}

// final records the verdict on one finalized row: its flag set over the
// complete series, plus the mid-run raises.
func (w *Watcher) final(row *reldb.JobRow) {
	w.mu.Lock()
	defer w.mu.Unlock()
	jw := w.job(row.JobID)
	delete(w.jobs, row.JobID)
	flags := flagging.Evaluate(w.flags, row)
	w.results[row.JobID] = Result{JobID: row.JobID, Flags: flags, Raised: jw.raised,
		Start: row.StartTime, End: row.EndTime}
	w.met.finalized.Inc()
	w.emit(Event{Kind: "job_final", JobID: row.JobID, Flags: flags,
		StreamTime: w.asm.Watermark(), WallUnixNs: time.Now().UnixNano()})
}

// emit routes one event to the log and the hook; w.mu is held (the
// assembler's Feed is single-goroutine, so the ordering of log lines
// matches event order).
func (w *Watcher) emit(e Event) {
	if w.EventLog != nil {
		if b, err := json.Marshal(e); err == nil {
			w.EventLog.Write(append(b, '\n'))
		}
	}
	if w.Notify != nil {
		w.Notify(e)
	}
}

// Results returns every finalized job's verdict, keyed by job id.
func (w *Watcher) Results() map[string]Result {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]Result, len(w.results))
	for id, r := range w.results {
		out[id] = r
	}
	return out
}
