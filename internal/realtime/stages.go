// The listener's ordered steps: decode → archive → ingest → assemble,
// run on the calling goroutine. Each step has its own mutex, so it
// handles one message at a time — the monitor, archiver, ingester and
// assembler all require the per-host (here: global) arrival order the
// broker delivers. A caller takes the mutexes hand over hand: it locks
// step k+1 before it unlocks step k, so at most one caller ever waits
// for a later step, nobody overtakes between steps, and every step sees
// the messages in the order they entered decode. Concurrent callers
// (fabric partition consumers for different hosts) still overlap, each
// in a different step.
//
// Both entry points block until their message clears the last step, so
// queues between steps would buy no overlap the locks do not already
// give; running the steps inline saves a goroutine handoff per step.
//
// At-least-once acking: a call returns nil only once every configured
// sink accepted the snapshot, or decode dropped a corrupt frame, and
// the consumer acks only on nil.
package realtime

import (
	"errors"
	"fmt"
	"sync"

	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
)

// ErrClosed refuses a message handed to a closed listener.
var ErrClosed = errors.New("realtime: listener closed")

// errCorrupt is decode's verdict on a frame that does not decode: the
// message runs no later step and resolves nil, so it is acked away.
var errCorrupt = errors.New("realtime: corrupt message")

// listenItem is one wire message moving through the steps.
type listenItem struct {
	body  []byte
	snap  model.Snapshot
	lines []byte // the record lines the decode certified, inside body
}

const numSteps = 4

// listenSteps are the steps every message runs, in order.
var listenSteps = [numSteps]struct {
	name string
	run  func(*Listener, *listenItem) error
}{
	{"decode", (*Listener).decodeStep},
	{"archive", (*Listener).archiveStep},
	{"ingest", (*Listener).ingestStep},
	{"assemble", (*Listener).assembleStep},
}

// step is one step's lock and its stage series, labelled
// {pipeline="listend",stage=name}.
type step struct {
	mu        sync.Mutex
	depth     *telemetry.Gauge // callers waiting to enter
	inflight  *telemetry.Gauge
	processed *telemetry.Counter
	failures  *telemetry.Counter
}

func (s *step) init(reg *telemetry.Registry, name string) {
	l := []string{"pipeline", "listend", "stage", name}
	s.depth = reg.Gauge("gostats_pipeline_stage_depth",
		"Items queued at the stage intake (backpressure indicator).", l...)
	s.inflight = reg.Gauge("gostats_pipeline_stage_inflight",
		"Items currently inside stage handlers.", l...)
	s.processed = reg.Counter("gostats_pipeline_stage_processed_total",
		"Items the stage handled successfully (including skips).", l...)
	s.failures = reg.Counter("gostats_pipeline_stage_failures_total",
		"Items the stage abandoned.", l...)
}

func (s *step) lock() {
	s.depth.Add(1)
	s.mu.Lock()
	s.depth.Add(-1)
	s.inflight.Set(1)
}

func (s *step) unlock() {
	s.inflight.Set(0)
	s.mu.Unlock()
}

// handle runs one wire message through every step on the caller's
// goroutine. After the first step error, every caller returns that
// error at its next step without running it; after Close, ErrClosed.
func (l *Listener) handle(body []byte) error {
	it := listenItem{body: body}
	for k := range listenSteps {
		s := &l.steps[k]
		s.lock()
		if k > 0 {
			l.steps[k-1].unlock()
		} else if l.closed {
			s.unlock()
			return ErrClosed
		}
		if err := l.failed(); err != nil {
			s.unlock()
			return err
		}
		err := listenSteps[k].run(l, &it)
		if err == errCorrupt {
			s.processed.Inc()
			s.unlock()
			return nil
		}
		if err != nil {
			s.failures.Inc()
			l.failOnce.Do(func() {
				l.fatalErr = err
				close(l.fatal)
			})
			s.unlock()
			return err
		}
		s.processed.Inc()
	}
	l.steps[len(l.steps)-1].unlock()
	return nil
}

// failed returns the first step error, or nil.
func (l *Listener) failed() error {
	select {
	case <-l.fatal:
		return l.fatalErr
	default:
		return nil
	}
}

// decodeStep decodes the wire frame, stamps provenance, and maintains
// the consume-side counters. Corrupt frames are counted and dropped.
func (l *Listener) decodeStep(it *listenItem) error {
	sreg := l.Registry
	if sreg == nil {
		sreg = schema.DefaultRegistry()
	}
	snap, wireV, lines, err := codec.DecodeWireLines(it.body, sreg)
	if err != nil {
		// A corrupt message must not kill the consumer; drop it.
		l.met.decodeFails.Inc()
		return errCorrupt
	}
	it.snap, it.lines = snap, lines
	l.Trace.Stamp(&it.snap, model.StageBrokerDeliver)
	if l.OnDecoded != nil {
		l.OnDecoded(wireV, len(it.body))
	}
	l.processed.Add(1)
	l.met.snapshots.Inc()
	if it.snap.Time > l.maxSeen {
		l.maxSeen = it.snap.Time
	}
	l.met.drainLag.Set(l.maxSeen - it.snap.Time)
	return nil
}

// archiveStep runs the online monitor and appends the snapshot to the
// central raw store: a v1 text file gets the record lines as they
// arrived, when the decode certified them, after a head encoded from
// the snapshot (which carries the deliver and archive trace stamps).
// An archive failure is fatal: the message must nack and redeliver
// rather than silently lose the snapshot.
func (l *Listener) archiveStep(it *listenItem) error {
	if l.Monitor != nil {
		alerts := l.Monitor.Process(it.snap)
		l.met.alerts.Add(uint64(len(alerts)))
	}
	if l.arch != nil && l.Headers != nil {
		l.Trace.Stamp(&it.snap, model.StageArchive)
		t := l.met.storeSeconds.Start()
		err := l.arch.AppendLines(it.snap.Host, l.Headers(it.snap.Host), it.snap, it.lines)
		t.Stop()
		if err != nil {
			return fmt.Errorf("realtime: archive %s: %w", it.snap.Host, err)
		}
		l.Trace.MarkQueryable(it.snap.Host, it.snap)
	}
	return nil
}

// ingestStep commits the snapshot to the time-series database. The
// Ingester is single-writer by contract, which the step's lock
// enforces.
func (l *Listener) ingestStep(it *listenItem) error {
	if l.Ingest != nil {
		l.Trace.Stamp(&it.snap, model.StageStoreIngest)
		if err := l.Ingest.Ingest(it.snap); err != nil {
			// A cold-store write failure means the point may not be
			// durable: fail the message so the broker redelivers.
			return fmt.Errorf("realtime: store ingest %s: %w", it.snap.Host, err)
		}
		l.Trace.MarkQueryable(it.snap.Host, it.snap)
	}
	return nil
}

// assembleStep is the terminal tap: the live assembler or observer hook.
func (l *Listener) assembleStep(it *listenItem) error {
	if l.OnSnapshot != nil {
		l.OnSnapshot(it.snap)
	}
	return nil
}
