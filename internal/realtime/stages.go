// The listener's staged runtime: consume → decode → archive → ingest →
// assemble as an internal/pipeline graph. Every stage runs one worker —
// the monitor, archiver, ingester, and assembler all require the
// per-host (here: global) arrival order the broker delivers — so the
// pipeline buys overlap between stages, not reordering within one.
//
// At-least-once acking is preserved by construction: each wire message
// carries a completion channel, resolved exactly once — by the assemble
// sink on success, by a stage's dead-letter hook on failure, or by the
// decode stage for corrupt frames — and the consumer acks only after
// the completion resolves nil.
package realtime

import (
	"context"
	"fmt"
	"time"

	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/pipeline"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
)

// listenItem is one wire message moving through the listend pipeline.
type listenItem struct {
	body  []byte
	snap  model.Snapshot
	lines []byte // the record lines the decode certified, inside body
	wireV codec.Version
	// done resolves exactly once with the item's terminal fate; buffered
	// so the resolving stage never blocks on a departed submitter.
	done chan error
}

// drainBudget bounds how long Close waits for queued snapshots to flush
// through the archive and ingest stages before abandoning them.
const drainBudget = 60 * time.Second

// buildPipeline wires the listener's four stages. Called once from
// init; callers submit through submitWait.
func (l *Listener) buildPipeline(reg *telemetry.Registry) {
	p := pipeline.New("listend", reg)
	opts := func() pipeline.Options[*listenItem] {
		return pipeline.Options[*listenItem]{
			Queue: 64,
			// Dead-lettered items resolve their completion with the
			// failure so the submitter nacks; the stage's FatalOnError
			// default also poisons the pipeline, matching the old
			// "sink failure kills the consumer loop" contract.
			OnFailure: func(it *listenItem, err error) { it.done <- err },
		}
	}
	decode := pipeline.AddStage(p, "decode", opts(), l.decodeStage)
	archive := pipeline.AddStage(p, "archive", opts(), l.archiveStage)
	ingest := pipeline.AddStage(p, "ingest", opts(), l.ingestStage)
	assemble := pipeline.AddSink(p, "assemble", opts(), l.assembleStage)
	decode.To(archive)
	archive.To(ingest)
	ingest.To(assemble)
	l.pipe = p
	l.intake = decode
	p.Start()
}

// submitWait pushes one wire message into the pipeline and blocks until
// it is fully processed (or dead-lettered). A nil return means every
// configured sink accepted the snapshot and the message may be acked.
//
// The wait also watches the pipeline context: after a fatal stage error
// the workers exit and queued items resolve only via Drain's sweep, so
// blocking on done alone would strand the submitter (and, in fabric
// mode, deadlock shutdown — g.Stop joins the consumer goroutines before
// l.Close runs the sweep). it.done is buffered, so the sweep's later
// send never blocks on a departed submitter.
func (l *Listener) submitWait(body []byte) error {
	it := &listenItem{body: body, done: make(chan error, 1)}
	if err := l.intake.Submit(l.pipe.Context(), it); err != nil {
		return err
	}
	select {
	case err := <-it.done:
		return err
	case <-l.pipe.Context().Done():
		// Prefer the item's own fate if it resolved concurrently with
		// the cancel: an already-processed message should still ack.
		select {
		case err := <-it.done:
			return err
		default:
		}
		if err := l.pipe.Err(); err != nil {
			return err
		}
		return pipeline.ErrStopped
	}
}

// drainPipeline flushes and stops the staged runtime; idempotent.
func (l *Listener) drainPipeline() {
	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	l.pipe.Drain(ctx)
}

// decodeStage decodes the wire frame, stamps provenance, and maintains
// the consume-side counters. Corrupt frames are counted, resolved nil
// (so the consumer acks them away), and skipped.
func (l *Listener) decodeStage(ctx context.Context, it *listenItem) (*listenItem, error) {
	sreg := l.Registry
	if sreg == nil {
		sreg = schema.DefaultRegistry()
	}
	snap, wireV, lines, err := codec.DecodeWireLines(it.body, sreg)
	if err != nil {
		// A corrupt message must not kill the consumer; drop it.
		l.met.decodeFails.Inc()
		it.done <- nil
		return nil, pipeline.Skip
	}
	it.snap, it.lines, it.wireV = snap, lines, wireV
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
	return it, nil
}

// archiveStage runs the online monitor and appends the snapshot to the
// central raw store: a v1 text file gets the record lines as they
// arrived, when the decode certified them, after a head encoded from
// the snapshot (which carries the deliver and archive trace stamps).
// An archive failure is fatal: the message must nack and redeliver
// rather than silently lose the snapshot.
func (l *Listener) archiveStage(ctx context.Context, it *listenItem) (*listenItem, error) {
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
			return nil, fmt.Errorf("realtime: archive %s: %w", it.snap.Host, err)
		}
		l.Trace.MarkQueryable(it.snap.Host, it.snap)
	}
	return it, nil
}

// ingestStage commits the snapshot to the time-series database. The
// Ingester is single-writer by contract, which this single-worker stage
// now enforces structurally.
func (l *Listener) ingestStage(ctx context.Context, it *listenItem) (*listenItem, error) {
	if l.Ingest != nil {
		l.Trace.Stamp(&it.snap, model.StageStoreIngest)
		if err := l.Ingest.Ingest(it.snap); err != nil {
			// A cold-store write failure means the point may not be
			// durable: fail the message so the broker redelivers.
			return nil, fmt.Errorf("realtime: store ingest %s: %w", it.snap.Host, err)
		}
		l.Trace.MarkQueryable(it.snap.Host, it.snap)
	}
	return it, nil
}

// assembleStage is the terminal tap — the live assembler / observer
// hook — and resolves the message's completion so the consumer acks.
func (l *Listener) assembleStage(ctx context.Context, it *listenItem) error {
	if l.OnSnapshot != nil {
		l.OnSnapshot(it.snap)
	}
	it.done <- nil
	return nil
}
