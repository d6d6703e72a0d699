package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gostats/internal/telemetry"
)

// Handler transforms one item. Returning Skip acknowledges the item
// without emitting downstream; any other error triggers the stage's
// failure policy. ctx is the pipeline context — handlers doing
// blocking work should honour it so a fatal teardown can unwind them.
type Handler[In, Out any] func(ctx context.Context, in In) (Out, error)

// Inlet is the submit side of a stage, what an upstream stage or an
// external producer sees.
type Inlet[T any] interface {
	// Submit enqueues the item, blocking while the stage queue is full
	// (backpressure). It fails with ErrStopped once the stage intake is
	// closed or the pipeline has failed, and with ctx's cause if ctx
	// expires while blocked.
	Submit(ctx context.Context, item T) error
	// TrySubmit enqueues without blocking; false means the queue was
	// full or the intake closed (rate-limiting producers drop here).
	TrySubmit(item T) bool
}

// FailureMode says what a stage does with an item its handler failed.
type FailureMode int

const (
	// FatalOnError (the default) fails the whole pipeline: correctness
	// sinks (archive, store ingest) must not silently lose items.
	FatalOnError FailureMode = iota
	// DropOnError dead-letters the item to OnFailure and keeps going:
	// for lossy-by-contract stages (publish falls back to the spool).
	DropOnError
)

// Options configures one stage. Every stage runs one worker, so items
// leave it in the order they were submitted.
type Options[In any] struct {
	// Queue is the bounded intake depth; 0 means 1.
	Queue int
	// Mode picks what happens when the handler fails.
	Mode FailureMode
	// OnFailure observes every abandoned item (dead-letter hook). It
	// also receives items swept out of the queue when a fatal teardown
	// aborts the flush, with ErrStopped as the error.
	OnFailure func(item In, err error)
}

// stageMetrics are one stage's telemetry series.
type stageMetrics struct {
	depth     *telemetry.Gauge
	inflight  *telemetry.Gauge
	processed *telemetry.Counter
	failures  *telemetry.Counter
	drain     *telemetry.Gauge
}

func newStageMetrics(reg *telemetry.Registry, pipeline, stage string) stageMetrics {
	l := []string{"pipeline", pipeline, "stage", stage}
	return stageMetrics{
		depth: reg.Gauge("gostats_pipeline_stage_depth",
			"Items queued at the stage intake (backpressure indicator).", l...),
		inflight: reg.Gauge("gostats_pipeline_stage_inflight",
			"Items currently inside stage handlers.", l...),
		processed: reg.Counter("gostats_pipeline_stage_processed_total",
			"Items the stage handled successfully (including skips).", l...),
		failures: reg.Counter("gostats_pipeline_stage_failures_total",
			"Items the stage abandoned.", l...),
		drain: reg.Gauge("gostats_pipeline_stage_drain_seconds",
			"Seconds the last graceful drain spent flushing this stage.",
			"pipeline", pipeline, "stage", stage),
	}
}

// Stage is one bounded, single-worker step. Build with AddStage/AddSink.
type Stage[In, Out any] struct {
	p    *Pipeline
	name string
	fn   Handler[In, Out]
	opt  Options[In]
	next Inlet[Out]

	queue  chan In
	intake sync.RWMutex // guards closed against in-flight Submits
	closed bool
	wg     sync.WaitGroup
	met    stageMetrics
}

// AddStage registers a stage in flow order (register upstream stages
// first: registration order is the drain order). Free function because
// Go methods cannot introduce type parameters.
func AddStage[In, Out any](p *Pipeline, name string, opt Options[In], fn Handler[In, Out]) *Stage[In, Out] {
	if opt.Queue <= 0 {
		opt.Queue = 1
	}
	s := &Stage[In, Out]{
		p: p, name: name, fn: fn, opt: opt,
		queue: make(chan In, opt.Queue),
		met:   newStageMetrics(p.reg, p.name, name),
	}
	p.mu.Lock()
	p.stages = append(p.stages, s)
	started := p.started
	p.mu.Unlock()
	if started {
		s.start()
	}
	return s
}

// AddSink registers a terminal stage (no downstream emission).
func AddSink[In any](p *Pipeline, name string, opt Options[In], fn func(ctx context.Context, in In) error) *Stage[In, struct{}] {
	return AddStage(p, name, opt, func(ctx context.Context, in In) (struct{}, error) {
		return struct{}{}, fn(ctx, in)
	})
}

// To connects the stage's output to the next stage's intake. Set before
// Start.
func (s *Stage[In, Out]) To(next Inlet[Out]) { s.next = next }

func (s *Stage[In, Out]) nodeName() string { return s.name }

func (s *Stage[In, Out]) start() {
	s.wg.Add(1)
	go s.worker()
}

// Submit implements Inlet. The intake read-lock makes Submit-vs-close
// safe: drain takes the write lock, flips closed, and only then closes
// the channel, so no Submit can send on a closed channel.
func (s *Stage[In, Out]) Submit(ctx context.Context, item In) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.intake.RLock()
	defer s.intake.RUnlock()
	// A failed pipeline's worker has exited; accepting the item would
	// strand it (and its submitter) in the queue until the drain sweep.
	if s.closed || s.p.ctx.Err() != nil {
		return ErrStopped
	}
	select {
	case s.queue <- item:
		s.met.depth.Add(1)
		return nil
	default:
	}
	select {
	case s.queue <- item:
		s.met.depth.Add(1)
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-s.p.ctx.Done():
		return ErrStopped
	}
}

// TrySubmit implements Inlet.
func (s *Stage[In, Out]) TrySubmit(item In) bool {
	s.intake.RLock()
	defer s.intake.RUnlock()
	if s.closed || s.p.ctx.Err() != nil {
		return false
	}
	select {
	case s.queue <- item:
		s.met.depth.Add(1)
		return true
	default:
		return false
	}
}

// Depth reports items currently queued (tests, ops).
func (s *Stage[In, Out]) Depth() int { return int(s.met.depth.Value()) }

// worker drains the queue until it is closed and empty (graceful
// flush) or the pipeline context dies (fatal abort; leftovers are
// swept by drainNode).
func (s *Stage[In, Out]) worker() {
	defer s.wg.Done()
	for {
		// Priority check: once the pipeline is failed, stop pulling work
		// so drainNode's sweep sees the leftovers instead of handlers
		// running against a dead context.
		select {
		case <-s.p.ctx.Done():
			return
		default:
		}
		select {
		case item, ok := <-s.queue:
			if !ok {
				return
			}
			s.met.depth.Add(-1)
			s.handle(item)
		case <-s.p.ctx.Done():
			return
		}
	}
}

// handle runs one item through the handler, then forwards or abandons
// it.
func (s *Stage[In, Out]) handle(item In) {
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	out, err := s.fn(s.p.ctx, item)
	switch {
	case err == nil:
		s.met.processed.Inc()
		if s.next != nil {
			if serr := s.next.Submit(s.p.ctx, out); serr != nil {
				s.abandon(item, fmt.Errorf("downstream refused item: %w", serr))
			}
		}
	case errors.Is(err, Skip):
		s.met.processed.Inc()
	default:
		s.abandon(item, err)
	}
}

// abandon dead-letters one item per the failure mode.
func (s *Stage[In, Out]) abandon(item In, err error) {
	s.met.failures.Inc()
	if s.opt.Mode == FatalOnError {
		s.p.fail(fmt.Errorf("pipeline %s: stage %s: %w", s.p.name, s.name, err))
	}
	if s.opt.OnFailure != nil {
		s.opt.OnFailure(item, err)
	}
}

// drainNode closes the intake, joins the worker, and sweeps whatever
// a fatal abort left behind into OnFailure so no item vanishes without
// a trace.
func (s *Stage[In, Out]) drainNode(ctx context.Context) {
	t0 := time.Now()
	s.intake.Lock()
	already := s.closed
	s.closed = true
	s.intake.Unlock()
	if !already {
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Flush budget exhausted: fail the pipeline so blocked handlers
		// and submits unwind, then join the worker for real.
		s.p.fail(fmt.Errorf("pipeline %s: drain of stage %s: %w",
			s.p.name, s.name, context.Cause(ctx)))
		<-done
	}
	for item := range s.queue {
		s.met.depth.Add(-1)
		s.met.failures.Inc()
		if s.opt.OnFailure != nil {
			s.opt.OnFailure(item, ErrStopped)
		}
	}
	s.met.drain.Set(time.Since(t0).Seconds())
}
