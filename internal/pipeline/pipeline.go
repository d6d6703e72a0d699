// Package pipeline is the typed stage runtime the daemons run on: a
// pipeline is a set of sources feeding a chain of stages, each stage a
// bounded queue drained by one worker goroutine. The framework owns
// what every daemon used to hand-roll — queue bounds and backpressure,
// FIFO order through every stage (which the conservation audit depends
// on), a per-stage dead-letter policy, and a graceful drain that stops
// the graph in topological order: sources first, then each stage in
// registration order, flushing in-flight items rather than dropping
// them.
//
// Every stage exports depth/inflight/processed/failure gauges and a
// drain-duration gauge on the telemetry registry, so backpressure is
// visible in /metrics instead of guessed at.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gostats/internal/telemetry"
)

// Skip is returned by a stage handler to acknowledge an item without
// emitting anything downstream (e.g. a decoder dropping a corrupt
// frame). The item counts as processed, not failed.
var Skip = errors.New("pipeline: skip item")

// ErrStopped is returned by Submit once the pipeline is draining or
// has failed; the item was not accepted.
var ErrStopped = errors.New("pipeline: stopped")

// node is one schedulable element of the graph — a source or a stage.
type node interface {
	nodeName() string
	start()
	// drainNode stops the node and joins its workers. ctx bounds how
	// long a graceful flush may take; past the deadline the pipeline is
	// failed so blocked handlers unwind.
	drainNode(ctx context.Context)
}

// Pipeline owns a graph of sources and stages and drains them in
// topological order. Stages must be registered in flow order (upstream
// before downstream): registration order IS the drain order.
type Pipeline struct {
	name string
	reg  *telemetry.Registry

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	sources   []*source
	stages    []node
	started   bool
	drainDone chan struct{} // non-nil once a drain started; closed when it finishes
	fatalErr  error
	fatalCh   chan struct{}
}

// New builds an empty pipeline. Telemetry lands in reg; nil uses
// telemetry.Default().
func New(name string, reg *telemetry.Registry) *Pipeline {
	if reg == nil {
		reg = telemetry.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Pipeline{
		name:    name,
		reg:     reg,
		ctx:     ctx,
		cancel:  cancel,
		fatalCh: make(chan struct{}),
	}
}

// Name returns the pipeline's name (the metric label value).
func (p *Pipeline) Name() string { return p.name }

// Context is cancelled when the pipeline fails fatally or finishes
// draining. Handlers and sources receive it; submitters may select on
// it to avoid blocking into a dead pipeline.
func (p *Pipeline) Context() context.Context { return p.ctx }

// Fatal is closed on the first fatal stage or source error. Daemons
// select on it alongside their signal channel.
func (p *Pipeline) Fatal() <-chan struct{} { return p.fatalCh }

// Err returns the first fatal error, or nil.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fatalErr
}

// fail records the first fatal error and cancels the pipeline context
// so every source and blocked handler unwinds. Later calls are no-ops.
func (p *Pipeline) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.fatalErr == nil {
		p.fatalErr = err
		close(p.fatalCh)
	}
	p.mu.Unlock()
	p.cancel()
}

// source is a producer goroutine: it runs until its context is
// cancelled (graceful drain) or it returns on its own.
type source struct {
	p      *Pipeline
	name   string
	run    func(context.Context) error
	sctx   context.Context
	cancel context.CancelFunc
	done   chan struct{}
	drain  *telemetry.Gauge
}

func (s *source) nodeName() string { return s.name }

func (s *source) start() {
	go func() {
		defer close(s.done)
		err := s.run(s.sctx)
		if err != nil && s.sctx.Err() == nil {
			s.p.fail(fmt.Errorf("pipeline %s: source %s: %w", s.p.name, s.name, err))
		}
	}()
}

func (s *source) drainNode(ctx context.Context) {
	s.cancel()
	select {
	case <-s.done:
	case <-ctx.Done():
		// The source ignored its cancel within the drain budget: fail
		// the pipeline so anything it is blocked on unwinds, then give
		// it one more chance to exit before we abandon it.
		s.p.fail(fmt.Errorf("pipeline %s: source %s ignored drain: %w",
			s.p.name, s.name, context.Cause(ctx)))
		select {
		case <-s.done:
		case <-time.After(time.Second):
		}
	}
}

// AddSource registers a producer. run must return promptly once ctx is
// cancelled; a non-nil error returned before cancellation fails the
// pipeline. Sources are cancelled and joined first during Drain, before
// any stage queue is closed, so everything they submitted flushes
// through.
func (p *Pipeline) AddSource(name string, run func(ctx context.Context) error) {
	sctx, cancel := context.WithCancel(p.ctx)
	s := &source{
		p: p, name: name, run: run,
		sctx: sctx, cancel: cancel,
		done:  make(chan struct{}),
		drain: p.stageDrainGauge(name),
	}
	p.mu.Lock()
	p.sources = append(p.sources, s)
	started := p.started
	p.mu.Unlock()
	if started {
		s.start()
	}
}

// Start launches every registered source and stage worker.
func (p *Pipeline) Start() {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	sources := append([]*source(nil), p.sources...)
	stages := append([]node(nil), p.stages...)
	p.mu.Unlock()
	for _, st := range stages {
		st.start()
	}
	for _, s := range sources {
		s.start()
	}
}

// Drain shuts the pipeline down in topological order: sources are
// cancelled and joined first, then each stage (in registration order)
// has its intake closed and its worker joined, flushing queued items
// downstream before the next stage closes. ctx bounds the whole drain;
// when it expires the pipeline is failed and remaining items are dead-
// lettered through each stage's OnFailure hook. Drain is idempotent —
// concurrent and repeat callers wait for the first drain to finish
// rather than returning while stages are still flushing — and returns
// the pipeline's first fatal error, nil on a clean flush.
func (p *Pipeline) Drain(ctx context.Context) error {
	p.mu.Lock()
	if p.drainDone != nil {
		done := p.drainDone
		p.mu.Unlock()
		<-done
		return p.Err()
	}
	done := make(chan struct{})
	p.drainDone = done
	sources := append([]*source(nil), p.sources...)
	stages := append([]node(nil), p.stages...)
	p.mu.Unlock()
	defer close(done)

	for _, s := range sources {
		t0 := time.Now()
		s.drainNode(ctx)
		s.drain.Set(time.Since(t0).Seconds())
	}
	for _, st := range stages {
		st.drainNode(ctx)
	}
	p.cancel()
	return p.Err()
}

// stageDrainGauge returns the drain-duration gauge for one node.
func (p *Pipeline) stageDrainGauge(stage string) *telemetry.Gauge {
	return p.reg.Gauge("gostats_pipeline_stage_drain_seconds",
		"Seconds the last graceful drain spent flushing this stage.",
		"pipeline", p.name, "stage", stage)
}
