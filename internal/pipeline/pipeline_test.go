package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gostats/internal/leakcheck"
	"gostats/internal/telemetry"
)

// init warms up the runtime's global signal-dispatch goroutine (started
// lazily by the first signal.Notify and never stopped) so it lands in
// every leakcheck baseline instead of reading as a leak.
func init() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	signal.Stop(ch)
}

// TestDrainFlushesEverything: the sink must see every item a source
// emitted before Drain, in submit order — graceful drain flushes
// in-flight items, never drops them.
func TestDrainFlushesEverything(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := telemetry.NewRegistry()
	p := New("t", reg)

	var mu sync.Mutex
	var got []int
	// Registration order is drain order: upstream stage first.
	double := AddStage(p, "double", Options[int]{Queue: 4}, func(ctx context.Context, v int) (int, error) {
		return 2 * v, nil
	})
	sink := AddSink(p, "sink", Options[int]{Queue: 4}, func(ctx context.Context, v int) error {
		time.Sleep(time.Millisecond) // keep the queue non-trivially full
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
		return nil
	})
	double.To(sink)

	const n = 100
	emitted := make(chan struct{})
	p.AddSource("gen", func(ctx context.Context) error {
		for i := 0; i < n; i++ {
			if err := double.Submit(ctx, i); err != nil {
				return err
			}
		}
		close(emitted)
		<-ctx.Done()
		return nil
	})
	p.Start()
	<-emitted

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(got) != n {
		t.Fatalf("sink saw %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("item %d = %d, want %d (order not preserved)", i, v, 2*i)
		}
	}
	if v := reg.Counter("gostats_pipeline_stage_processed_total", "",
		"pipeline", "t", "stage", "sink").Value(); v != n {
		t.Fatalf("sink processed_total = %d, want %d", v, n)
	}
	if d := reg.Gauge("gostats_pipeline_stage_drain_seconds", "",
		"pipeline", "t", "stage", "sink").Value(); d <= 0 {
		t.Fatalf("sink drain_seconds = %v, want > 0", d)
	}
}

// TestBackpressurePropagates: a slow sink with bounded queues must
// block the producer — total in flight can never exceed the queue
// bounds plus the workers.
func TestBackpressurePropagates(t *testing.T) {
	defer leakcheck.Check(t)()
	p := New("bp", telemetry.NewRegistry())

	release := make(chan struct{})
	var entered atomic.Int64
	sink := AddSink(p, "slow", Options[int]{Queue: 2}, func(ctx context.Context, v int) error {
		entered.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	})
	p.Start()

	var submitted atomic.Int64
	go func() {
		for i := 0; ; i++ {
			if err := sink.Submit(context.Background(), i); err != nil {
				return
			}
			submitted.Add(1)
		}
	}()

	time.Sleep(100 * time.Millisecond)
	// 1 worker in the handler + queue cap 2 + at most 1 blocked submit
	// admitted by the select race = 3 accepted; anything near "all"
	// means the bound is not enforced.
	if s := submitted.Load(); s > 4 {
		t.Fatalf("submitted %d items into a queue of 2 with a blocked sink", s)
	}
	if e := entered.Load(); e != 1 {
		t.Fatalf("sink admitted %d items concurrently, want 1", e)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestErrorPolicyDropDeadLetters: DropOnError must hand the failed
// item to OnFailure and keep the pipeline alive for later items.
func TestErrorPolicyDropDeadLetters(t *testing.T) {
	defer leakcheck.Check(t)()
	p := New("drop", telemetry.NewRegistry())

	var mu sync.Mutex
	var dead []int
	var okItems []int
	sink := AddSink(p, "lossy", Options[int]{
		Mode: DropOnError,
		OnFailure: func(v int, err error) {
			mu.Lock()
			dead = append(dead, v)
			mu.Unlock()
		},
	}, func(ctx context.Context, v int) error {
		if v%2 == 1 {
			return errors.New("odd items fail")
		}
		mu.Lock()
		okItems = append(okItems, v)
		mu.Unlock()
		return nil
	})
	p.Start()
	for i := 0; i < 6; i++ {
		if err := sink.Submit(context.Background(), i); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain after drops should be clean, got %v", err)
	}
	if want := []int{1, 3, 5}; fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Fatalf("dead-lettered %v, want %v", dead, want)
	}
	if want := []int{0, 2, 4}; fmt.Sprint(okItems) != fmt.Sprint(want) {
		t.Fatalf("processed %v, want %v", okItems, want)
	}
}

// TestErrorPolicyFatalPoisonsPipeline: the default mode must fail the
// whole pipeline, refuse later submits, and surface the error from
// Drain.
func TestErrorPolicyFatalPoisonsPipeline(t *testing.T) {
	defer leakcheck.Check(t)()
	p := New("fatal", telemetry.NewRegistry())

	boom := errors.New("disk on fire")
	sink := AddSink(p, "strict", Options[int]{}, func(ctx context.Context, v int) error {
		return boom
	})
	p.Start()
	if err := sink.Submit(context.Background(), 1); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-p.Fatal()
	if err := p.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want wrapped %v", err, boom)
	}
	// The pipeline context is dead; a blocked submit must not hang.
	for i := 0; i < 10; i++ {
		if err := sink.Submit(context.Background(), i); errors.Is(err, ErrStopped) {
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, boom) {
		t.Fatalf("Drain = %v, want %v", err, boom)
	}
}

// TestSubmitRefusedAfterFatal: once the pipeline has failed its workers
// are gone, so Submit and TrySubmit must refuse new items immediately
// instead of parking them in a queue nothing will drain until Close.
func TestSubmitRefusedAfterFatal(t *testing.T) {
	defer leakcheck.Check(t)()
	p := New("refuse", telemetry.NewRegistry())
	boom := errors.New("sink exploded")
	sink := AddSink(p, "bad", Options[int]{Queue: 4}, func(ctx context.Context, v int) error {
		return boom
	})
	p.Start()
	if err := sink.Submit(context.Background(), 1); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-p.Context().Done() // fail() has cancelled; queues still have room
	if err := sink.Submit(context.Background(), 2); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after fatal = %v, want ErrStopped", err)
	}
	if sink.TrySubmit(3) {
		t.Fatal("TrySubmit accepted an item into a failed pipeline")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p.Drain(ctx)
}

// TestConcurrentDrainWaits: a second Drain caller must wait for the
// in-progress drain to finish flushing before returning, or callers
// race ahead to teardown while stages are still writing.
func TestConcurrentDrainWaits(t *testing.T) {
	defer leakcheck.Check(t)()
	p := New("cdrain", telemetry.NewRegistry())

	var flushed atomic.Int64
	sink := AddSink(p, "slow", Options[int]{Queue: 16}, func(ctx context.Context, v int) error {
		time.Sleep(5 * time.Millisecond)
		flushed.Add(1)
		return nil
	})
	p.Start()
	const n = 10
	for i := 0; i < n; i++ {
		if err := sink.Submit(context.Background(), i); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
			if got := flushed.Load(); got != n {
				t.Errorf("Drain returned with %d/%d items flushed", got, n)
			}
		}()
	}
	wg.Wait()
}

// TestSkipAcknowledgesWithoutEmitting: Skip consumes the item without
// feeding downstream and without counting as a failure.
func TestSkipAcknowledgesWithoutEmitting(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := telemetry.NewRegistry()
	p := New("skip", reg)

	var passed atomic.Int64
	filter := AddStage(p, "filter", Options[int]{}, func(ctx context.Context, v int) (int, error) {
		if v%2 == 1 {
			return 0, Skip
		}
		return v, nil
	})
	sink := AddSink(p, "count", Options[int]{}, func(ctx context.Context, v int) error {
		passed.Add(1)
		return nil
	})
	filter.To(sink)
	p.Start()
	for i := 0; i < 10; i++ {
		if err := filter.Submit(context.Background(), i); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := passed.Load(); got != 5 {
		t.Fatalf("sink saw %d items, want 5", got)
	}
	if f := reg.Counter("gostats_pipeline_stage_failures_total", "",
		"pipeline", "skip", "stage", "filter").Value(); f != 0 {
		t.Fatalf("filter failures_total = %d, want 0", f)
	}
}

// TestTrySubmitSheds: TrySubmit must refuse instead of blocking when
// the queue is full — the rate-limiting producer contract.
func TestTrySubmitSheds(t *testing.T) {
	defer leakcheck.Check(t)()
	p := New("shed", telemetry.NewRegistry())

	release := make(chan struct{})
	sink := AddSink(p, "busy", Options[int]{Queue: 1}, func(ctx context.Context, v int) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	})
	p.Start()
	if !sink.TrySubmit(1) {
		t.Fatal("first TrySubmit should land in the empty queue")
	}
	// Wait for the worker to pull it and block, then fill the queue.
	deadline := time.Now().Add(5 * time.Second)
	for sink.Depth() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !sink.TrySubmit(2) {
		t.Fatal("second TrySubmit should fill the queue")
	}
	if sink.TrySubmit(3) {
		t.Fatal("third TrySubmit should shed: queue full, worker busy")
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDrainTimeoutSweepsLeftovers: when the flush budget expires, the
// drain must fail the pipeline, unwind the stuck handler, and dead-
// letter the queued items through OnFailure with ErrStopped.
func TestDrainTimeoutSweepsLeftovers(t *testing.T) {
	defer leakcheck.Check(t)()
	p := New("stuck", telemetry.NewRegistry())

	var mu sync.Mutex
	var swept []int
	sink := AddSink(p, "wedge", Options[int]{
		Queue: 8,
		OnFailure: func(v int, err error) {
			if !errors.Is(err, ErrStopped) {
				t.Errorf("sweep error = %v, want ErrStopped", err)
			}
			mu.Lock()
			swept = append(swept, v)
			mu.Unlock()
		},
	}, func(ctx context.Context, v int) error {
		<-ctx.Done() // wedged until the pipeline is failed
		return nil
	})
	p.Start()
	for i := 0; i < 5; i++ {
		if err := sink.Submit(context.Background(), i); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); err == nil {
		t.Fatal("drain of a wedged stage should report failure")
	}
	mu.Lock()
	n := len(swept)
	mu.Unlock()
	if n != 4 { // item 0 is wedged in the handler; 1..4 swept
		t.Fatalf("swept %d items, want 4", n)
	}
}

// TestSourceErrorFailsPipeline: a source failing before cancellation
// must poison the pipeline with its error.
func TestSourceErrorFailsPipeline(t *testing.T) {
	defer leakcheck.Check(t)()
	p := New("srcerr", telemetry.NewRegistry())
	boom := errors.New("socket vanished")
	p.AddSource("reader", func(ctx context.Context) error { return boom })
	p.Start()
	<-p.Fatal()
	if err := p.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want %v", err, boom)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p.Drain(ctx)
}

// TestDaemonBodyExit: Daemon.Run returns the body's error when the body
// finishes without a signal.
func TestDaemonBodyExit(t *testing.T) {
	defer leakcheck.Check(t)()
	want := errors.New("broker hung up")
	sig, err := Daemon{
		Body: func(ctx context.Context) error { return want },
	}.Run()
	if sig != nil || !errors.Is(err, want) {
		t.Fatalf("Run = (%v, %v), want (nil, %v)", sig, err, want)
	}
}

// TestDaemonSignalStopsBody: a SIGTERM must invoke Stop, cancel the
// body's context, and report the signal.
func TestDaemonSignalStopsBody(t *testing.T) {
	defer leakcheck.Check(t)()
	var stopped atomic.Bool
	running := make(chan struct{})
	go func() {
		<-running
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
	}()
	sig, err := Daemon{
		Body: func(ctx context.Context) error {
			close(running)
			<-ctx.Done()
			return nil
		},
		Stop: func(s os.Signal) { stopped.Store(true) },
	}.Run()
	if err != nil {
		t.Fatalf("Run err = %v", err)
	}
	if sig != syscall.SIGTERM {
		t.Fatalf("signal = %v, want SIGTERM", sig)
	}
	if !stopped.Load() {
		t.Fatal("Stop hook did not run")
	}
}

// TestDaemonSecondSignalAbandonsDrain: if the drain wedges after the
// first signal, a second signal is the operator's escape hatch — Run
// must stop waiting on the body and return an error instead of forcing
// a SIGKILL.
func TestDaemonSecondSignalAbandonsDrain(t *testing.T) {
	defer leakcheck.Check(t)()
	wedged := make(chan struct{})
	running := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		<-running
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		<-stopped // first signal consumed; Run is now waiting on the body
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
	}()
	sig, err := Daemon{
		Body: func(ctx context.Context) error {
			close(running)
			<-wedged // ignores ctx — a drain that hangs forever
			return nil
		},
		Stop: func(os.Signal) { close(stopped) },
	}.Run()
	if err == nil {
		t.Fatal("Run returned nil; a second signal during a wedged drain must error")
	}
	if sig != syscall.SIGTERM {
		t.Fatalf("signal = %v, want SIGTERM", sig)
	}
	close(wedged) // let the body goroutine exit (bodyDone is buffered)
}
