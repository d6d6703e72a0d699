package daemon

import (
	"context"
	"errors"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"testing"

	"gostats/internal/leakcheck"
)

// init warms up the runtime's global signal-dispatch goroutine (started
// lazily by the first signal.Notify and never stopped) so it lands in
// every leakcheck baseline instead of reading as a leak.
func init() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	signal.Stop(ch)
}

// TestDaemonBodyExit: Run returns the body's error when the body
// finishes without a signal.
func TestDaemonBodyExit(t *testing.T) {
	defer leakcheck.Check(t)()
	want := errors.New("broker hung up")
	sig, err := Run(func(ctx context.Context) error { return want }, nil)
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
	sig, err := Run(func(ctx context.Context) error {
		close(running)
		<-ctx.Done()
		return nil
	}, func(s os.Signal) { stopped.Store(true) })
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
	sig, err := Run(func(ctx context.Context) error {
		close(running)
		<-wedged // ignores ctx — a drain that hangs forever
		return nil
	}, func(os.Signal) { close(stopped) })
	if err == nil {
		t.Fatal("Run returned nil; a second signal during a wedged drain must error")
	}
	if sig != syscall.SIGTERM {
		t.Fatalf("signal = %v, want SIGTERM", sig)
	}
	close(wedged) // let the body goroutine exit (bodyDone is buffered)
}
