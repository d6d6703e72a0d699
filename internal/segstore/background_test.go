package segstore

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gostats/internal/leakcheck"
)

// TestCompactionSlowPassNoBurst: a pass that blocks for many intervals
// must be followed by at most one immediate pass, then the ticker's
// cadence — never a back-to-back burst of the ticks it missed.
func TestCompactionSlowPassNoBurst(t *testing.T) {
	defer leakcheck.Check(t)()
	const interval = 20 * time.Millisecond
	s, err := Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var passes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	s.startCompaction(interval, func() error {
		if passes.Add(1) == 1 {
			close(started)
			<-release
		}
		return nil
	})
	<-started
	time.Sleep(20 * interval) // the blocked pass misses ~20 ticks
	released := time.Now()
	close(release)
	time.Sleep(5 * interval)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(released)
	after := int(passes.Load()) - 1
	// One pass for the tick held while blocked, one per interval since,
	// and one for the ticker's phase: anything above is a queued burst.
	if limit := 2 + int(elapsed/interval); after > limit {
		t.Fatalf("%d passes in the %v after a slow pass was released, want <= %d (missed ticks replayed as a burst)",
			after, elapsed.Round(time.Millisecond), limit)
	}
}

// TestCompactionCloseWaitsForPass: Close must return only after an
// in-flight pass is released, and no pass may start once Close returns.
func TestCompactionCloseWaitsForPass(t *testing.T) {
	defer leakcheck.Check(t)()
	const interval = 5 * time.Millisecond
	s, err := Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var passes, returned atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	s.startCompaction(interval, func() error {
		if passes.Add(1) == 1 {
			close(started)
			<-release
		}
		returned.Add(1)
		return nil
	})
	<-started
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a compaction pass was still running", err)
	case <-time.After(10 * interval):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	n := passes.Load()
	if got := returned.Load(); got != n {
		t.Fatalf("Close returned with %d of %d passes finished", got, n)
	}
	time.Sleep(10 * interval)
	if got := passes.Load(); got != n {
		t.Fatalf("%d passes started after Close returned", got-n)
	}
}

// TestCompactionFailureCountedLoopContinues: a failing pass is logged,
// counted in gostats_segstore_compaction_failures_total, and does not
// stop the loop.
func TestCompactionFailureCountedLoopContinues(t *testing.T) {
	defer leakcheck.Check(t)()
	var logged atomic.Int32
	opts := testOpts()
	opts.Logf = func(format string, _ ...any) {
		if strings.HasPrefix(format, "segstore: background compaction") {
			logged.Add(1)
		}
	}
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var passes atomic.Int32
	third := make(chan struct{})
	s.startCompaction(time.Millisecond, func() error {
		if passes.Add(1) == 3 {
			close(third)
		}
		return errors.New("disk full")
	})
	<-third
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n := uint64(passes.Load())
	if got := opts.Metrics.Counter("gostats_segstore_compaction_failures_total", "").Value(); got != n {
		t.Fatalf("compaction_failures_total = %d, want %d (one per failed pass)", got, n)
	}
	if got := uint64(logged.Load()); got != n {
		t.Fatalf("%d failures logged, want %d", got, n)
	}
}
