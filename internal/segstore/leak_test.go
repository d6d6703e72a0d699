package segstore

import (
	"testing"
	"time"

	"gostats/internal/leakcheck"
	"gostats/internal/telemetry"
)

// TestStartBackgroundCloseJoins pins the goroutine-hygiene contract for
// background compaction: Close must stop the ticker and join the
// compaction goroutine before sealing.
func TestStartBackgroundCloseJoins(t *testing.T) {
	defer leakcheck.Check(t)()
	s, err := Open(t.TempDir(), Options{Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s.StartBackground(time.Millisecond)
	time.Sleep(20 * time.Millisecond) // let a few compaction ticks fire
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Idempotent: a second Close with the loop gone must not hang.
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
