package realtime

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gostats/internal/codec"
	"gostats/internal/leakcheck"
	"gostats/internal/rawfile"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
)

// TestHandleBodyUnblocksOnFatalSinkError pins the fabric-mode shutdown
// contract: when a sink fails fatally, every concurrent HandleBody call
// must return an error instead of blocking on its completion channel.
// After a fatal error the stage workers exit and queued items are only
// resolved by Close's dead-letter sweep — but the fabric group joins
// its consumer goroutines (which sit inside HandleBody) before Close
// ever runs, so a HandleBody that waits on the completion alone
// deadlocks listend forever.
func TestHandleBodyUnblocksOnFatalSinkError(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	store, err := rawfile.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Plant regular files where the archiver needs host directories, so
	// every archive append fails and poisons the pipeline.
	const hosts = 8
	for i := 0; i < hosts; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("h%d", i)), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := &Listener{
		Store:   store,
		Headers: func(string) rawfile.Header { return rawfile.Header{} },
		Metrics: telemetry.NewRegistry(),
	}

	var wg sync.WaitGroup
	errs := make([]error, hosts)
	for i := 0; i < hosts; i++ {
		b, err := codec.EncodeWire(snapWithMDC(600, fmt.Sprintf("h%d", i), 10, "1"), schema.DefaultRegistry(), codec.V1Text)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, b []byte) {
			defer wg.Done()
			errs[i] = l.HandleBody(b)
		}(i, b)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("HandleBody callers still blocked after a fatal sink error")
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("HandleBody %d returned nil; a failed archive must nack", i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
