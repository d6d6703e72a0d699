package realtime

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gostats/internal/codec"
	"gostats/internal/leakcheck"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/schema"
	"gostats/internal/telemetry"
	"gostats/internal/trace"
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

// TestListenerArchiveMatchesReencoding feeds a traced listener v1 wire
// messages whose record lines it certifies, v1 messages it must not
// (doubled spaces, a mark after the records, a foreign schema block)
// and v2 messages, into a v1 and a v2 store. Every archived file must
// be byte for byte what re-encoding the snapshots the listener handled
// writes — those carry its deliver and archive stamps, so the archived
// block heads must too.
func TestListenerArchiveMatchesReencoding(t *testing.T) {
	reg := schema.DefaultRegistry()
	foreign, err := schema.NewRegistry(reg.Get(schema.ClassMDC), reg.Get(schema.ClassCPU))
	if err != nil {
		t.Fatal(err)
	}
	header := func(host string) rawfile.Header {
		return rawfile.Header{Hostname: host, Arch: "sandybridge", Registry: reg}
	}
	var bodies [][]byte
	certified := 0
	for i := 0; i < 24; i++ {
		s := snapWithMDC(43200*float64(i+1)+0.25, fmt.Sprintf("c%d", i%3), uint64(1000*i*i), "7", fmt.Sprint(i))
		s.Records = append(s.Records,
			model.Record{Class: schema.ClassCPU, Instance: "0", Values: []uint64{uint64(i), 0, 3, 4, 5, 6, 7}},
			model.Record{Class: schema.ClassCPU, Instance: "has space", Values: make([]uint64, 7)})
		s.Trace = []model.StageStamp{{Stage: model.StageCollect, UnixNs: int64(i) * 1e9}}
		if i%4 == 0 {
			s.Mark = fmt.Sprint("begin ", i)
		}
		var b []byte
		switch i % 5 {
		case 0, 1:
			b, err = codec.EncodeWire(s, reg, codec.V1Text)
		case 2:
			b, err = codec.EncodeWire(s, reg, codec.V1Text)
			b = bytes.ReplaceAll(b, []byte("\ncpu "), []byte("\ncpu  "))
		case 3:
			b, err = codec.EncodeWire(s, foreign, codec.V1Text)
			if i%2 == 0 {
				b = append(b, "% late mark\n"...)
			}
		case 4:
			b, err = codec.EncodeWire(s, reg, codec.V2Binary)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, _, lines, err := codec.DecodeWireLines(b, reg); err != nil {
			t.Fatalf("message %d: %v", i, err)
		} else if lines != nil {
			certified++
		}
		bodies = append(bodies, b)
	}
	if certified == 0 || certified == len(bodies) {
		t.Fatalf("%d of %d messages certified; the test needs both kinds", certified, len(bodies))
	}

	for _, v := range []codec.Version{codec.V1Text, codec.V2Binary} {
		t.Run(v.String(), func(t *testing.T) {
			newStore := func() *rawfile.Store {
				st, err := rawfile.NewStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				st.SetCodec(v)
				return st
			}
			store := newStore()
			var handled []model.Snapshot
			l := &Listener{
				Store:      store,
				Headers:    header,
				Registry:   reg,
				Metrics:    telemetry.NewRegistry(),
				Trace:      trace.NewRecorder(telemetry.NewRegistry()),
				OnSnapshot: func(s model.Snapshot) { handled = append(handled, s) },
			}
			for i, b := range bodies {
				if err := l.HandleBody(b); err != nil {
					t.Fatalf("message %d: %v", i, err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if len(handled) != len(bodies) {
				t.Fatalf("handled %d of %d messages", len(handled), len(bodies))
			}

			ref := newStore()
			arch := rawfile.NewArchiver(ref, 0)
			for _, s := range handled {
				if _, ok := s.StageTime(model.StageArchive); !ok {
					t.Fatalf("snapshot %s@%g carries no archive stamp", s.Host, s.Time)
				}
				if err := arch.Append(s.Host, header(s.Host), s); err != nil {
					t.Fatal(err)
				}
			}
			if err := arch.Close(); err != nil {
				t.Fatal(err)
			}
			files, err := filepath.Glob(filepath.Join(ref.Root(), "*", "*.raw"))
			if err != nil || len(files) < 6 {
				t.Fatalf("reference store holds %d files (%v)", len(files), err)
			}
			if got, _ := filepath.Glob(filepath.Join(store.Root(), "*", "*.raw")); len(got) != len(files) {
				t.Fatalf("listener archived %d files, re-encoding %d", len(got), len(files))
			}
			for _, f := range files {
				rel, _ := filepath.Rel(ref.Root(), f)
				want, _ := os.ReadFile(f)
				got, err := os.ReadFile(filepath.Join(store.Root(), rel))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s differs from re-encoding:\n%q\nwant\n%q", rel, got, want)
				}
			}
		})
	}
}
