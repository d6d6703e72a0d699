package realtime

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// TestHandleBodyUnblocksOnFatalSinkError pins the fatal and close
// contract: when a sink fails, every concurrent HandleBody call must
// return that error rather than block (the fabric group joins its
// consumer goroutines, which sit inside HandleBody, before Close runs),
// Fatal closes and FatalErr reports it, a later message runs no step,
// and a message after Close is refused.
func TestHandleBodyUnblocksOnFatalSinkError(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	store, err := rawfile.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Plant regular files where the archiver needs host directories, so
	// every archive append fails.
	const hosts = 8
	for i := 0; i < hosts; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("h%d", i)), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ing := &orderIngest{}
	tapped := 0
	reg := telemetry.NewRegistry()
	l := &Listener{
		Store:      store,
		Headers:    func(string) rawfile.Header { return rawfile.Header{} },
		Metrics:    reg,
		Ingest:     ing,
		OnSnapshot: func(model.Snapshot) { tapped++ },
	}
	encode := func(host string) []byte {
		b, err := codec.EncodeWire(snapWithMDC(600, host, 10, "1"), schema.DefaultRegistry(), codec.V1Text)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var wg sync.WaitGroup
	errs := make([]error, hosts)
	for i := 0; i < hosts; i++ {
		b := encode(fmt.Sprintf("h%d", i))
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
	select {
	case <-l.Fatal():
	default:
		t.Fatal("Fatal not closed after an archive failure")
	}
	fatal := l.FatalErr()
	if fatal == nil {
		t.Fatal("FatalErr nil after an archive failure")
	}
	for i, err := range errs {
		if err != fatal {
			t.Errorf("HandleBody %d = %v, want the first failure %v", i, err, fatal)
		}
	}
	vals := telemetry.ParseExposition(reg.Exposition())
	if got := vals[`gostats_pipeline_stage_failures_total{pipeline="listend",stage="archive"}`]; got != 1 {
		t.Errorf("archive failures = %g, want 1: the first failure stops every later step", got)
	}

	// A message for a host the archive could take runs no step now.
	if err := l.HandleBody(encode("ok")); err != fatal {
		t.Errorf("HandleBody after the failure = %v, want %v", err, fatal)
	}
	if tapped != 0 || len(ing.seen) != 0 {
		t.Errorf("after the failure: %d snapshots tapped, %d ingested", tapped, len(ing.seen))
	}
	if _, err := os.Stat(filepath.Join(dir, "ok")); !os.IsNotExist(err) {
		t.Errorf("after the failure the archive wrote host ok (stat: %v)", err)
	}

	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.HandleBody(encode("ok")); !errors.Is(err, ErrClosed) {
		t.Errorf("HandleBody after Close = %v, want ErrClosed", err)
	}
}

// orderIngest records the order the ingest step hands it snapshots.
// The step's lock serialises its calls.
type orderIngest struct{ seen []hostTime }

type hostTime struct {
	host string
	time float64
}

func (r *orderIngest) Ingest(s model.Snapshot) error {
	r.seen = append(r.seen, hostTime{s.Host, s.Time})
	runtime.Gosched()
	return nil
}

// TestHandleBodyKeepsOneOrderAcrossSteps drives the listener from
// eight goroutines at once, each submitting two hosts interleaved, in
// time order. The ingest and assemble steps must see one and the same
// global sequence — no caller overtakes another between steps — and
// every step, the archived files included, each host's snapshots in
// submit order.
func TestHandleBodyKeepsOneOrderAcrossSteps(t *testing.T) {
	const callers, perCaller = 8, 60
	reg := schema.DefaultRegistry()
	store, err := rawfile.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ing := &orderIngest{}
	var assembled []hostTime
	l := &Listener{
		Store:    store,
		Headers:  func(host string) rawfile.Header { return rawfile.Header{Hostname: host, Registry: reg} },
		Registry: reg,
		Metrics:  telemetry.NewRegistry(),
		Ingest:   ing,
		OnSnapshot: func(s model.Snapshot) {
			assembled = append(assembled, hostTime{s.Host, s.Time})
			runtime.Gosched()
		},
	}
	host := func(c, i int) string { return fmt.Sprintf("h%02d", c+callers*(i%2)) }
	bodies := make([][][]byte, callers)
	for c := range bodies {
		for i := 0; i < perCaller; i++ {
			b, err := codec.EncodeWire(snapWithMDC(float64(600*(i/2+1)), host(c, i), uint64(i), "1"), reg, codec.V1Text)
			if err != nil {
				t.Fatal(err)
			}
			bodies[c] = append(bodies[c], b)
		}
	}
	var wg sync.WaitGroup
	for c := range bodies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, b := range bodies[c] {
				if err := l.HandleBody(b); err != nil {
					t.Errorf("caller %d message %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	const total = callers * perCaller
	if len(ing.seen) != total || len(assembled) != total {
		t.Fatalf("ingested %d, assembled %d, want %d each", len(ing.seen), len(assembled), total)
	}
	for k := range assembled {
		if ing.seen[k] != assembled[k] {
			t.Fatalf("message %d: ingest saw %v, assemble %v; the steps' orders differ", k, ing.seen[k], assembled[k])
		}
	}
	inSubmitOrder := func(step string, seq []hostTime) {
		next := map[string]float64{}
		for _, ht := range seq {
			if want := next[ht.host] + 600; ht.time != want {
				t.Fatalf("%s: %s@%g arrived where %s@%g was due", step, ht.host, ht.time, ht.host, want)
			}
			next[ht.host] = ht.time
		}
	}
	inSubmitOrder("ingest", ing.seen)
	inSubmitOrder("assemble", assembled)
	for c := 0; c < callers; c++ {
		for i := 0; i < 2; i++ {
			h := host(c, i)
			snaps, err := store.ReadHost(h)
			if err != nil {
				t.Fatal(err)
			}
			seq := make([]hostTime, len(snaps))
			for k, s := range snaps {
				seq[k] = hostTime{s.Host, s.Time}
			}
			if len(seq) != perCaller/2 {
				t.Fatalf("archive holds %d snapshots of %s, want %d", len(seq), h, perCaller/2)
			}
			inSubmitOrder("archive", seq)
		}
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
