package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"gostats/internal/broker"
	"gostats/internal/etl"
	"gostats/internal/portal"
	"gostats/internal/rawfile"
	"gostats/internal/realtime"
	"gostats/internal/reldb"
	"gostats/internal/segstore"
	"gostats/internal/telemetry"
	"gostats/internal/tsdb"
)

// hotWindow is listend's default -hot-window.
const hotWindow = 2 * 3600

// stack is gostats composed in one process the way cmd/listend and
// cmd/simcluster wire it: broker on loopback TCP → realtime.Listener
// (monitor, rawfile archive, tsdb with a segstore cold tier) with an
// etl.Assembler into reldb on its OnSnapshot tap, and a portal with the
// same tsdb and reldb served over loopback HTTP.
type stack struct {
	dir   string
	st    *stream
	met   *telemetry.Registry
	srv   *broker.Server
	addr  string
	store *rawfile.Store
	cold  *segstore.Store
	tdb   *tsdb.DB
	ing   *tsdb.Ingester
	rdb   *reldb.DB
	asm   *etl.Assembler
	mon   *realtime.Monitor

	lis     *realtime.Listener
	lisDone chan error

	// taps counts snapshots through the OnSnapshot tap; tapAt[i] is when
	// the i-th one entered it (delivery is FIFO on one connection and the
	// listener is serial, so tap i is publish i).
	tapMu     sync.Mutex
	taps      int
	tapAt     []time.Time
	decodeAt  []time.Time
	wireBytes int64
	tapCond   *sync.Cond
	tapErr    error

	// tr, when set before traffic starts, records a span around every
	// portal.ServeHTTP call.
	tr *tracer

	ps     *portal.Server
	hs     *http.Server
	webURL string
}

// newStack builds the storage layers under dir (created fresh).
func newStack(dir string, st *stream) (*stack, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{dir: dir, st: st, met: telemetry.NewRegistry(), rdb: reldb.New()}
	s.tapCond = sync.NewCond(&s.tapMu)
	var err error
	if s.store, err = rawfile.NewStore(filepath.Join(dir, "central")); err != nil {
		return nil, err
	}
	s.cold, err = segstore.Open(filepath.Join(dir, "tsdata"), segstore.Options{
		Metrics: s.met,
		Logf:    log.New(io.Discard, "", 0).Printf,
	})
	if err != nil {
		return nil, err
	}
	s.tdb = tsdb.New()
	if err := s.tdb.AttachCold(s.cold, hotWindow); err != nil {
		s.cold.Close()
		return nil, err
	}
	s.ing = tsdb.NewIngester(s.tdb, st.reg)
	s.asm = &etl.Assembler{Registry: st.reg, Meta: st.meta, DB: s.rdb,
		EndGrace: etl.DefaultEndGrace, Metrics: s.met}
	s.mon = realtime.NewMonitor(st.reg, realtime.DefaultRules())
	return s, nil
}

// header is the per-host raw-file header listend writes.
func (s *stack) header(host string) rawfile.Header {
	return rawfile.Header{Hostname: host, Arch: "stampede", Registry: s.st.reg}
}

// startBroker starts the broker on loopback TCP.
func (s *stack) startBroker() error {
	s.srv = broker.NewServer()
	s.srv.Metrics = s.met
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = addr
	return nil
}

// waitTaps blocks until n snapshots have passed the tap or the deadline
// expires.
func (s *stack) waitTaps(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.tapMu.Lock()
		s.tapCond.Broadcast()
		s.tapMu.Unlock()
	})
	defer timer.Stop()
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	for s.taps < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d snapshots reached the tap within %s", s.taps, n, timeout)
		}
		s.tapCond.Wait()
	}
	return nil
}

// tapped returns the tap count.
func (s *stack) tapped() int {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	return s.taps
}

// stopIngest closes the broker, which ends Listener.Run (draining its
// pipeline and closing the archiver), then flushes the assembler.
func (s *stack) stopIngest() error {
	var err error
	if s.srv != nil {
		s.srv.Close()
	}
	if s.lis != nil {
		err = <-s.lisDone
		s.lis = nil
	}
	s.asm.Flush()
	if err == nil {
		err = s.asm.Err()
	}
	return err
}

// startPortal serves the portal over loopback HTTP with the stack's
// tsdb and reldb attached.
func (s *stack) startPortal() error {
	s.ps = portal.NewServer(s.rdb, s.st.reg, nil)
	s.ps.Metrics = s.met
	s.ps.TSDB = s.tdb
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: http.HandlerFunc(s.serve), ReadHeaderTimeout: 10 * time.Second}
	s.webURL = "http://" + ln.Addr().String()
	go s.hs.Serve(ln)
	return nil
}

// serve hands a request to portal.Server.ServeHTTP inside a span whose
// id and parent the client sent along.
func (s *stack) serve(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.Atoi(r.Header.Get(hdrID))
	parent, err := strconv.Atoi(r.Header.Get(hdrSpan))
	if err != nil {
		parent = -1
	}
	sp := s.tr.begin("portal.serve", id, parent)
	s.ps.ServeHTTP(w, r)
	s.tr.end(sp)
}

// close stops every server and removes the stack's directory.
func (s *stack) close() {
	if s.hs != nil {
		s.hs.Close()
		s.hs = nil
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.lis != nil {
		<-s.lisDone
		s.lis = nil
	}
	if s.cold != nil {
		s.cold.Close()
		s.cold = nil
	}
	os.RemoveAll(s.dir)
}

// sealCold closes the segment store so every point is in sealed
// segments on disk, as after listend's shutdown.
func (s *stack) sealCold() error {
	err := s.cold.Close()
	s.cold = nil
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// counter reads a counter from the stack's registry.
func (s *stack) counter(name string) uint64 {
	return s.met.Counter(name, "").Value()
}
