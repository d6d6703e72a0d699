package gostats

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gostats/internal/telemetry"
)

// TestDeployedBinariesEndToEnd builds the shipped daemons and tools and
// runs the daemon-mode deployment over real sockets: brokerd, listend
// with a durable store, one tacc_statsd publishing a short job, a
// graceful listend shutdown, the nightly jobetl into the job table
// journal (twice: the rerun over an unchanged store must leave the file
// byte-identical), and the portal serving that job back over HTTP.
func TestDeployedBinariesEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := buildCmds(t, dir, "brokerd", "tacc_statsd", "listend", "jobetl", "portal")

	brokerAddr, opsAddr, portalAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	central := filepath.Join(dir, "central")
	journal := filepath.Join(dir, "jobs.gsj")

	startDaemon(t, filepath.Join(bin, "brokerd"), "-listen", brokerAddr)
	waitDial(t, brokerAddr)

	listend, listendOut := startDaemon(t, filepath.Join(bin, "listend"),
		"-brokers", brokerAddr, "-store", central,
		"-data-dir", filepath.Join(dir, "tsdb"), "-telemetry", opsAddr)

	statsd := exec.Command(filepath.Join(bin, "tacc_statsd"),
		"-brokers", brokerAddr, "-job", "4001", "-ticks", "6", "-speedup", "60000")
	if out, err := statsd.CombinedOutput(); err != nil {
		t.Fatalf("tacc_statsd: %v\n%s", err, out)
	}
	waitFor(t, "listend to archive 6 snapshots", func() bool {
		body, code := fetch("http://" + opsAddr + "/metrics")
		return code == http.StatusOK &&
			telemetry.ParseExposition(body)["gostats_listen_snapshots_total"] == 6
	})

	if err := listend.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := listend.Wait(); err != nil {
		t.Fatalf("listend exited with %v after SIGTERM\n%s", err, listendOut)
	}
	if !strings.Contains(listendOut.String(), "6 snapshots handled") {
		t.Fatalf("listend did not report 6 snapshots handled:\n%s", listendOut)
	}

	var tables [2][]byte
	var err error
	for i := range tables {
		etl := exec.Command(filepath.Join(bin, "jobetl"), "-store", central, "-out", journal)
		if out, err := etl.CombinedOutput(); err != nil {
			t.Fatalf("jobetl run %d: %v\n%s", i+1, err, out)
		}
		if tables[i], err = os.ReadFile(journal); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Fatalf("jobetl rerun over an unchanged store changed %s: %d -> %d bytes", journal, len(tables[0]), len(tables[1]))
	}

	startDaemon(t, filepath.Join(bin, "portal"), "-db", journal, "-store", central, "-listen", portalAddr)
	waitDial(t, portalAddr)
	body, code := fetch("http://" + portalAddr + "/api/v1/jobs")
	if code != http.StatusOK || !strings.Contains(body, `"4001"`) {
		t.Fatalf("GET /api/v1/jobs = %d, want job 4001 in:\n%s", code, body)
	}
	body, code = fetch("http://" + portalAddr + "/job/4001")
	if code != http.StatusOK {
		t.Fatalf("GET /job/4001 = %d, want 200", code)
	}
	// The page carries the six Fig 5 panels, reduced from the store.
	if n := strings.Count(body, "<svg"); n != 6 {
		t.Fatalf("GET /job/4001 has %d <svg> panels, want the 6 of Fig 5", n)
	}
}

// TestDeployedStatsdDrainsOnSIGTERM signals a running tacc_statsd: it
// must finish the collection in flight, exit 0 saying it drained, and
// every collection it logged as published must reach the listener.
func TestDeployedStatsdDrainsOnSIGTERM(t *testing.T) {
	dir := t.TempDir()
	bin := buildCmds(t, dir, "brokerd", "tacc_statsd", "listend")
	brokerAddr, opsAddr := freeAddr(t), freeAddr(t)

	startDaemon(t, filepath.Join(bin, "brokerd"), "-listen", brokerAddr)
	waitDial(t, brokerAddr)
	startDaemon(t, filepath.Join(bin, "listend"),
		"-brokers", brokerAddr, "-store", filepath.Join(dir, "central"), "-telemetry", opsAddr)
	waitDial(t, opsAddr)
	archived := func() float64 {
		body, code := fetch("http://" + opsAddr + "/metrics")
		if code != http.StatusOK {
			return -1
		}
		return telemetry.ParseExposition(body)["gostats_listen_snapshots_total"]
	}

	statsd, statsdOut := startDaemon(t, filepath.Join(bin, "tacc_statsd"),
		"-brokers", brokerAddr, "-ticks", "0", "-speedup", "12000")
	waitFor(t, "listend to archive 2 snapshots", func() bool { return archived() >= 2 })
	if err := statsd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := statsd.Wait(); err != nil {
		t.Fatalf("tacc_statsd exited with %v after SIGTERM\n%s", err, statsdOut)
	}
	out := statsdOut.String()
	if !strings.Contains(out, "drained cleanly") {
		t.Fatalf("tacc_statsd did not report a clean drain:\n%s", out)
	}
	published := float64(strings.Count(out, "published collection"))
	waitFor(t, "listend to archive every published collection", func() bool { return archived() >= published })
	if got := archived(); got != published {
		t.Fatalf("listend archived %v snapshots, tacc_statsd logged %v published:\n%s", got, published, out)
	}
}

// buildCmds builds the named cmd/ binaries into dir/bin and returns that
// directory; it skips the test without a go toolchain.
func buildCmds(t *testing.T, dir string, cmds ...string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(dir, "bin")
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, c := range cmds {
		args = append(args, "./cmd/"+c)
	}
	if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches a daemon whose output is captured; it is killed when
// the test ends unless the test waited on it first.
func startDaemon(t *testing.T, path string, args ...string) (*exec.Cmd, *syncBuffer) {
	t.Helper()
	out := &syncBuffer{}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd, out
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func waitDial(t *testing.T, addr string) {
	t.Helper()
	waitFor(t, addr+" to accept connections", func() bool {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			c.Close()
		}
		return err == nil
	})
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetch fetches url, returning the body and status (0 on a transport error).
func fetch(url string) (string, int) {
	resp, err := http.Get(url)
	if err != nil {
		return "", 0
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body), resp.StatusCode
}

// syncBuffer is a bytes.Buffer safe to fill from a child's output
// copier while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
