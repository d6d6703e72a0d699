package rawfile

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gostats/internal/chip"
	"gostats/internal/codec"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/schema"
)

func testHeader() Header {
	return Header{
		Hostname: "c401-101",
		Arch:     "sandybridge",
		Registry: chip.StampedeNode().Registry(),
	}
}

func testSnapshot(t float64, jobs ...string) model.Snapshot {
	return model.Snapshot{
		Time:   t,
		Host:   "c401-101",
		JobIDs: jobs,
		Records: []model.Record{
			{Class: schema.ClassCPU, Instance: "0", Values: []uint64{1, 2, 3, 4, 5, 6, 7}},
			{Class: schema.ClassCPU, Instance: "1", Values: []uint64{8, 9, 10, 11, 12, 13, 14}},
			{Class: schema.ClassLnet, Instance: "lnet", Values: []uint64{100, 200}},
		},
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())
	s1 := testSnapshot(1451606400, "4001", "4002")
	s2 := testSnapshot(1451607000, "4001")
	s2.Mark = "end 4002"
	if err := w.WriteSnapshot(s1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshot(s2); err != nil {
		t.Fatal(err)
	}

	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Header.Hostname != "c401-101" || f.Header.Arch != "sandybridge" {
		t.Errorf("header = %+v", f.Header)
	}
	if len(f.Snapshots) != 2 {
		t.Fatalf("snapshots = %d", len(f.Snapshots))
	}
	got := f.Snapshots[0]
	if got.Time != 1451606400 || len(got.JobIDs) != 2 || got.JobIDs[0] != "4001" {
		t.Errorf("snapshot0 = %+v", got)
	}
	if len(got.Records) != 3 {
		t.Fatalf("records = %d", len(got.Records))
	}
	if got.Records[0].Values[3] != 4 {
		t.Errorf("values = %v", got.Records[0].Values)
	}
	if f.Snapshots[1].Mark != "end 4002" {
		t.Errorf("mark = %q", f.Snapshots[1].Mark)
	}
	if got.Host != "c401-101" {
		t.Errorf("host not filled from header: %q", got.Host)
	}
}

func TestWriteNoJobs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())
	s := testSnapshot(100)
	s.JobIDs = nil
	if err := w.WriteSnapshot(s); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots[0].JobIDs) != 0 {
		t.Errorf("job ids = %v", f.Snapshots[0].JobIDs)
	}
	if !strings.Contains(text, " -\n") {
		t.Error("empty job list not rendered as '-'")
	}
}

func TestInstanceSanitization(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())
	s := model.Snapshot{Time: 1, Records: []model.Record{
		{Class: schema.ClassPS, Instance: "12/u1/my prog", Values: make([]uint64, schema.PSSchema().Len())},
		{Class: schema.ClassLnet, Instance: "", Values: []uint64{0, 0}},
	}}
	if err := w.WriteSnapshot(s); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Snapshots[0].Records[0].Instance != "12/u1/my_prog" {
		t.Errorf("instance = %q", f.Snapshots[0].Records[0].Instance)
	}
	if f.Snapshots[0].Records[1].Instance != "-" {
		t.Errorf("empty instance = %q", f.Snapshots[0].Records[1].Instance)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad version":    "$gostats 9.9\n$hostname x\n\n",
		"bad property":   "$gostats\n",
		"garbage header": "$gostats 2.0\nwhat\n\n",
		"bad schema":     "$gostats 2.0\n!cpu a,Z\n\n",
		"truncated":      "$gostats 2.0\n$hostname x\n",
		"mark first":     "$gostats 2.0\n\n% begin 1\n",
		"record first":   "$gostats 2.0\n!cpu a,E\n\ncpu 0 1\n",
		"unknown class":  "$gostats 2.0\n!cpu a,E\n\n1.0 -\nib 0 5\n",
		"value count":    "$gostats 2.0\n!cpu a,E b,E\n\n1.0 -\ncpu 0 5\n",
		"bad value":      "$gostats 2.0\n!cpu a,E\n\n1.0 -\ncpu 0 xyz\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func TestParseTolerantOfBlankLinesAndUnknownProps(t *testing.T) {
	text := "$gostats 2.0\n$hostname h\n$future stuff\n!cpu a,E\n\n1.0 77\n\ncpu 0 5\n\n2.0 -\ncpu 0 9\n"
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots) != 2 {
		t.Fatalf("snapshots = %d", len(f.Snapshots))
	}
	if f.Snapshots[0].Records[0].Values[0] != 5 || f.Snapshots[1].Records[0].Values[0] != 9 {
		t.Error("values wrong across blank lines")
	}
}

func TestRoundTripFullNode(t *testing.T) {
	// End-to-end: a real simulated node's full sweep survives the format.
	n, err := hwsim.NewNode("c401-101", chip.StampedeNode(), 5)
	if err != nil {
		t.Fatal(err)
	}
	n.Advance(600, hwsim.Demand{
		CPUUserFrac: 0.8, IPC: 1.2, FlopsRate: 1e10, VecFrac: 0.5,
		LoadRate: 1e9, L1HitFrac: 0.9, MemBW: 1e10, MemUsed: 8 << 30,
		MDCReqRate: 50, OSCReqRate: 20, LustreReadBW: 1e6, IBBW: 1e8,
		Processes: []hwsim.Process{{PID: 9, Exe: "wrf.exe", Owner: "u1", VmRSS: 1 << 30, Threads: 2}},
	})
	snap := model.Snapshot{Time: 1451606400, Host: n.Host(), JobIDs: []string{"1"}, Records: n.ReadAll()}

	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Hostname: n.Host(), Arch: "sandybridge", Registry: n.Registry()})
	if err := w.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots) != 1 {
		t.Fatalf("snapshots = %d", len(f.Snapshots))
	}
	got := f.Snapshots[0]
	if len(got.Records) != len(snap.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(snap.Records))
	}
	for i := range got.Records {
		want := snap.Records[i]
		if got.Records[i].Class != want.Class {
			t.Fatalf("record %d class %s != %s", i, got.Records[i].Class, want.Class)
		}
		for j := range want.Values {
			if got.Records[i].Values[j] != want.Values[j] {
				t.Errorf("record %d value %d: %d != %d", i, j, got.Records[i].Values[j], want.Values[j])
			}
		}
	}
}

func TestQuickValueRoundTrip(t *testing.T) {
	// Property: arbitrary uint64 vectors survive the text encoding.
	reg, err := schema.NewRegistry(&schema.Schema{Class: "t", Events: []schema.EventDef{
		{Name: "a", Kind: schema.Event}, {Name: "b", Kind: schema.Gauge}, {Name: "c", Kind: schema.Event, Width: 48},
	}})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c uint64, tm float64) bool {
		if tm < 0 || tm > 1e12 {
			tm = 1
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, Header{Hostname: "h", Registry: reg})
		err := w.WriteSnapshot(model.Snapshot{Time: tm, Records: []model.Record{
			{Class: "t", Instance: "0", Values: []uint64{a, b, c}},
		}})
		if err != nil {
			return false
		}
		parsed, err := Parse(&buf)
		if err != nil || len(parsed.Snapshots) != 1 {
			return false
		}
		v := parsed.Snapshots[0].Records[0].Values
		return v[0] == a && v[1] == b && v[2] == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNodeLoggerRotationAndSync(t *testing.T) {
	spool := t.TempDir()
	central := t.TempDir()
	h := testHeader()
	l, err := NewNodeLogger(spool, h)
	if err != nil {
		t.Fatal(err)
	}
	// Two snapshots on day 0, one on day 1 -> two files.
	if err := l.Log(testSnapshot(100, "1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Log(testSnapshot(50000, "1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Log(testSnapshot(90000, "1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := NewStore(central)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SyncFrom("c401-101", spool); err != nil {
		t.Fatal(err)
	}
	snaps, err := st.ReadHost("c401-101")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("central snapshots = %d, want 3", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Time < snaps[i-1].Time {
			t.Error("snapshots not time ordered")
		}
	}
	hosts, err := st.Hosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 1 || hosts[0] != "c401-101" {
		t.Errorf("hosts = %v", hosts)
	}
}

func TestNodeDeathLosesUnsyncedData(t *testing.T) {
	spool := t.TempDir()
	spool = filepath.Join(spool, "node")
	central := t.TempDir()
	h := testHeader()
	l, err := NewNodeLogger(spool, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Log(testSnapshot(100, "1")); err != nil {
		t.Fatal(err)
	}
	// Node dies before the daily rsync: spool destroyed.
	if err := l.Destroy(); err != nil {
		t.Fatal(err)
	}
	st, _ := NewStore(central)
	if err := st.SyncFrom("c401-101", spool); err != nil {
		t.Fatal(err) // missing spool is not an error, just no data
	}
	if _, err := st.ReadHost("c401-101"); err == nil {
		t.Error("expected no data for dead host")
	}
}

func TestStoreAppendHost(t *testing.T) {
	central := t.TempDir()
	st, err := NewStore(central)
	if err != nil {
		t.Fatal(err)
	}
	h := testHeader()
	// Appends across calls and days.
	if err := st.AppendHost("c401-101", h, testSnapshot(100, "1")); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendHost("c401-101", h, testSnapshot(200, "1"), testSnapshot(90000, "1")); err != nil {
		t.Fatal(err)
	}
	snaps, err := st.ReadHost("c401-101")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(snaps))
	}
	if snaps[0].Time != 100 || snaps[2].Time != 90000 {
		t.Errorf("times = %v %v %v", snaps[0].Time, snaps[1].Time, snaps[2].Time)
	}
}

func TestParseLenientRecoversTruncatedFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())
	for i := 0; i < 3; i++ {
		if err := w.WriteSnapshot(testSnapshot(float64(100+600*i), "7")); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.String()

	// Cut the file mid-record-line (power loss during flush).
	cut := strings.LastIndex(full, "cpu 1")
	if cut < 0 {
		t.Fatal("fixture missing cpu record")
	}
	damaged := full[:cut+7] // partial values on the last line

	if _, err := Parse(strings.NewReader(damaged)); err == nil {
		t.Fatal("strict parse accepted damaged file")
	}
	f, err := ParseLenient(strings.NewReader(damaged))
	if err == nil {
		t.Fatal("lenient parse should still report the damage")
	}
	if f == nil {
		t.Fatal("lenient parse recovered nothing")
	}
	// The first two snapshots are intact; the third lost its tail but
	// its complete records survive.
	if len(f.Snapshots) != 3 {
		t.Fatalf("recovered %d snapshots, want 3", len(f.Snapshots))
	}
	if len(f.Snapshots[2].Records) >= len(f.Snapshots[1].Records) {
		t.Error("damaged snapshot should have fewer records than intact ones")
	}
	if f.Snapshots[0].Time != 100 || f.Snapshots[1].Time != 700 {
		t.Errorf("times = %v %v", f.Snapshots[0].Time, f.Snapshots[1].Time)
	}
}

func TestParseLenientIntactFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())
	if err := w.WriteSnapshot(testSnapshot(100, "7")); err != nil {
		t.Fatal(err)
	}
	f, err := ParseLenient(&buf)
	if err != nil {
		t.Fatalf("intact file reported damage: %v", err)
	}
	if len(f.Snapshots) != 1 {
		t.Fatalf("snapshots = %d", len(f.Snapshots))
	}
}

func TestParseLenientHopelessFile(t *testing.T) {
	if _, err := ParseLenient(strings.NewReader("$gostats 9.9\n")); err == nil {
		t.Error("unusable file accepted")
	}
}

func TestArchiverEvictionBeyondCapKeepsWriting(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// More hosts than the archiver may hold open: every append past the
	// cap evicts something. A regression here closed the just-opened
	// file instead of the least-recently-used one, so fleets larger than
	// the cap could never archive at all.
	a := NewArchiver(st, 4)
	hosts := make([]string, 12)
	for i := range hosts {
		hosts[i] = "c900-" + string(rune('a'+i))
	}
	reg := chip.StampedeNode().Registry()
	for round := 0; round < 3; round++ {
		for _, host := range hosts {
			s := testSnapshot(float64(100 + 600*round))
			s.Host = host
			h := Header{Hostname: host, Arch: "sandybridge", Registry: reg}
			if err := a.Append(host, h, s); err != nil {
				t.Fatalf("round %d host %s: %v", round, host, err)
			}
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, host := range hosts {
		snaps, err := st.ReadHost(host)
		if err != nil {
			t.Fatalf("%s: %v", host, err)
		}
		if len(snaps) != 3 {
			t.Errorf("%s archived %d snapshots, want 3", host, len(snaps))
		}
	}
}

// TestAppendAfterTornTail restarts each archive writer after a crash
// that tore a snapshot mid-write: the new process must trim the torn
// bytes before appending, so every acked snapshot stays readable.
func TestAppendAfterTornTail(t *testing.T) {
	writers := map[string]func(st *Store, h Header, s model.Snapshot) error{
		"Archiver": func(st *Store, h Header, s model.Snapshot) error {
			a := NewArchiver(st, 0)
			if err := a.Append(h.Hostname, h, s); err != nil {
				return err
			}
			return a.Close()
		},
		"AppendHost": func(st *Store, h Header, s model.Snapshot) error {
			return st.AppendHost(h.Hostname, h, s)
		},
	}
	h := testHeader()
	for _, v := range []codec.Version{codec.V1Text, codec.V2Binary} {
		for name, write := range writers {
			// The torn snapshot's bytes as the crashed writer emitted them.
			var torn bytes.Buffer
			enc, err := codec.NewContinuation(&torn, h, v)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.WriteSnapshot(testSnapshot(1451606400 + 4*600)); err != nil {
				t.Fatal(err)
			}
			for _, frac := range []int{25, 50, 90} {
				cut := torn.Len() * frac / 100
				dir := t.TempDir()
				archive := func(times ...int) {
					st, err := NewStore(dir) // a fresh process
					if err != nil {
						t.Fatal(err)
					}
					st.SetCodec(v)
					for _, i := range times {
						if err := write(st, h, testSnapshot(float64(1451606400+i*600))); err != nil {
							t.Fatalf("%v %s: %v", v, name, err)
						}
					}
				}
				archive(1, 2, 3)
				path := filepath.Join(dir, h.Hostname, "1451606400.raw")
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(torn.Bytes()[:cut]); err != nil {
					t.Fatal(err)
				}
				f.Close()
				archive(5, 6, 7)

				st, err := NewStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				var got []float64
				recovered, err := st.Walk(func(s model.Snapshot) error {
					got = append(got, s.Time-1451606400)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				want := []float64{600, 1200, 1800, 3000, 3600, 4200}
				if !slices.Equal(got, want) || recovered != 0 {
					t.Errorf("%v %s torn at %d%%: walked %v (%d files recovered), want %v", v, name, frac, got, recovered, want)
				}
			}
		}
	}
}
