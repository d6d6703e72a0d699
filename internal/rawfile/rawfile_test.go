package rawfile

import (
	"bytes"
	"io"
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

// textEncoder returns a v1 text encoder, the codec node loggers write.
func textEncoder(t testing.TB, w io.Writer, h Header) codec.SnapshotEncoder {
	t.Helper()
	enc, err := codec.NewEncoder(w, h, codec.V1Text)
	if err != nil {
		t.Fatal(err)
	}
	return enc
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
	w := textEncoder(t, &buf, testHeader())
	s1 := testSnapshot(1451606400, "4001", "4002")
	s2 := testSnapshot(1451607000, "4001")
	s2.Mark = "end 4002"
	if err := w.WriteSnapshot(s1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshot(s2); err != nil {
		t.Fatal(err)
	}

	f, err := codec.DecodeAll(&buf)
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
	w := textEncoder(t, &buf, testHeader())
	s := testSnapshot(100)
	s.JobIDs = nil
	if err := w.WriteSnapshot(s); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	f, err := codec.DecodeAll(strings.NewReader(text))
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
	w := textEncoder(t, &buf, testHeader())
	s := model.Snapshot{Time: 1, Records: []model.Record{
		{Class: schema.ClassPS, Instance: "12/u1/my prog", Values: make([]uint64, schema.PSSchema().Len())},
		{Class: schema.ClassLnet, Instance: "", Values: []uint64{0, 0}},
	}}
	if err := w.WriteSnapshot(s); err != nil {
		t.Fatal(err)
	}
	f, err := codec.DecodeAll(&buf)
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
		if _, err := codec.DecodeAll(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func TestParseTolerantOfBlankLinesAndUnknownProps(t *testing.T) {
	text := "$gostats 2.0\n$hostname h\n$future stuff\n!cpu a,E\n\n1.0 77\n\ncpu 0 5\n\n2.0 -\ncpu 0 9\n"
	f, err := codec.DecodeAll(strings.NewReader(text))
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
	w := textEncoder(t, &buf, Header{Hostname: n.Host(), Arch: "sandybridge", Registry: n.Registry()})
	if err := w.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	f, err := codec.DecodeAll(&buf)
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
		w := textEncoder(t, &buf, Header{Hostname: "h", Registry: reg})
		err := w.WriteSnapshot(model.Snapshot{Time: tm, Records: []model.Record{
			{Class: "t", Instance: "0", Values: []uint64{a, b, c}},
		}})
		if err != nil {
			return false
		}
		parsed, err := codec.DecodeAll(&buf)
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
	l.Close()
	if err := os.RemoveAll(spool); err != nil {
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

func TestArchiverAppendsAcrossDays(t *testing.T) {
	central := t.TempDir()
	st, err := NewStore(central)
	if err != nil {
		t.Fatal(err)
	}
	h := testHeader()
	// Appends across archivers and days.
	for _, times := range [][]float64{{100}, {200, 90000}} {
		a := NewArchiver(st, 0)
		for _, tm := range times {
			if err := a.Append("c401-101", h, testSnapshot(tm, "1")); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
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

// writeDay writes snaps as host's archive file for the day of t0 and
// returns its path and the byte offset where each snapshot starts.
func writeDay(t *testing.T, dir string, v codec.Version, snaps []model.Snapshot) (string, []int) {
	t.Helper()
	h := testHeader()
	var buf bytes.Buffer
	enc, err := codec.NewEncoder(&buf, h, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	var offs []int
	for _, s := range snaps {
		offs = append(offs, buf.Len())
		if err := enc.WriteSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	path := dayFile(filepath.Join(dir, h.Hostname), int64(snaps[0].Time)/86400)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, offs
}

func TestReadHostRecoversTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	snaps := []model.Snapshot{testSnapshot(100, "7"), testSnapshot(700, "7"), testSnapshot(1300, "7")}
	path, _ := writeDay(t, dir, codec.V1Text, snaps)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-record-line (power loss during flush): the third
	// snapshot is torn, so only the first two are whole.
	cut := bytes.LastIndex(full, []byte("cpu 1")) + 7
	if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.DecodeAll(bytes.NewReader(full[:cut])); err == nil {
		t.Fatal("strict decode accepted damaged file")
	}
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadHost(testHeader().Hostname)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Time != 100 || got[1].Time != 700 || len(got[1].Records) != 3 {
		t.Fatalf("read %d snapshots %+v, want the whole ones at 100 and 700", len(got), got)
	}
}

func TestTrimLeavesIntactFile(t *testing.T) {
	path, _ := writeDay(t, t.TempDir(), codec.V2Binary, []model.Snapshot{testSnapshot(100, "7")})
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, cut, err := Trim(path)
	if err != nil || cut || st == nil || len(st.Snapshots) != 1 {
		t.Fatalf("Trim of an intact file: stream %v, cut %v, err %v", st, cut, err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("Trim changed an intact file")
	}
}

func TestTrimHopelessFile(t *testing.T) {
	dir := t.TempDir()
	torn := filepath.Join(dir, "torn.raw")
	if err := os.WriteFile(torn, []byte("$gostats 9.9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, cut, err := Trim(torn); err != nil || !cut || st != nil {
		t.Fatalf("Trim of a damaged header: stream %v, cut %v, err %v", st, cut, err)
	}
	if fi, err := os.Stat(torn); err != nil || fi.Size() != 0 {
		t.Fatalf("damaged header not emptied: %v %v", fi, err)
	}
	// A file in no known codec is not a snapshot file: left alone.
	foreign := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(foreign, []byte("not a raw file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, cut, err := Trim(foreign); err != nil || cut || st != nil {
		t.Fatalf("Trim of a foreign file: stream %v, cut %v, err %v", st, cut, err)
	}
	if data, _ := os.ReadFile(foreign); string(data) != "not a raw file" {
		t.Fatalf("foreign file changed to %q", data)
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

// writers are the two raw-file write paths — the central archive and
// the node log writing into the host's directory — each opening the day
// file as a fresh writer would.
var writers = map[string]func(st *Store, h Header, s model.Snapshot) error{
	"Archiver": func(st *Store, h Header, s model.Snapshot) error {
		a := NewArchiver(st, 0)
		if err := a.Append(h.Hostname, h, s); err != nil {
			return err
		}
		return a.Close()
	},
	"NodeLogger": func(st *Store, h Header, s model.Snapshot) error {
		l, err := NewNodeLogger(filepath.Join(st.Root(), h.Hostname), h)
		if err != nil {
			return err
		}
		l.SetCodec(st.Codec())
		if err := l.Log(s); err != nil {
			return err
		}
		return l.Close()
	},
}

// walkTimes walks the store at dir, returning the snapshot times
// (relative to the day) and how many files were recovered.
func walkTimes(t *testing.T, dir string) ([]float64, int) {
	t.Helper()
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
	return got, recovered
}

// TestAppendAfterTornTail restarts each archive writer after a crash
// that tore a snapshot mid-write: the new process must trim the torn
// bytes before appending, so every acked snapshot stays readable.
func TestAppendAfterTornTail(t *testing.T) {
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

				got, recovered := walkTimes(t, dir)
				want := []float64{600, 1200, 1800, 3000, 3600, 4200}
				if !slices.Equal(got, want) || recovered != 0 {
					t.Errorf("%v %s torn at %d%%: walked %v (%d files recovered), want %v", v, name, frac, got, recovered, want)
				}
			}
		}
	}
}

// TestAppendAfterFarFromTailDamage damages one snapshot early in a day
// file followed by over a thousand more lines: Walk keeps the whole
// snapshots before the damage, and a writer that reopens the file cuts
// it there and appends after them.
func TestAppendAfterFarFromTailDamage(t *testing.T) {
	h := testHeader()
	var snaps []model.Snapshot
	for i := range 280 { // 4 lines each in the text codec
		snaps = append(snaps, testSnapshot(float64(1451606400+60*i)))
	}
	for _, v := range []codec.Version{codec.V1Text, codec.V2Binary} {
		for name, write := range writers {
			dir := t.TempDir()
			path, offs := writeDay(t, dir, v, snaps)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if v == codec.V1Text { // a bad value in the 4th snapshot
				i := offs[3] + bytes.Index(data[offs[3]:], []byte(" 100 ")) + 1
				data[i] = 'x'
			} else { // a bad CRC on the 4th snapshot's frame
				data[(offs[3]+offs[4])/2] ^= 0x40
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			got, recovered := walkTimes(t, dir)
			if want := []float64{0, 60, 120}; !slices.Equal(got, want) || recovered != 1 {
				t.Fatalf("%v %s: walked %v (%d files recovered), want %v (1)", v, name, got, recovered, want)
			}
			st, err := NewStore(dir) // a fresh process
			if err != nil {
				t.Fatal(err)
			}
			if err := write(st, h, testSnapshot(1451606400+86000)); err != nil {
				t.Fatalf("%v %s: %v", v, name, err)
			}
			got, recovered = walkTimes(t, dir)
			if want := []float64{0, 60, 120, 86000}; !slices.Equal(got, want) || recovered != 0 {
				t.Errorf("%v %s after append: walked %v (%d files recovered), want %v", v, name, got, recovered, want)
			}
		}
	}
}
