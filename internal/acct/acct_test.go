package acct

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"gostats/internal/workload"
)

func sample() Record {
	return Record{
		JobID: "4001", User: "u042", Account: "TG-u042", JobName: "wrf-run",
		Exe: "wrf.exe", Queue: "normal", Nodes: 4, Wayness: 16,
		Submit: 1000, Start: 1600, End: 9000, State: "COMPLETED",
		NodeList: []string{"c401-101", "c401-102"},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r1 := sample()
	r2 := sample()
	r2.JobID = "4002"
	r2.NodeList = nil
	if err := w.Append(r1); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(r2); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "JobID|") {
		t.Errorf("missing header: %q", text[:30])
	}
	if strings.Count(text, "JobID|") != 1 {
		t.Error("header repeated")
	}
	recs, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].JobID != "4001" || recs[0].User != "u042" || recs[0].Nodes != 4 {
		t.Errorf("rec0 = %+v", recs[0])
	}
	if len(recs[0].NodeList) != 2 || recs[0].NodeList[1] != "c401-102" {
		t.Errorf("node list = %v", recs[0].NodeList)
	}
	if recs[1].NodeList != nil {
		t.Errorf("empty node list parsed as %v", recs[1].NodeList)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"a|b",                       // wrong arity
		"|u|a|n|e|q|1|16|0|0|0|S|",  // empty job id
		"1|u|a|n|e|q|x|16|0|0|0|S|", // bad nodes
		"1|u|a|n|e|q|1|x|0|0|0|S|",  // bad wayness
		"1|u|a|n|e|q|1|16|x|0|0|S|", // bad submit
		"1|u|a|n|e|q|1|16|0|x|0|S|", // bad start
		"1|u|a|n|e|q|1|16|0|0|x|S|", // bad end
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestParseSkipsBlanksAndRepeatedHeaders(t *testing.T) {
	text := header + "\n\n" + sample().Format() + "\n" + header + "\n"
	recs, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("records = %d", len(recs))
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acct.log")
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(sample()); err != nil {
		t.Fatal(err)
	}
	if err := osWriteFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("records = %d", len(recs))
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file loaded")
	}
}

func osWriteFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

func TestFromSpec(t *testing.T) {
	spec := workload.Spec{
		JobID: "7", User: "u1", Account: "TG-u1", Exe: "a.out", JobName: "x",
		Queue: "largemem", Nodes: 2, Wayness: 8, SubmitAt: 50,
		Status: workload.StatusFailed,
	}
	r := FromSpec(spec, 100, 400, []string{"n1", "n2"})
	if r.State != "FAILED" || r.Queue != "largemem" || r.Start != 100 {
		t.Errorf("record = %+v", r)
	}
}

func TestQuickFormatParseRoundTrip(t *testing.T) {
	f := func(id uint32, nodes, way uint8, submit, dur uint32, fail bool) bool {
		r := Record{
			JobID: "j" + strconvU(uint64(id)), User: "u1", Account: "a", JobName: "n",
			Exe: "e", Queue: "q", Nodes: int(nodes)%512 + 1, Wayness: int(way)%64 + 1,
			Submit: float64(submit), Start: float64(submit) + 10,
			End:   float64(submit) + 10 + float64(dur),
			State: map[bool]string{true: "FAILED", false: "COMPLETED"}[fail],
		}
		got, err := parseLine(r.Format())
		if err != nil {
			return false
		}
		return got.JobID == r.JobID && got.Nodes == r.Nodes &&
			got.Submit == r.Submit && got.End == r.End && got.State == r.State
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func strconvU(v uint64) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = digits[v%10]
		v /= 10
	}
	return string(b[i:])
}
