package reldb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gostats/internal/framelog"
)

// goldenRows are the fixed rows behind testdata/journal-v1.gsj, a
// journal written before the framing moved into internal/framelog.
func goldenRows() []*JobRow {
	r := jrow("5001", "alice", 3600)
	r.Hosts = []string{"c401-101", "c401-102"}
	r.Metrics.MDCWait = 0.75
	return []*JobRow{r, jrow("5002", "bob", 120), jrow("5001", "alice", 7200)}
}

// TestGoldenJournal pins the journal's bytes: appending the golden rows
// to a fresh journal reproduces the fixture exactly, and replaying the
// fixture yields the rows.
func TestGoldenJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.gsj")
	j, err := OpenJournal(path, New(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenRows() {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "journal-v1.gsj"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes (%d) differ from the golden fixture (%d)", len(got), len(want))
	}

	start, _ := framelog.CheckPreamble(want, jnlMagic, jnlVersion)
	good, rows, derr := replay(want, start, nil)
	if derr != nil || good != len(want) {
		t.Fatalf("replay fixture: good %d of %d, err %v", good, len(want), derr)
	}
	if !reflect.DeepEqual(rows, goldenRows()) {
		t.Fatalf("fixture replayed to %+v", rows)
	}
}
