package reldb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalReplay loads and opens arbitrary bytes as a journal.
// Neither may panic. Load never modifies the file and returns exactly
// the rows Open replays, and refuses exactly the files Open refuses.
// Open either refuses the file and leaves it untouched, or repairs it —
// and then repair is idempotent: a second open replays the same rows,
// truncates nothing and leaves the file byte for byte as the first open
// left it.
func FuzzJournalReplay(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "journal-v1.gsj"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-3])
	f.Add(golden[:len(golden)/2])
	f.Add(golden[:3])
	f.Add([]byte{})
	f.Add([]byte("not a journal"))
	mut := append([]byte(nil), golden...)
	mut[5] = 'Q' // first frame's type byte
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.gsj")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, lerr := Load(path)
		if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
			t.Fatalf("Load modified the journal (read err %v)", rerr)
		}
		db := New()
		j, err := OpenJournal(path, db, false)
		if (lerr == nil) != (err == nil) {
			t.Fatalf("Load err %v but OpenJournal err %v", lerr, err)
		}
		if err != nil {
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("refused journal was modified (read err %v)", rerr)
			}
			return
		}
		if !reflect.DeepEqual(loaded.All(), db.All()) {
			t.Fatalf("Load returned %d rows, OpenJournal replayed %d", loaded.Len(), db.Len())
		}
		rows, _ := j.Replayed()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path, New(), false)
		if err != nil {
			t.Fatalf("reopen of a repaired journal: %v", err)
		}
		rows2, trunc2 := j2.Replayed()
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if rows2 != rows || trunc2 != 0 {
			t.Fatalf("reopen replayed (%d rows, %d truncations), want (%d, 0)", rows2, trunc2, rows)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, repaired) {
			t.Fatal("reopen changed the repaired journal")
		}
	})
}
