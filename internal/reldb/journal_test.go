package reldb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func jrow(id, user string, runtime float64) *JobRow {
	return &JobRow{JobID: id, User: user, Exe: "wrf.exe", Nodes: 4,
		StartTime: 1000, EndTime: 1000 + runtime, Status: "COMPLETED"}
}

func TestJournalRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	db := New()
	j, err := OpenJournal(path, db, false)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	rows := []*JobRow{jrow("101", "alice", 600), jrow("102", "bob", 1200), jrow("103", "carol", 60)}
	for _, r := range rows {
		db.Insert(r)
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Re-finalization of a job overwrites by ID on replay.
	upd := jrow("102", "bob", 2400)
	db.Insert(upd)
	if err := j.Append(upd); err != nil {
		t.Fatalf("Append update: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2 := New()
	j2, err := OpenJournal(path, db2, false)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	replayed, trunc := j2.Replayed()
	if replayed != 4 || trunc != 0 {
		t.Fatalf("Replayed = (%d,%d), want (4,0)", replayed, trunc)
	}
	n, err := db2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed table has %d rows, want 3 (last-write-wins)", n)
	}
	got, err := db2.Query(F("jobid", "102"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].RunTime() != 2400 {
		t.Fatalf("job 102 not last-write-wins: %+v", got)
	}
	// The journal must keep accepting appends after replay.
	if err := j2.Append(jrow("104", "dave", 30)); err != nil {
		t.Fatalf("post-replay Append: %v", err)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	db := New()
	j, err := OpenJournal(path, db, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r := jrow(string(rune('a'+i)), "u", 100)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append tears the last frame: simulate every torn
	// length from one byte short of a full file down to just past the
	// 4th row, and assert replay always yields the intact prefix.
	info4 := func() int64 {
		// length after 4 appends: rewrite 4 rows into a scratch journal
		scratch := filepath.Join(t.TempDir(), "scratch.jnl")
		sj, err := OpenJournal(scratch, New(), false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			sj.Append(jrow(string(rune('a'+i)), "u", 100))
		}
		sj.Close()
		fi, err := os.Stat(scratch)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}()
	for cut := int64(len(full)) - 1; cut > info4; cut-- {
		torn := filepath.Join(t.TempDir(), "torn.jnl")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Load reads the intact prefix and leaves the torn tail on disk.
		loaded, err := Load(torn)
		if err != nil || loaded.Len() != 4 {
			t.Fatalf("cut %d: Load = %v rows (err %v), want 4", cut, loaded, err)
		}
		if after, err := os.ReadFile(torn); err != nil || !bytes.Equal(after, full[:cut]) {
			t.Fatalf("cut %d: Load modified the journal (read err %v)", cut, err)
		}
		db2 := New()
		j2, err := OpenJournal(torn, db2, false)
		if err != nil {
			t.Fatalf("cut %d: OpenJournal: %v", cut, err)
		}
		replayed, trunc := j2.Replayed()
		if replayed != 4 || trunc != 1 {
			t.Fatalf("cut %d: Replayed = (%d,%d), want (4,1)", cut, replayed, trunc)
		}
		// After truncation the journal must append cleanly again.
		if err := j2.Append(jrow("z", "u", 1)); err != nil {
			t.Fatalf("cut %d: Append after truncation: %v", cut, err)
		}
		j2.Close()
		db3 := New()
		j3, err := OpenJournal(torn, db3, false)
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		if n, err := db3.Count(); err != nil || n != 5 {
			t.Fatalf("cut %d: post-truncation journal has %d rows (err %v), want 5", cut, n, err)
		}
		j3.Close()
	}
}

func TestJournalCorruptMidFrameKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	j, err := OpenJournal(path, New(), false)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{}
	for i := 0; i < 5; i++ {
		if err := j.Append(jrow(string(rune('a'+i)), "u", 100)); err != nil {
			t.Fatal(err)
		}
		fi, _ := os.Stat(path)
		sizes = append(sizes, fi.Size())
	}
	j.Close()
	data, _ := os.ReadFile(path)
	// Flip one byte inside the 3rd frame: replay keeps rows 1-2 only.
	mid := (sizes[1] + sizes[2]) / 2
	data[mid] ^= 0x01
	corrupt := filepath.Join(t.TempDir(), "corrupt.jnl")
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db := New()
	j2, err := OpenJournal(corrupt, db, false)
	if err != nil {
		t.Fatalf("OpenJournal on corrupt: %v", err)
	}
	defer j2.Close()
	replayed, trunc := j2.Replayed()
	if replayed != 2 || trunc != 1 {
		t.Fatalf("Replayed = (%d,%d), want (2,1)", replayed, trunc)
	}
}

// A crash between creating the journal and its preamble reaching disk
// leaves an empty or partial-magic file. Open must rewrite the preamble
// from scratch — never truncate-to-zero and append headerless frames,
// which would make the NEXT open destroy every row.
func TestJournalHeaderCrashRecovery(t *testing.T) {
	for name, header := range map[string][]byte{
		"empty":        {},
		"partialMagic": jnlMagic[:2],
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.jnl")
			if err := os.WriteFile(path, header, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path, New(), false)
			if err != nil {
				t.Fatalf("OpenJournal on %s header: %v", name, err)
			}
			if err := j.Append(jrow("1", "u", 10)); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// The second open is where the old bug destroyed the log: the
			// preamble must be present and the appended row must replay.
			db := New()
			j2, err := OpenJournal(path, db, false)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer j2.Close()
			replayed, _ := j2.Replayed()
			if replayed != 1 {
				t.Fatalf("replayed %d rows after header rewrite, want 1", replayed)
			}
			if n, err := db.Count(); err != nil || n != 1 {
				t.Fatalf("Count = %d (%v), want 1", n, err)
			}
		})
	}
}

// A file whose first bytes are not the journal magic is not a journal:
// Open must refuse it and leave it byte-for-byte intact, not truncate
// someone else's data to zero.
func TestJournalRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	const content = "precious non-journal bytes"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, New(), false); err == nil {
		t.Fatal("OpenJournal accepted a non-journal file")
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != content {
		t.Fatalf("non-journal file was modified: %q (%v)", data, err)
	}
}

// After the first failed frame write the journal must latch the error
// and fail every later Append: replay stops at the torn frame, so rows
// acked past it would be silently lost at recovery.
func TestJournalAppendErrorSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	j, err := OpenJournal(path, New(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(jrow("1", "u", 10)); err != nil {
		t.Fatal(err)
	}
	// Simulate the fd going bad (disk error) under the journal.
	j.f.Close()
	err1 := j.Append(jrow("2", "u", 10))
	if err1 == nil {
		t.Fatal("Append on a dead fd returned nil")
	}
	err2 := j.Append(jrow("3", "u", 10))
	if err2 == nil {
		t.Fatal("Append after a latched write error returned nil")
	}
	if err2 != err1 {
		t.Fatalf("latched error not sticky: %v then %v", err1, err2)
	}
	if cerr := j.Close(); cerr == nil {
		t.Fatal("Close swallowed the latched write error")
	}
}

// TestJournalLoadRoundTrip journals a table and loads it back.
func TestJournalLoadRoundTrip(t *testing.T) {
	db := seedDB(t)
	path := filepath.Join(t.TempDir(), "jobs.gsj")
	j, err := OpenJournal(path, New(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range db.All() {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.All(), db.All()) {
		t.Fatalf("loaded %d rows differ from the %d journaled", got.Len(), db.Len())
	}
	if r := got.Get("2"); r == nil || r.Metrics.MetaDataRate != 500000 {
		t.Errorf("row 2 = %+v", r)
	}
}

// Load refuses what is not a journal by name: a missing path, and a
// jobs.gob table from an older release, which must be rebuilt.
func TestLoadRefusesByName(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.gsj")
	if _, err := Load(missing); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("Load(missing) = %v, want an error naming %s", err, missing)
	}
	gob := filepath.Join("testdata", "jobs-legacy.gob")
	_, err := Load(gob)
	if err == nil || !strings.Contains(err.Error(), gob) || !strings.Contains(err.Error(), "jobetl") {
		t.Errorf("Load(gob) = %v, want an error naming %s and jobetl", err, gob)
	}
}

// An unchanged row is not journaled again, a changed one always is,
// and the newest encoding per JobID survives a reopen.
func TestJournalSkipsUnchangedRow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.gsj")
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	j, err := OpenJournal(path, New(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*JobRow{jrow("1", "u", 10), jrow("1", "u", 10), jrow("1", "u", 20), jrow("1", "u", 10)} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = OpenJournal(path, New(), false); err != nil {
		t.Fatal(err)
	}
	if rows, _ := j.Replayed(); rows != 3 {
		t.Fatalf("replayed %d rows, want 3 (one duplicate skipped)", rows)
	}
	before := size()
	if err := j.Append(jrow("1", "u", 10)); err != nil {
		t.Fatal(err)
	}
	if size() != before {
		t.Fatal("reopened journal re-appended the newest row")
	}
	if err := j.Append(jrow("1", "u", 20)); err != nil {
		t.Fatal(err)
	}
	if size() == before {
		t.Fatal("changed row was skipped")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
