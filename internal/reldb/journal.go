// Journal: the job table's one on-disk format. Every finalized JobRow
// is appended as one JSON frame (an internal/framelog file: magic
// "\x00GSJ", version 1) the moment it exists; a reader replays the log
// with the last write per JobID winning. Load reads a journal without
// touching it; OpenJournal replays it, truncates a torn tail, and then
// continues appending in place. A kill -9 at any instant loses at most
// rows whose frames never reached the OS — rows whose append returned
// with Sync on survive even power loss.
package reldb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gostats/internal/framelog"
	"gostats/internal/fsutil"
)

// jnlMagic prefixes the journal file ("gostats journal").
var jnlMagic = [4]byte{0x00, 'G', 'S', 'J'}

const (
	jnlVersion  = 1
	jnlFrameRow = 'J'
	// jnlMaxPayload bounds one frame so a corrupt length can't drive a
	// huge allocation during replay.
	jnlMaxPayload = 1 << 24
)

// Journal is an append-only finalized-job log bound to a DB.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	sync bool
	off  int64 // durable end offset: preamble plus every acked frame
	werr error // sticky write error; every Append fails after the first
	// last holds the encoding of each JobID's newest frame, so an
	// unchanged row is not journaled again.
	last map[string]string

	replayed  int // rows recovered at open
	truncated int // torn-tail truncations at open
}

// jnlImage is one read of a journal file: its preamble, its size, the
// end of its intact prefix, and the rows that prefix holds in append
// order.
type jnlImage struct {
	pre  framelog.Preamble
	size int
	good int
	rows []*JobRow
}

// readJournal reads and decodes path in a single scan, never modifying
// it. A partial preamble (a crash before it reached disk) reads as an
// empty journal. With last non-nil, it records each JobID's newest
// frame encoding there.
func readJournal(path string, last map[string]string) (*jnlImage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	start, pre := framelog.CheckPreamble(data, jnlMagic, jnlVersion)
	img := &jnlImage{pre: pre, size: len(data)}
	if pre == framelog.PreambleOK {
		img.good, img.rows, _ = replay(data, start, last)
	}
	return img, nil
}

// Load reads the job table journaled at path without modifying the
// file, so it is safe while a writer is still appending. A torn or
// damaged tail yields the intact prefix. A missing file is an error,
// and so is a file that is not a journal (a jobs.gob from an older
// release, say): the table must be rebuilt with jobetl.
func Load(path string) (*DB, error) {
	img, err := readJournal(path, nil)
	if err != nil {
		return nil, fmt.Errorf("reldb: load: %w", err)
	}
	if img.pre == framelog.PreambleForeign || img.pre == framelog.PreambleVersion {
		return nil, fmt.Errorf("reldb: %s is not a job journal (%s preamble); rerun jobetl to rebuild the table", path, img.pre)
	}
	db := New()
	db.Insert(img.rows...)
	return db, nil
}

// OpenJournal replays path into db (creating the file if absent) and
// returns a journal positioned to append. A torn final frame — the
// signature of a crash mid-append — is truncated away; anything before
// it is intact by CRC. With sync set, every Append fsyncs, and a
// journal file OpenJournal creates has its directory entry fsynced.
//
// Header damage is handled separately from tail damage: a missing,
// empty, or partial-preamble file (a crash between create and the
// preamble reaching disk) is rewritten from scratch with a fresh
// preamble, and a file whose first bytes are neither the preamble nor a
// prefix of it is refused outright — it is not a journal this version
// reads, and truncating it would destroy someone else's data. Appends
// only ever go to a file whose preamble was verified or just rewritten.
func OpenJournal(path string, db *DB, sync bool) (*Journal, error) {
	j := &Journal{path: path, sync: sync, last: map[string]string{}}
	img, err := readJournal(path, j.last)
	if os.IsNotExist(err) {
		img, err = &jnlImage{pre: framelog.PreamblePartial}, nil
	}
	if err != nil {
		return nil, err
	}
	switch img.pre {
	case framelog.PreambleForeign, framelog.PreambleVersion:
		return nil, fmt.Errorf("reldb: %s is not a journal (%s preamble); refusing to modify it", path, img.pre)
	case framelog.PreamblePartial:
		f, n, err := framelog.Create(path, jnlMagic, jnlVersion, sync)
		if err != nil {
			return nil, err
		}
		if img.size > 0 {
			j.truncated++
		}
		j.f = f
		j.off = int64(n)
		return j, nil
	}

	if img.good < img.size {
		// Torn or damaged tail past a verified preamble: keep the valid
		// prefix. This is the normal post-crash path, not an error.
		if err := os.Truncate(path, int64(img.good)); err != nil {
			return nil, err
		}
		j.truncated++
	}
	db.Insert(img.rows...)
	j.replayed = len(img.rows)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	j.off = int64(img.good)
	return j, nil
}

// replay decodes the journal's frames from start, returning the valid
// prefix length, the decoded rows in append order, and the damage error
// (nil when the whole file decoded). With last non-nil, it records each
// JobID's newest frame encoding there.
func replay(data []byte, start int, last map[string]string) (good int, rows []*JobRow, damage error) {
	good, damage = framelog.Scan(data, start, jnlMaxPayload, func(f framelog.Frame) error {
		if f.Type != jnlFrameRow {
			return fmt.Errorf("reldb: unknown journal frame type %q at %d", f.Type, f.Off)
		}
		var row JobRow
		if err := json.Unmarshal(f.Payload, &row); err != nil {
			return fmt.Errorf("reldb: undecodable row frame at %d: %w", f.Off, err)
		}
		rows = append(rows, &row)
		if last != nil {
			last[row.JobID] = string(f.Payload)
		}
		return nil
	})
	return good, rows, damage
}

// Append writes one finalized row durably. The frame is handed to the
// OS in a single write (and fsynced when the journal is sync-mode), so
// a crash can tear at most the frame in flight — never a replayed row.
// A row whose encoding is byte-identical to the newest one journaled
// for its JobID is already on disk and writes nothing, so rerunning the
// ETL over unchanged input leaves the file unchanged.
//
// Write errors are sticky: a failed frame write (short write, ENOSPC)
// may leave a torn frame on disk, and replay stops at the first damage
// — so appending past it would be acknowledging rows that recovery can
// never see. The first error latches, the torn frame is trimmed back
// to the last acked offset (best effort), and every later Append fails
// with the same error.
func (j *Journal) Append(row *JobRow) error {
	payload, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("reldb: journal append: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("reldb: journal closed")
	}
	if j.werr != nil {
		return j.werr
	}
	if j.last[row.JobID] == string(payload) {
		return nil
	}
	frame := framelog.Append(make([]byte, 0, len(payload)+16), jnlFrameRow, payload)
	if _, err := j.f.Write(frame); err != nil {
		j.werr = fmt.Errorf("reldb: journal append: %w", err)
		j.f.Truncate(j.off)
		return j.werr
	}
	j.off += int64(len(frame))
	if j.sync {
		if err := j.f.Sync(); err != nil {
			j.werr = fmt.Errorf("reldb: journal sync: %w", err)
			return j.werr
		}
	}
	j.last[row.JobID] = string(payload)
	return nil
}

// Replayed reports rows recovered and torn-tail truncations at open.
func (j *Journal) Replayed() (rows, truncations int) { return j.replayed, j.truncated }

// Close fsyncs and closes the journal. A latched write error takes
// precedence over close-time errors — it is the one that lost data.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.werr
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if err == nil {
		err = fsutil.SyncDir(filepath.Dir(j.path))
	}
	if j.werr != nil {
		return j.werr
	}
	return err
}
