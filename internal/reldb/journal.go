// Journal: the crash-safe system of record for finalized jobs. Instead
// of rewriting the whole table as a gob blob on a timer (the legacy
// Save/Load export), every finalized JobRow is appended as one JSON
// frame (an internal/framelog file: magic "\x00GSJ", version 1) the
// moment it exists; Open replays the log (last write per JobID wins,
// torn tail truncated) and then continues appending in place. A kill -9
// at any instant loses at most rows whose frames never reached the OS —
// rows whose append returned with Sync on survive even power loss.
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

	replayed  int // rows recovered at open
	truncated int // torn-tail truncations at open
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
	j := &Journal{path: path, sync: sync}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	start, pre := framelog.CheckPreamble(data, jnlMagic, jnlVersion)
	switch pre {
	case framelog.PreambleForeign, framelog.PreambleVersion:
		return nil, fmt.Errorf("reldb: %s is not a journal (%s preamble); refusing to modify it", path, pre)
	case framelog.PreamblePartial:
		f, n, err := framelog.Create(path, jnlMagic, jnlVersion, sync)
		if err != nil {
			return nil, err
		}
		if len(data) > 0 {
			j.truncated++
		}
		j.f = f
		j.off = int64(n)
		return j, nil
	}

	good, rows, derr := replay(data, start)
	if derr != nil {
		// Torn or damaged tail past a verified preamble: keep the valid
		// prefix. This is the normal post-crash path, not an error.
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, err
		}
		j.truncated++
	}
	for _, r := range rows {
		db.Insert(r)
	}
	j.replayed = len(rows)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	j.off = int64(good)
	return j, nil
}

// replay decodes the journal's frames from start, returning the valid
// prefix length, the decoded rows in append order, and the damage error
// (nil when the whole file decoded).
func replay(data []byte, start int) (good int, rows []*JobRow, damage error) {
	good, damage = framelog.Scan(data, start, jnlMaxPayload, func(f framelog.Frame) error {
		if f.Type != jnlFrameRow {
			return fmt.Errorf("reldb: unknown journal frame type %q at %d", f.Type, f.Off)
		}
		var row JobRow
		if err := json.Unmarshal(f.Payload, &row); err != nil {
			return fmt.Errorf("reldb: undecodable row frame at %d: %w", f.Off, err)
		}
		rows = append(rows, &row)
		return nil
	})
	return good, rows, damage
}

// Append writes one finalized row durably. The frame is handed to the
// OS in a single write (and fsynced when the journal is sync-mode), so
// a crash can tear at most the frame in flight — never a replayed row.
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
	frame := framelog.Append(make([]byte, 0, len(payload)+16), jnlFrameRow, payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("reldb: journal closed")
	}
	if j.werr != nil {
		return j.werr
	}
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
