// Cold storage attachment: an optional segstore behind the RAM-resident
// hot shards. With a store attached, every write goes through to the durable
// segment log, CommitCold periodically flushes it and drops the RAM host
// rows older than the hot window, and Do transparently merges cold segments
// into query results — the half-open split [Start, boundary) from disk
// and [boundary, End] from RAM means no point is ever counted twice and
// none is ever missed. A downsampled bucket cannot be split at the
// boundary, so compaction is held below it: each stripe limits its
// shard's compaction to its previous boundary, so even a query that
// captured that one just before an advance meets no bucket reaching
// past it.
package tsdb

import (
	"fmt"
	"math"

	"gostats/internal/segstore"
)

// AttachCold puts a durable segment store behind the DB. Points older
// than hotWindow seconds (relative to the newest ingested point) are
// evicted from RAM after they are flushed to the store; queries span
// both halves transparently. Must be called before the DB is shared
// across goroutines. The store's shard fan-out must match the DB's so
// host routing agrees stripe for stripe.
func (db *DB) AttachCold(cs *segstore.Store, hotWindow float64) error {
	if cs.NumShards() != numShards {
		return fmt.Errorf("tsdb: cold store has %d shards, hot set has %d", cs.NumShards(), numShards)
	}
	if hotWindow <= 0 {
		hotWindow = 2 * 3600
	}
	db.cold = cs
	db.hotWindow = hotWindow
	newest := cs.Newest()
	db.newest.Store(math.Float64bits(newest))
	// Everything already in the store predates this process's RAM: the
	// boundary starts just above the store's newest point (the cold
	// range is half-open, so Nextafter keeps the newest point itself
	// cold) and a restarted node serves its whole history from disk.
	b := 0.0
	if newest > 0 {
		b = math.Nextafter(newest, math.MaxFloat64)
		db.lastEvict = newest
	}
	for i := range db.shards {
		db.shards[i].coldBoundary = b
		cs.LimitCompaction(i, b)
	}
	return nil
}

// Cold returns the attached store (nil if none).
func (db *DB) Cold() *segstore.Store { return db.cold }

// CommitCold advances the hot/cold boundary: amortized to run once per
// quarter hot-window of ingested time, it flushes each stripe's cold
// shard and only then drops that stripe's host rows older than
// (newest − hotWindow), one binary search per host, setting the boundary
// in the same critical section as the eviction so queries never see a
// gap or an overlap.
// Call it on the ingest path; it is a fast no-op when no eviction is
// due: the cadence runs on the newest time the DB itself has written,
// so the store is touched only when eviction is due.
func (db *DB) CommitCold() error {
	cs := db.cold
	if cs == nil {
		return nil
	}
	newest := math.Float64frombits(db.newest.Load())
	db.coldMu.Lock()
	due := newest >= db.lastEvict+db.hotWindow/4
	if due {
		db.lastEvict = newest
	}
	db.coldMu.Unlock()
	if !due {
		return nil
	}
	boundary := newest - db.hotWindow
	if boundary <= 0 {
		// Nothing old enough to evict, but still flush so cold-write
		// errors surface on the ingest path as documented.
		return cs.Commit()
	}
	var first error
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		// Eviction is only safe once the evicted points are out of
		// process memory and owned by the OS/disk. putRow appends to the
		// cold store under this same stripe lock, so flushing stripe i
		// here — inside the critical section — guarantees every RAM
		// point below the boundary is already in an OS-owned frame
		// before it is trimmed; a flush error skips the trim entirely.
		if err := cs.CommitShard(i); err != nil {
			sh.mu.Unlock()
			if first == nil {
				first = err
			}
			continue
		}
		// The boundary only ever advances: on a restarted node it starts
		// at the store's newest point (RAM holds nothing older), and
		// moving it backwards would open a gap between the evicted RAM
		// and the cold scan window.
		if boundary > sh.coldBoundary {
			for _, hr := range sh.hosts {
				hr.evictBefore(boundary)
			}
			// A query that captured the old boundary may still be reading
			// the cold side below it, and counted RAM points above it, so
			// compaction may reach the old boundary but not the new one.
			cs.LimitCompaction(i, sh.coldBoundary)
			sh.coldBoundary = boundary
		}
		sh.mu.Unlock()
	}
	return first
}

// coldWindow computes the half-open cold range [q.Start, end) for a
// shard boundary; ok=false when the cold store owns none of the query.
func coldWindow(q Query, boundary float64) (float64, bool) {
	if boundary <= 0 || q.Start >= boundary {
		return 0, false
	}
	end := boundary
	if q.End > 0 {
		// q.End is inclusive in Query semantics; Nextafter makes the
		// half-open cold scan include points exactly at q.End.
		if e := math.Nextafter(q.End, math.MaxFloat64); e < end {
			end = e
		}
	}
	if q.Start >= end {
		return 0, false
	}
	return end, true
}
