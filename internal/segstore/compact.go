// Compaction and retention. Sealed raw segments old enough to be out of
// the hot query window are downsampled into 10-minute buckets, and
// 10-minute segments into hourly ones; buckets carry (count, sum, min,
// max) so Sum/Avg/Min/Max stay exact at any coarser downsample width.
//
// Crash safety uses cover ranges instead of a manifest: the output
// segment records the input sequence range it consumed, is written to a
// temporary name, fsynced, and renamed into place before any input is
// deleted. A crash before the rename leaves only a tmp file (discarded
// at open); a crash after it leaves inputs whose seqs the new output
// covers — recovery deletes them, completing the compaction without
// ever double-counting a point.
package segstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"gostats/internal/fsutil"
)

// maxCompactInputs bounds one compaction run so a single pass never
// decodes an unbounded backlog into memory.
const maxCompactInputs = 32

// Compact runs one retention + compaction pass over every shard and
// returns the first error. It is also the body of the background loop.
func (s *Store) Compact() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if err := s.retentionLocked(sh); err != nil && first == nil {
			first = err
		}
		for t := 0; t < numTiers-1; t++ {
			if err := s.compactTierLocked(sh, t); err != nil && first == nil {
				first = err
			}
		}
		sh.mu.Unlock()
	}
	s.publishGauges()
	return first
}

// retentionLocked drops sealed segments wholly older than the tier's
// retention window, measured against the shard's newest point.
func (s *Store) retentionLocked(sh *shardState) error {
	for t := 0; t < numTiers; t++ {
		retain := s.opts.retain(t)
		if retain <= 0 {
			continue
		}
		cutoff := sh.newest - retain
		kept := sh.sealed[t][:0]
		for _, info := range sh.sealed[t] {
			if info.maxT < cutoff {
				if err := os.Remove(info.path); err != nil {
					return err
				}
				s.forget(sh, info)
				s.met.dropped.Add(info.count)
				s.statMu.Lock()
				s.stats.Dropped += info.count
				s.statMu.Unlock()
			} else {
				kept = append(kept, info)
			}
		}
		sh.sealed[t] = kept
	}
	return nil
}

// compactTierLocked downsamples the oldest run of sealed tier-t
// segments past the tier's compaction age, and below the shard's
// compaction limit, into one tier-(t+1) segment.
func (s *Store) compactTierLocked(sh *shardState, tier int) error {
	after := s.opts.compactAfter(tier)
	if after < 0 {
		return nil
	}
	cutoff := min(sh.newest-after, sh.compactBefore)
	var inputs []*segInfo
	for _, info := range sh.sealed[tier] {
		if info.maxT >= cutoff || len(inputs) >= maxCompactInputs {
			break
		}
		inputs = append(inputs, info)
	}
	if len(inputs) == 0 {
		return nil
	}

	width := tierWidth[tier+1]
	type bkey struct {
		ref    int
		bucket int64 // bucket start ms
	}
	var series []Ref // the output's series, in first-seen order
	refs := make(map[Labels]int)
	acc := make(map[bkey]*AggPoint)
	// An input that fails verification here (bit rot since its seal-time
	// check) is quarantined and dropped so compaction and retention keep
	// making progress — erroring out would wedge the tier forever while
	// raw backlog grows. The pass stops at the first damaged input so the
	// output's cover range spans only segments it actually consumed; the
	// inputs past it compact on the next pass.
	var used []*segInfo
	var dropped *segInfo
	for _, info := range inputs {
		data, err := os.ReadFile(info.path)
		var d *segData
		if err == nil {
			var good int
			var derr error
			d, good, derr = parseSegment(data)
			if derr == nil && good != len(data) {
				derr = fmt.Errorf("%d bytes of undecodable tail", len(data)-good)
			}
			if derr != nil && d != nil && d.indexTail {
				// Damage confined to the trailing index frame: the data
				// prefix is whole, so compact it rather than quarantine it.
				derr = nil
			}
			err = derr
		}
		if err != nil {
			s.quarantine(info.path, fmt.Errorf("compaction input: %w", err))
			s.forget(sh, info)
			dropped = info
			break
		}
		used = append(used, info)
		for i, l := range d.series {
			ref, ok := refs[l]
			if !ok {
				ref = len(series)
				refs[l] = ref
				series = append(series, Ref{Labels: l})
			}
			for _, p := range d.chunks[i] {
				b := int64(math.Floor(p.Time/width) * width * 1000)
				k := bkey{ref, b}
				a := acc[k]
				if a == nil {
					acc[k] = &AggPoint{Time: float64(b) / 1000, Count: p.Count, Sum: p.Sum, Min: p.Min, Max: p.Max}
					continue
				}
				a.Count += p.Count
				a.Sum += p.Sum
				if p.Min < a.Min {
					a.Min = p.Min
				}
				if p.Max > a.Max {
					a.Max = p.Max
				}
			}
		}
	}
	if dropped != nil {
		kept := sh.sealed[tier][:0]
		for _, info := range sh.sealed[tier] {
			if info != dropped {
				kept = append(kept, info)
			}
		}
		sh.sealed[tier] = kept
	}
	if len(used) == 0 {
		return nil
	}

	keys := make([]bkey, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bucket != keys[j].bucket {
			return keys[i].bucket < keys[j].bucket
		}
		return keys[i].ref < keys[j].ref
	})

	seq := sh.nextSeq
	sh.nextSeq++
	tmp := filepath.Join(sh.dir, fmt.Sprintf("tmp-t%d-%08d.seg", tier+1, seq))
	w, err := newSegWriter(tmp, Meta{
		Tier: tier + 1, Shard: sh.id, Seq: seq,
		CoverLo: used[0].seq, CoverHi: used[len(used)-1].seq,
		BucketMs: int64(width * 1000),
	}, false) // a tmp file: fsynced, renamed and directory-synced below
	if err != nil {
		return err
	}
	for _, k := range keys {
		w.add(&series[k.ref], *acc[k])
		if len(w.pending) >= s.opts.FlushBytes {
			if err := w.flushFrame(); err != nil {
				w.close()
				os.Remove(tmp)
				return err
			}
		}
	}
	ix, err := w.writeIndex()
	if err != nil {
		w.close()
		os.Remove(tmp)
		return err
	}
	if err := w.sync(); err != nil {
		w.close()
		os.Remove(tmp)
		return err
	}
	if err := w.close(); err != nil {
		os.Remove(tmp)
		return err
	}
	final := filepath.Join(sh.dir, sealedName(tier+1, seq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fsutil.SyncDir(sh.dir); err != nil {
		return err
	}

	// The output is durable; the inputs are now covered and can go.
	// (Quarantined inputs were already filtered out of sh.sealed[tier]
	// above, so `used` is exactly its current prefix.)
	for _, info := range used {
		os.Remove(info.path)
		s.forget(sh, info)
	}
	sh.sealed[tier] = append(sh.sealed[tier][:0], sh.sealed[tier][len(used):]...)
	sh.sealed[tier+1] = append(sh.sealed[tier+1], &segInfo{
		path: final, tier: tier + 1, seq: seq,
		coverLo: used[0].seq, coverHi: used[len(used)-1].seq,
		minT: w.minT, maxT: w.maxT,
		bytes: w.bytes, indexBytes: w.indexBytes, entries: w.entries, count: w.count,
		index: ix,
	})
	sort.Slice(sh.sealed[tier+1], func(i, j int) bool { return sh.sealed[tier+1][i].seq < sh.sealed[tier+1][j].seq })
	s.met.compactions.Inc()
	s.statMu.Lock()
	s.stats.Compactions++
	s.statMu.Unlock()
	return nil
}
