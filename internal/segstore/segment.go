// Segment file codec: the on-disk unit of the durable store. A segment
// is an internal/framelog file (magic "\x00GSS", format version 3; files
// of formats 1 and 2 are still read), so crash recovery is exact at
// frame granularity. Frames:
//
//	'M' meta frame   — tier, seq, cover range, shard, bucket width
//	'P' point frames — raw tier: (entry header, [Δms], [float64 value])*
//	'B' bucket frames— downsampled tiers: (entry header, [Δms], count,
//	                   sum, min, max)*
//	'I' index frame  — last frame of a sealed segment (index.go)
//
// Any other type, a second 'M', or an 'I' that is not the last frame is
// damage: no format wrote one, and the checksum does not cover the type
// byte, so skipping it would silently drop the frame's points.
//
// An entry header is one uvarint, ref<<3 | flags. Flag entTime says a
// zigzag Δms follows; without it the entry has the previous entry's
// time, which is the norm, since every point of a row shares one time.
// On a raw entry, entZero says the value is +0.0 and entRepeat that it
// repeats, bit for bit, the value of its series' previous entry in the
// same frame; the 8 value bytes follow only when neither is set. Both
// set, a repeat opening its series' run in the frame, or a value flag on
// a bucket entry is damage. Format 1 headers are the bare ref, always
// followed by the Δms and the value.
//
// Series labels are dictionary-encoded per file: a reference equal to
// the table size introduces the series' four labels inline. Format 3
// codes each label through a per-file, per-field string table (host,
// device type, device, event) that grows in introduction order: a
// uvarint 0 followed by the string for a string's first use, else 1 +
// its position in the table. Formats 1 and 2 write the four strings.
// Timestamps are millisecond deltas running across the whole file. All
// of this makes a valid prefix self-contained, which is what lets
// torn-tail truncation keep every complete frame. A repeat reaches back
// only within its frame, and an introduction is checked against the
// dictionary's labels rather than against the table as it stood, so a
// frame still decodes on its own from the index's time base, dictionary
// size, series and tables.
package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync/atomic"

	"gostats/internal/framelog"
)

// segMagic prefixes every segment file. The leading NUL keeps it
// unambiguous against the v1 text codec's '$' and readable by Sniff-like
// prefix checks.
var segMagic = [4]byte{0x00, 'G', 'S', 'S'}

const (
	// segFormatVersion is the format every new segment is written in.
	// segFormatV2 files, whose labels are inline strings, and segFormatV1
	// files, whose entries also carry no header flags, are read.
	segFormatVersion = 3
	segFormatV2      = 2
	segFormatV1      = 1

	// Entry header flags, the low entFlagBits bits of an entry's first
	// uvarint; the series ref is the rest.
	entTime     = 1 << 0 // a zigzag Δms follows
	entZero     = 1 << 1 // raw value +0.0
	entRepeat   = 1 << 2 // raw value of the series' previous entry in the frame
	entFlagBits = 3

	frameMeta   = 'M'
	framePoints = 'P'
	frameBucket = 'B'
	frameIndex  = 'I'

	// maxFramePayload bounds one frame so a corrupt length prefix cannot
	// drive a huge allocation.
	maxFramePayload = 1 << 26
	// maxSeriesTable bounds the per-file label dictionary.
	maxSeriesTable = 1 << 20

	// numFields is the number of label fields, each with its own string
	// table in a format-3 segment.
	numFields = 4
)

// Labels is the tag tuple of one series — the same (host, device type,
// device, event) layout the tsdb keys on.
type Labels struct {
	Host    string
	DevType string
	Device  string
	Event   string
}

// field returns label field f, in table order: host, device type,
// device, event.
func (l *Labels) field(f int) string {
	switch f {
	case 0:
		return l.Host
	case 1:
		return l.DevType
	case 2:
		return l.Device
	}
	return l.Event
}

// setField sets label field f, in the order field reads them.
func (l *Labels) setField(f int, s string) {
	switch f {
	case 0:
		l.Host = s
	case 1:
		l.DevType = s
	case 2:
		l.Device = s
	default:
		l.Event = s
	}
}

// segDict is what a reader knows of a segment's labels: the format its
// entries follow, the series by ref and, from format 3 on, the per-field
// string tables the labels are coded through.
type segDict struct {
	version uint64
	series  []Labels
	tables  [numFields][]string
}

// AggPoint is one stored sample: a raw point (Count 1, Sum == Min ==
// Max == the value) or a downsampled bucket carrying enough state to
// reconstruct Sum/Avg/Min/Max exactly at any coarser granularity.
type AggPoint struct {
	Time  float64
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
}

// Meta identifies a segment: its tier, its shard, its own sequence
// number, and — for compacted tiers — the range of lower-tier sequence
// numbers it consumed. Recovery uses the cover range to finish an
// interrupted compaction: any live tier-t segment whose seq falls in a
// live tier-(t+1) segment's cover was already rewritten and is deleted.
type Meta struct {
	Tier     int
	Shard    int
	Seq      uint64
	CoverLo  uint64
	CoverHi  uint64
	BucketMs int64 // downsample bucket width in ms (0 for raw)
}

// segData is one fully (or prefix-) decoded segment.
type segData struct {
	segDict // the file's format, series and string tables
	meta    Meta
	chunks  [][]AggPoint // parallel to series
	entries uint64       // physical entries decoded
	count   uint64       // logical raw points represented (sum of Count)
	frames  int          // data frames decoded
	minT    float64
	maxT    float64

	frameStats []frameStat // per data frame holding an entry
	// index is the segment's format-3 'I' frame when that decodes, else
	// one rebuilt from the decoded data frames; never nil.
	index      *segIndex
	indexBytes int64 // on-disk size of a checksum-valid 'I' frame
	// indexTail marks damage confined to a final index frame: the data
	// prefix is intact, so the caller may keep the segment (with its
	// rebuilt index) instead of quarantining it.
	indexTail bool
}

// Ref is a caller-held handle on one series for the append path: the
// series' labels plus the dictionary ref the active segment writer gave
// it. The cached ref is keyed by the writer's epoch, a process-unique
// number rather than a pointer, so a long-lived Ref never keeps a
// sealed writer and its dictionary reachable; a Ref from an earlier
// writer (after a seal, a reopen, or in another store) is simply looked
// up again. A Ref must only be used under its shard's lock, which
// AppendRow takes.
type Ref struct {
	Labels Labels
	epoch  uint64
	id     uint64
}

// writerEpochs numbers segment writers process-wide — a Ref outlives
// its writer and may outlive its Store (a reopen), so epochs must not
// repeat across Stores. Epoch 0 is never issued, so a zero Ref always
// resolves through the dictionary.
var writerEpochs atomic.Uint64

// segWriter appends frames to a segment file. Appends accumulate into a
// pending frame buffer; flushFrame hands one complete frame to the OS
// in a single write, so the frame is the atomic unit on disk.
type segWriter struct {
	f     *os.File
	path  string
	meta  Meta
	epoch uint64

	dict    map[Labels]uint64
	series  []Labels   // dictionary by ref
	codes   labelCoder // the per-field string tables labels are coded through
	prevMs  int64
	pending []byte // entries of the frame being built
	nPend   int
	payload []byte // scratch frame payload: entry count + pending
	out     []byte // scratch assembled frame

	bytes   int64
	entries uint64
	count   uint64
	minT    float64
	maxT    float64

	frames  []frameStat // stats of flushed data frames
	fstat   frameStat   // stats of the frame being built
	frameNo uint64      // number of the frame being built, from 1
	stamp   []uint64    // by ref: the last frameNo the ref appeared in
	last    []uint64    // by ref: the value bits of its last raw entry
	frefs   []uint64    // distinct refs in the frame being built

	indexBytes int64 // on-disk size of the index frame, once written
}

// newSegWriter creates path and writes the preamble and meta frame.
// With sync set the new file's directory entry is fsynced, so frames a
// later sync() makes durable cannot vanish with it.
func newSegWriter(path string, meta Meta, sync bool) (*segWriter, error) {
	f, n, err := framelog.Create(path, segMagic, segFormatVersion, sync)
	if err != nil {
		return nil, err
	}
	w := &segWriter{
		f: f, path: path, meta: meta, bytes: int64(n),
		epoch: writerEpochs.Add(1),
		dict:  make(map[Labels]uint64),
		codes: newLabelCoder(),
	}
	mp := make([]byte, 0, 32)
	mp = binary.AppendUvarint(mp, uint64(meta.Tier))
	mp = binary.AppendUvarint(mp, uint64(meta.Shard))
	mp = binary.AppendUvarint(mp, meta.Seq)
	mp = binary.AppendUvarint(mp, meta.CoverLo)
	mp = binary.AppendUvarint(mp, meta.CoverHi)
	mp = binary.AppendUvarint(mp, uint64(meta.BucketMs))
	if err := w.writeFrame(frameMeta, mp); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// resolve returns r's dictionary ref in this writer, adding the series
// when it is new here (fresh reports that), and caches it in r.
func (w *segWriter) resolve(r *Ref) (id uint64, fresh bool) {
	if r.epoch == w.epoch {
		return r.id, false
	}
	id, ok := w.dict[r.Labels]
	if !ok {
		id = uint64(len(w.series))
		w.dict[r.Labels] = id
		w.series = append(w.series, r.Labels)
		w.stamp = append(w.stamp, 0)
		w.last = append(w.last, 0)
	}
	r.epoch, r.id = w.epoch, id
	return id, !ok
}

// labelCoder holds a format-3 writer's per-field string tables, each in
// introduction order, with every string's position in its table.
type labelCoder struct {
	tables [numFields][]string
	pos    [numFields]map[string]uint64
}

func newLabelCoder() labelCoder {
	var lc labelCoder
	for f := range lc.pos {
		lc.pos[f] = make(map[string]uint64)
	}
	return lc
}

// appendLabels appends the format-3 introduction of l: per field, 1 +
// the string's position in its table, or 0 and the string inline when
// the table does not hold it yet, which adds it there. It is the only
// label encoder of data frames, at four map lookups per new series.
func (lc *labelCoder) appendLabels(b []byte, l Labels) []byte {
	for f := 0; f < numFields; f++ {
		s := l.field(f)
		if i, ok := lc.pos[f][s]; ok {
			b = binary.AppendUvarint(b, i+1)
			continue
		}
		lc.pos[f][s] = uint64(len(lc.tables[f]))
		lc.tables[f] = append(lc.tables[f], s)
		b = framelog.AppendString(append(b, 0), s)
	}
	return b
}

// readValue reads one entry's value into p: a raw point's float64, or a
// bucket's count, sum, min and max.
func readValue(c *framelog.Cursor, typ byte, p *AggPoint) error {
	if typ == framePoints {
		v, err := c.Float()
		p.Count, p.Sum, p.Min, p.Max = 1, v, v, v
		return err
	}
	var err error
	if p.Count, err = c.Uvarint(); err != nil {
		return err
	}
	for _, f := range [...]*float64{&p.Sum, &p.Min, &p.Max} {
		if *f, err = c.Float(); err != nil {
			return err
		}
	}
	return nil
}

// add buffers one entry for r's series: its header (dictionary ref and
// flags), the four label codes inline when the entry introduces the
// series, its time delta unless the time is the previous entry's, and
// its value. Raw-tier segments store the single value, unless it is +0.0
// or repeats the series' previous value in this frame; the downsampled
// tiers store the full (count, sum, min, max) bucket. It is the writer's
// only entry encoder.
func (w *segWriter) add(r *Ref, p AggPoint) {
	ms := int64(math.Round(p.Time * 1000))
	if w.nPend == 0 {
		// Snapshot the decode context a standalone reader needs to enter
		// this frame: the running delta base and the dictionary size.
		w.fstat = frameStat{firstMs: w.prevMs, minMs: ms, maxMs: ms, dictBase: uint64(len(w.series))}
		w.frameNo++
		w.frefs = w.frefs[:0]
	}
	id, fresh := w.resolve(r)
	opens := w.stamp[id] != w.frameNo
	if opens {
		w.stamp[id] = w.frameNo
		w.frefs = append(w.frefs, id)
	}
	var flags uint64
	if ms != w.prevMs {
		flags |= entTime
	}
	raw := w.meta.Tier == tierRaw
	if raw {
		bits := math.Float64bits(p.Sum)
		if bits == 0 {
			flags |= entZero
		} else if !opens && w.last[id] == bits {
			flags |= entRepeat
		}
		w.last[id] = bits
	}
	w.pending = binary.AppendUvarint(w.pending, id<<entFlagBits|flags)
	if fresh {
		w.pending = w.codes.appendLabels(w.pending, r.Labels)
	}
	if ms < w.fstat.minMs {
		w.fstat.minMs = ms
	}
	if ms > w.fstat.maxMs {
		w.fstat.maxMs = ms
	}
	if flags&entTime != 0 {
		w.pending = binary.AppendVarint(w.pending, ms-w.prevMs)
		w.prevMs = ms
	}
	switch {
	case !raw:
		w.pending = binary.AppendUvarint(w.pending, p.Count)
		w.pending = binary.LittleEndian.AppendUint64(w.pending, math.Float64bits(p.Sum))
		w.pending = binary.LittleEndian.AppendUint64(w.pending, math.Float64bits(p.Min))
		w.pending = binary.LittleEndian.AppendUint64(w.pending, math.Float64bits(p.Max))
	case flags&(entZero|entRepeat) == 0:
		w.pending = binary.LittleEndian.AppendUint64(w.pending, math.Float64bits(p.Sum))
	}
	w.nPend++
	if w.entries == 0 && w.nPend == 1 {
		w.minT = p.Time
	} else if p.Time < w.minT {
		w.minT = p.Time
	}
	if p.Time > w.maxT {
		w.maxT = p.Time
	}
	w.entries++
	w.count += p.Count
}

// flushFrame writes the pending entries as one complete frame and
// records its index stats. The entries leave the pending buffer only
// once their frame is written, so a failed write keeps them readable.
func (w *segWriter) flushFrame() error {
	if w.nPend == 0 {
		return nil
	}
	typ := byte(framePoints)
	if w.meta.Tier != tierRaw {
		typ = frameBucket
	}
	w.payload = w.appendPayload(w.payload[:0])
	off := w.bytes
	if err := w.writeFrame(typ, w.payload); err != nil {
		return err
	}
	w.pending = w.pending[:0]
	w.nPend = 0
	fs := w.fstat
	fs.refs = slices.Clone(w.frefs)
	slices.Sort(fs.refs)
	fs.off = off
	fs.size = w.bytes - off
	w.frames = append(w.frames, fs)
	return nil
}

// appendPayload appends the pending entries to b as a data frame
// payload: the entry count, then the entries.
func (w *segWriter) appendPayload(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(w.nPend))
	return append(b, w.pending...)
}

// writeIndex flushes the pending frame and appends the segment's index
// frame; seal paths call it so the index is the last frame of every
// sealed segment. It returns the in-memory index so the caller can
// attach it to the segment's bookkeeping without re-reading the file.
func (w *segWriter) writeIndex() (*segIndex, error) {
	if err := w.flushFrame(); err != nil {
		return nil, err
	}
	// The index lives as long as the sealed segment: give it exact-size
	// copies of the dictionary and tables, not the append-grown slices.
	ix := &segIndex{segDict: segDict{version: segFormatVersion, series: slices.Clone(w.series)}, frames: w.frames}
	for f, tab := range w.codes.tables {
		ix.tables[f] = slices.Clone(tab)
	}
	off := w.bytes
	if err := w.writeFrame(frameIndex, encodeIndexPayload(ix)); err != nil {
		return nil, err
	}
	w.indexBytes = w.bytes - off
	return ix, nil
}

func (w *segWriter) writeFrame(typ byte, payload []byte) error {
	w.out = framelog.Append(w.out[:0], typ, payload)
	n, err := w.f.Write(w.out)
	w.bytes += int64(n)
	return err
}

func (w *segWriter) sync() error { return w.f.Sync() }

// close flushes the pending frame and closes the file without renaming;
// the caller decides whether to seal or abort.
func (w *segWriter) close() error {
	err := w.flushFrame()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// entryDecoder reads the data-frame entries of a segment whose labels
// dict describes. A sequential parse (grow set) builds each introduced
// series' labels in intro, adding a format-3 introduction's new strings
// to dict's tables; a standalone decode instead checks every label of
// an introduction against the dictionary's series, allocating nothing.
type entryDecoder struct {
	c      framelog.Cursor
	typ    byte
	dict   *segDict
	grow   bool
	size   uint64 // series introduced so far: the ref a new one takes
	prevMs int64  // the running time base
	intro  Labels // the labels of the last introduction, when grow
}

// next reads one entry: its series ref, whether the entry introduced the
// series (with its labels, which are consumed and checked), its time
// advanced from the running base, and its value. A raw entry that
// repeats its series' previous value in the frame comes back with rep
// set and the value left for the caller, which tracks the frame's
// series, to fill in.
func (e *entryDecoder) next() (ref uint64, introduced bool, p AggPoint, rep bool, err error) {
	c := &e.c
	if ref, err = c.Uvarint(); err != nil {
		return 0, false, p, false, fmt.Errorf("series: %w", err)
	}
	flags := uint64(entTime)
	if e.dict.version != segFormatV1 {
		ref, flags = ref>>entFlagBits, ref&(1<<entFlagBits-1)
		switch {
		case e.typ != framePoints && flags&^entTime != 0:
			return 0, false, p, false, fmt.Errorf("value flags %#x on a bucket entry", flags)
		case flags&(entZero|entRepeat) == entZero|entRepeat:
			return 0, false, p, false, fmt.Errorf("zero and repeat flags both set")
		}
	}
	if ref > e.size {
		return 0, false, p, false, fmt.Errorf("series ref %d skips table size %d", ref, e.size)
	}
	if ref == e.size {
		if err := e.readIntro(ref); err != nil {
			return 0, false, p, false, fmt.Errorf("series %d: %w", ref, err)
		}
		e.size++
		introduced = true
	}
	if flags&entTime != 0 {
		dt, err := c.Varint()
		if err != nil {
			return 0, false, p, false, fmt.Errorf("time: %w", err)
		}
		e.prevMs += dt
	}
	p.Time = float64(e.prevMs) / 1000
	if flags&(entZero|entRepeat) != 0 {
		p.Count = 1
		return ref, introduced, p, flags&entRepeat != 0, nil
	}
	if err := readValue(c, e.typ, &p); err != nil {
		return 0, false, p, false, fmt.Errorf("value: %w", err)
	}
	return ref, introduced, p, false, nil
}

// readIntro reads the labels of an entry that introduces series ref:
// per field a code into the field's table (format 3) or the string.
func (e *entryDecoder) readIntro(ref uint64) error {
	var want *Labels
	if !e.grow {
		if ref >= uint64(len(e.dict.series)) {
			return fmt.Errorf("inline series outside the dictionary of %d", len(e.dict.series))
		}
		want = &e.dict.series[ref]
	}
	for f := 0; f < numFields; f++ {
		if e.dict.version == segFormatVersion {
			code, err := e.c.Uvarint()
			if err != nil {
				return err
			}
			if code > 0 {
				tab := e.dict.tables[f]
				if code > uint64(len(tab)) {
					return fmt.Errorf("label %d index %d past the end of its table of %d", f, code-1, len(tab))
				}
				if s := tab[code-1]; e.grow {
					e.intro.setField(f, s)
				} else if s != want.field(f) {
					return fmt.Errorf("inline labels disagree with the dictionary")
				}
				continue
			}
		}
		b, err := e.c.Bytes()
		if err != nil {
			return err
		}
		if !e.grow {
			if string(b) != want.field(f) {
				return fmt.Errorf("inline labels disagree with the dictionary")
			}
			continue
		}
		s := string(b)
		if e.dict.version == segFormatVersion {
			e.dict.tables[f] = append(e.dict.tables[f], s)
		}
		e.intro.setField(f, s)
	}
	return nil
}

// parseSegment decodes a segment. It returns the decoded prefix with
// its index, the byte length of the valid prefix (preamble plus every
// complete frame), and the damage error (nil when the whole file
// decoded). Callers use the triple differently: strict opens quarantine
// on any damage, active recovery truncates to goodLen and keeps the
// prefix.
func parseSegment(data []byte) (*segData, int, error) {
	d := &segData{}
	var start int
	pre := framelog.PreambleVersion
	for _, v := range [...]uint64{segFormatVersion, segFormatV2, segFormatV1} {
		if start, pre = framelog.CheckPreamble(data, segMagic, v); pre != framelog.PreambleVersion {
			d.version = v
			break
		}
	}
	if pre != framelog.PreambleOK {
		return nil, 0, fmt.Errorf("segstore: %s segment preamble", pre)
	}
	var prevMs int64
	sawMeta := false
	good, damage := framelog.Scan(data, start, maxFramePayload, func(f framelog.Frame) error {
		switch f.Type {
		case frameMeta:
			if sawMeta {
				return fmt.Errorf("segstore: second meta frame at offset %d", f.Off)
			}
			if err := d.applyMeta(&framelog.Cursor{B: f.Payload}); err != nil {
				return err
			}
			sawMeta = true
			return nil
		case framePoints, frameBucket:
			if !sawMeta {
				return fmt.Errorf("segstore: data frame before meta frame")
			}
			fs := frameStat{off: int64(f.Off), size: int64(f.End - f.Off), firstMs: prevMs, dictBase: uint64(len(d.series))}
			if err := d.applyData(f.Payload, f.Type, &prevMs, &fs); err != nil {
				return err
			}
			if len(fs.refs) > 0 {
				d.frameStats = append(d.frameStats, fs)
			}
			return nil
		case frameIndex:
			if f.End != len(data) {
				return fmt.Errorf("segstore: index frame at offset %d is not the last frame", f.Off)
			}
			// A CRC-valid index frame whose payload fails to decode, or
			// one of an older format, is rebuilt below: the data frames
			// stand on their own.
			d.indexBytes = int64(f.End - f.Off)
			if sawMeta && d.version == segFormatVersion {
				if ix, err := parseIndexPayload(f.Payload, int64(f.Off)); err == nil {
					d.index = ix
				}
			}
			return nil
		}
		return fmt.Errorf("segstore: unknown frame type %q at offset %d", f.Type, f.Off)
	})
	var dmg *framelog.Damage
	if errors.As(damage, &dmg) {
		// Damage confined to a final index frame leaves the data prefix
		// whole, so the caller may keep the segment without its index.
		d.indexTail = dmg.Type == frameIndex && dmg.AtEOF
	}
	if !sawMeta {
		if damage == nil {
			damage = fmt.Errorf("segstore: segment has no meta frame")
		}
		return nil, start, damage
	}
	if d.index == nil {
		d.index = &segIndex{segDict: d.segDict, frames: d.frameStats}
	}
	return d, good, damage
}

func (d *segData) applyMeta(c *framelog.Cursor) error {
	vals := make([]uint64, 6)
	for i := range vals {
		v, err := c.Uvarint()
		if err != nil {
			return fmt.Errorf("segstore: meta frame: %w", err)
		}
		vals[i] = v
	}
	if vals[0] >= numTiers {
		return fmt.Errorf("segstore: meta tier %d out of range", vals[0])
	}
	d.meta = Meta{
		Tier: int(vals[0]), Shard: int(vals[1]), Seq: vals[2],
		CoverLo: vals[3], CoverHi: vals[4], BucketMs: int64(vals[5]),
	}
	return nil
}

// applyData decodes one data frame into d, whole or not at all: on
// damage, the entries and strings decoded before it are taken back, so d
// holds exactly the complete frames of the valid prefix that recovery
// keeps.
func (d *segData) applyData(payload []byte, typ byte, prevMs *int64, fs *frameStat) (err error) {
	if typ == framePoints && d.meta.Tier != tierRaw {
		return fmt.Errorf("segstore: point frame in tier-%d segment", d.meta.Tier)
	}
	if typ == frameBucket && d.meta.Tier == tierRaw {
		return fmt.Errorf("segstore: bucket frame in raw segment")
	}
	e := entryDecoder{c: framelog.Cursor{B: payload}, typ: typ, dict: &d.segDict, grow: true, size: uint64(len(d.series)), prevMs: *prevMs}
	// A format-2 entry may be a lone header byte.
	n, err := e.c.Count(1)
	if err != nil {
		return fmt.Errorf("segstore: entry count: %w", err)
	}
	// seen holds each series the frame has touched, with its chunk
	// length before the frame.
	seen := make(map[uint64]int, 8)
	nSeries, entries, count, minT, maxT := len(d.series), d.entries, d.count, d.minT, d.maxT
	var nStrings [numFields]int
	for f, tab := range d.tables {
		nStrings[f] = len(tab)
	}
	defer func() {
		if err == nil {
			*prevMs = e.prevMs
			return
		}
		for ref, k := range seen {
			if ref < uint64(nSeries) {
				d.chunks[ref] = d.chunks[ref][:k]
			}
		}
		d.series, d.chunks = d.series[:nSeries], d.chunks[:nSeries]
		for f, k := range nStrings {
			d.tables[f] = d.tables[f][:k]
		}
		d.entries, d.count, d.minT, d.maxT = entries, count, minT, maxT
	}()
	for i := 0; i < n; i++ {
		ref, introduced, p, rep, err := e.next()
		if err != nil {
			return fmt.Errorf("segstore: entry %w", err)
		}
		if introduced {
			if len(d.series) >= maxSeriesTable {
				return fmt.Errorf("segstore: series table overflow")
			}
			d.series = append(d.series, e.intro)
			d.chunks = append(d.chunks, nil)
		}
		_, inFrame := seen[ref]
		if !inFrame {
			seen[ref] = len(d.chunks[ref])
			fs.refs = append(fs.refs, ref)
		}
		if rep {
			// The series' last chunk point is its previous entry in this
			// frame; without one the repeat has nothing to repeat.
			if !inFrame {
				return fmt.Errorf("segstore: entry repeats a value series %d has not had in its frame", ref)
			}
			v := d.chunks[ref][len(d.chunks[ref])-1].Sum
			p.Sum, p.Min, p.Max = v, v, v
		}
		if i == 0 {
			fs.minMs, fs.maxMs = e.prevMs, e.prevMs
		} else {
			if e.prevMs < fs.minMs {
				fs.minMs = e.prevMs
			}
			if e.prevMs > fs.maxMs {
				fs.maxMs = e.prevMs
			}
		}
		d.chunks[ref] = append(d.chunks[ref], p)
		if d.entries == 0 {
			d.minT, d.maxT = p.Time, p.Time
		} else {
			if p.Time < d.minT {
				d.minT = p.Time
			}
			if p.Time > d.maxT {
				d.maxT = p.Time
			}
		}
		d.entries++
		d.count += p.Count
	}
	if e.c.Len() != 0 {
		return fmt.Errorf("segstore: %d trailing bytes in data frame", e.c.Len())
	}
	sort.Slice(fs.refs, func(i, j int) bool { return fs.refs[i] < fs.refs[j] })
	d.frames++
	return nil
}
