// Codec v2: the framed binary snapshot format. Compared with the text
// codec it trades human readability for size and decode speed:
//
//   - the schema registry is carried once in a header frame, and every
//     record names its class by index into that header's schema order;
//   - instance names and job ids are dictionary-encoded against a
//     per-stream string table (a reference equal to the current table
//     size introduces a new string inline);
//   - counter vectors are delta-encoded per (class, instance) against
//     the previous snapshot and written as zigzag varints — monotone
//     counters sampled every few minutes produce small deltas, so most
//     values fit in one or two bytes;
//   - frames and the preamble are internal/framelog's, so crash
//     recovery is exact at frame granularity.
//
// A header frame resets all decoder state (string table, delta bases),
// which is what makes appending to an existing file safe: a
// continuation encoder just emits a fresh header frame.
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gostats/internal/framelog"
	"gostats/internal/model"
	"gostats/internal/schema"
)

// binMagic prefixes every v2 binary stream. The leading NUL cannot
// appear at the start of a v1 text file, so sniffing is unambiguous.
var binMagic = [4]byte{0x00, 'G', 'S', 'B'}

const (
	frameHeader   = 'H'
	frameSnapshot = 'S'

	// maxFramePayload bounds a single frame so a corrupt or hostile
	// length prefix cannot make the decoder allocate gigabytes.
	maxFramePayload = 1 << 26
	// arenaChunk is how many uint64s the decoder allocates at a time
	// for record value slices.
	arenaChunk = 4096
	// maxStringTable bounds the per-stream dictionary for the same
	// reason; real streams hold a few hundred instance names.
	maxStringTable = 1 << 20
)

// binEncoder implements SnapshotEncoder for codec v2.
type binEncoder struct {
	w            io.Writer
	header       Header
	continuation bool
	wroteHeader  bool
	err          error

	classIdx map[schema.Class]uint64
	strIndex map[string]uint64
	prevMs   int64
	prevVals map[uint64][]uint64 // (classIdx<<32 | instRef) -> last values

	buf []byte // scratch frame payload
	out []byte // scratch assembled frame, written in one call
}

func newBinaryEncoder(w io.Writer, h Header, continuation bool) (*binEncoder, error) {
	if h.Registry == nil {
		return nil, fmt.Errorf("codec: binary encoder requires a schema registry")
	}
	return &binEncoder{w: w, header: h, continuation: continuation}, nil
}

// WriteHeader emits the stream preamble (magic + version, unless this is
// a continuation of an existing file) and a header frame, and resets all
// stream state.
func (e *binEncoder) WriteHeader() error {
	if e.err != nil {
		return e.err
	}
	if e.wroteHeader {
		return nil
	}
	e.wroteHeader = true

	e.classIdx = make(map[schema.Class]uint64)
	e.strIndex = make(map[string]uint64)
	e.prevMs = 0
	e.prevVals = make(map[uint64][]uint64)

	if !e.continuation {
		if _, err := e.w.Write(framelog.AppendPreamble(nil, binMagic, uint64(V2Binary))); err != nil {
			e.err = err
			return err
		}
	}

	classes := e.header.Registry.Classes()
	e.buf = e.buf[:0]
	e.buf = framelog.AppendString(e.buf, e.header.Hostname)
	e.buf = framelog.AppendString(e.buf, e.header.Arch)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(classes)))
	for i, c := range classes {
		e.classIdx[c] = uint64(i)
		e.buf = framelog.AppendString(e.buf, e.header.Registry.Get(c).Line())
	}
	return e.writeFrame(frameHeader, e.buf)
}

// WriteSnapshot appends one snapshot frame.
func (e *binEncoder) WriteSnapshot(s model.Snapshot) error {
	if err := e.WriteHeader(); err != nil {
		return err
	}
	ms := int64(math.Round(s.Time * 1000))
	e.buf = e.buf[:0]
	e.buf = binary.AppendVarint(e.buf, ms-e.prevMs)
	e.prevMs = ms

	jobs := sortedJobIDs(s.JobIDs)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(jobs)))
	for _, j := range jobs {
		e.putStringRef(j)
	}
	e.buf = framelog.AppendString(e.buf, s.Mark)

	e.buf = binary.AppendUvarint(e.buf, uint64(len(s.Records)))
	for _, r := range s.Records {
		ci, ok := e.classIdx[r.Class]
		if !ok {
			e.err = fmt.Errorf("codec: record for unknown class %q", r.Class)
			return e.err
		}
		e.buf = binary.AppendUvarint(e.buf, ci)
		instRef := e.putStringRef(sanitizeInstance(r.Instance))
		e.buf = binary.AppendUvarint(e.buf, uint64(len(r.Values)))

		key := ci<<32 | instRef
		prev := e.prevVals[key]
		if prev == nil {
			prev = make([]uint64, len(r.Values))
			e.prevVals[key] = prev
		} else if len(prev) != len(r.Values) {
			// Value-vector length changed mid-stream (shouldn't happen
			// with a fixed schema); restart the delta base.
			prev = make([]uint64, len(r.Values))
			e.prevVals[key] = prev
		}
		for i, v := range r.Values {
			e.buf = binary.AppendVarint(e.buf, int64(v-prev[i]))
			prev[i] = v
		}
	}
	e.buf = appendTrace(e.buf, s.Trace)
	return e.writeFrame(frameSnapshot, e.buf)
}

// appendTrace writes the optional provenance section: uvarint stamp
// count, then per stamp the stage id and the nanosecond timestamp
// delta-encoded against the previous stamp (stamps within one trace sit
// microseconds-to-seconds apart, so deltas stay small). A traceless
// snapshot appends nothing at all, keeping pre-trace byte streams
// identical and letting decoders treat the section as optional.
func appendTrace(b []byte, tr []model.StageStamp) []byte {
	if len(tr) == 0 {
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(tr)))
	prev := int64(0)
	for _, ts := range tr {
		b = binary.AppendUvarint(b, uint64(ts.Stage))
		b = binary.AppendVarint(b, ts.UnixNs-prev)
		prev = ts.UnixNs
	}
	return b
}

// readTrace parses the optional provenance section when payload bytes
// remain past the record list.
func readTrace(c *framelog.Cursor) ([]model.StageStamp, error) {
	n, err := c.Count(2)
	if err != nil {
		return nil, fmt.Errorf("trace stamp count: %w", err)
	}
	out := make([]model.StageStamp, 0, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		st, err := c.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace stage: %w", err)
		}
		d, err := c.Varint()
		if err != nil {
			return nil, fmt.Errorf("trace timestamp: %w", err)
		}
		prev += d
		out = append(out, model.StageStamp{Stage: model.Stage(st), UnixNs: prev})
	}
	return out, nil
}

// putStringRef dictionary-encodes s into the scratch payload and returns
// its table index.
func (e *binEncoder) putStringRef(s string) uint64 {
	if ref, ok := e.strIndex[s]; ok {
		e.buf = binary.AppendUvarint(e.buf, ref)
		return ref
	}
	ref := uint64(len(e.strIndex))
	e.strIndex[s] = ref
	e.buf = binary.AppendUvarint(e.buf, ref)
	e.buf = framelog.AppendString(e.buf, s)
	return ref
}

// writeFrame assembles a complete frame and hands it to the underlying
// writer in a single Write, so a frame is the atomic unit of output.
func (e *binEncoder) writeFrame(typ byte, payload []byte) error {
	if e.err != nil {
		return e.err
	}
	e.out = framelog.Append(e.out[:0], typ, payload)
	if _, err := e.w.Write(e.out); err != nil {
		e.err = err
	}
	return e.err
}

// WriteSnapshotLines encodes s: the v1 record lines say nothing the
// binary frame can reuse.
func (e *binEncoder) WriteSnapshotLines(s model.Snapshot, _ []byte) error {
	return e.WriteSnapshot(s)
}

// Flush implements SnapshotEncoder; frames are written unbuffered, so
// there is nothing to push.
func (e *binEncoder) Flush() error { return e.err }

// binState is the decode-side stream state shared by the streaming
// decoder and the crash-recovery scanner. A header frame resets it.
type binState struct {
	h        Header
	classes  []*schema.Schema // in header frame order (== sorted order)
	strTable []string
	prevMs   int64
	prevVals map[uint64][]uint64
	arena    []uint64 // chunked backing for decoded value slices
}

// applyHeader parses a header frame payload and resets all state.
func (st *binState) applyHeader(payload []byte) error {
	c := framelog.Cursor{B: payload}
	host, err := c.Str()
	if err != nil {
		return fmt.Errorf("codec: header hostname: %w", err)
	}
	arch, err := c.Str()
	if err != nil {
		return fmt.Errorf("codec: header arch: %w", err)
	}
	n, err := c.Count(2)
	if err != nil {
		return fmt.Errorf("codec: header schema count: %w", err)
	}
	schemas := make([]*schema.Schema, 0, n)
	for i := 0; i < n; i++ {
		line, err := c.Str()
		if err != nil {
			return fmt.Errorf("codec: header schema line %d: %w", i, err)
		}
		s, err := schema.ParseLine(line)
		if err != nil {
			return fmt.Errorf("codec: %w", err)
		}
		schemas = append(schemas, s)
	}
	reg, err := schema.NewRegistry(schemas...)
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	st.h = Header{Hostname: host, Arch: arch, Registry: reg}
	st.classes = schemas
	st.strTable = st.strTable[:0]
	st.prevMs = 0
	st.prevVals = make(map[uint64][]uint64)
	return nil
}

// applySnapshot parses a snapshot frame payload against current state.
func (st *binState) applySnapshot(payload []byte) (model.Snapshot, error) {
	var zero model.Snapshot
	if st.classes == nil {
		return zero, fmt.Errorf("codec: snapshot frame before header")
	}
	c := framelog.Cursor{B: payload}
	dt, err := c.Varint()
	if err != nil {
		return zero, fmt.Errorf("codec: snapshot time: %w", err)
	}
	st.prevMs += dt
	s := model.Snapshot{Time: float64(st.prevMs) / 1000, Host: st.h.Hostname}

	njobs, err := c.Count(1)
	if err != nil {
		return zero, fmt.Errorf("codec: job count: %w", err)
	}
	for i := 0; i < njobs; i++ {
		j, _, err := st.stringRef(&c)
		if err != nil {
			return zero, fmt.Errorf("codec: job id: %w", err)
		}
		s.JobIDs = append(s.JobIDs, j)
	}
	if s.Mark, err = c.Str(); err != nil {
		return zero, fmt.Errorf("codec: mark: %w", err)
	}

	nrec, err := c.Count(3)
	if err != nil {
		return zero, fmt.Errorf("codec: record count: %w", err)
	}
	if nrec > 0 {
		s.Records = make([]model.Record, 0, nrec)
	}
	for i := 0; i < nrec; i++ {
		ci, err := c.Uvarint()
		if err != nil {
			return zero, fmt.Errorf("codec: record class: %w", err)
		}
		if ci >= uint64(len(st.classes)) {
			return zero, fmt.Errorf("codec: record class ref %d out of range", ci)
		}
		sch := st.classes[ci]
		inst, instRef, err := st.stringRef(&c)
		if err != nil {
			return zero, fmt.Errorf("codec: record instance: %w", err)
		}
		nvals, err := c.Count(1)
		if err != nil {
			return zero, fmt.Errorf("codec: value count: %w", err)
		}
		if nvals != sch.Len() {
			return zero, fmt.Errorf("codec: class %q has %d values, schema wants %d",
				sch.Class, nvals, sch.Len())
		}
		key := ci<<32 | instRef
		prev := st.prevVals[key]
		if prev == nil || len(prev) != nvals {
			prev = make([]uint64, nvals)
			st.prevVals[key] = prev
		}
		// Value slices are carved out of a shared arena chunk: one
		// allocation amortized over hundreds of records instead of one
		// per record. The three-index slice keeps each record's slice
		// capacity-bounded so a consumer's append cannot bleed into the
		// next record's values.
		if len(st.arena) < nvals {
			st.arena = make([]uint64, max(arenaChunk, nvals))
		}
		vals := st.arena[:nvals:nvals]
		st.arena = st.arena[nvals:]
		for k := 0; k < nvals; k++ {
			d, err := c.Varint()
			if err != nil {
				return zero, fmt.Errorf("codec: value delta: %w", err)
			}
			prev[k] += uint64(d)
			vals[k] = prev[k]
		}
		s.Records = append(s.Records, model.Record{Class: sch.Class, Instance: inst, Values: vals})
	}
	if c.Len() != 0 {
		if s.Trace, err = readTrace(&c); err != nil {
			return zero, fmt.Errorf("codec: %w", err)
		}
	}
	if c.Len() != 0 {
		return zero, fmt.Errorf("codec: %d trailing bytes in snapshot frame", c.Len())
	}
	return s, nil
}

func (st *binState) stringRef(c *framelog.Cursor) (string, uint64, error) {
	ref, err := c.Uvarint()
	if err != nil {
		return "", 0, err
	}
	if ref < uint64(len(st.strTable)) {
		return st.strTable[ref], ref, nil
	}
	if ref != uint64(len(st.strTable)) {
		return "", 0, fmt.Errorf("string ref %d skips table size %d", ref, len(st.strTable))
	}
	if len(st.strTable) >= maxStringTable {
		return "", 0, fmt.Errorf("string table overflow")
	}
	s, err := c.Str()
	if err != nil {
		return "", 0, err
	}
	st.strTable = append(st.strTable, s)
	return s, ref, nil
}

// binDecoder implements SnapshotDecoder for codec v2.
type binDecoder struct {
	r   *bufio.Reader
	st  binState
	buf []byte // reused frame buffer; apply copies everything out
	err error
}

func newBinaryDecoder(r *bufio.Reader) (*binDecoder, error) {
	pre, err := r.Peek(len(binMagic) + binary.MaxVarintLen64) // short only for a tiny stream
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("codec: binary preamble: %w", err)
	}
	n, err := checkBinPreamble(pre)
	if err != nil {
		return nil, err
	}
	r.Discard(n) // n <= len(pre): the bytes are buffered
	d := &binDecoder{r: r}
	// Consume the first frame so Header() is valid immediately.
	typ, payload, err := d.readFrame()
	if err == io.EOF {
		return nil, fmt.Errorf("codec: binary stream has no header frame")
	}
	if err != nil {
		return nil, err
	}
	if typ != frameHeader {
		return nil, fmt.Errorf("codec: binary stream starts with a %q frame, not a header", typ)
	}
	if err := d.st.applyHeader(payload); err != nil {
		return nil, err
	}
	return d, nil
}

// checkBinPreamble returns the offset of a v2 stream's first frame.
func checkBinPreamble(data []byte) (int, error) {
	n, pre := framelog.CheckPreamble(data, binMagic, uint64(V2Binary))
	if pre != framelog.PreambleOK {
		return 0, fmt.Errorf("codec: %s binary preamble", pre)
	}
	return n, nil
}

func (d *binDecoder) Version() Version { return V2Binary }
func (d *binDecoder) Header() Header   { return d.st.h }

// readFrame reads one CRC-verified frame into the decoder's reused
// buffer. io.EOF at a frame boundary is a clean end of stream.
func (d *binDecoder) readFrame() (byte, []byte, error) {
	typ, payload, err := framelog.ReadFrame(d.r, d.buf, maxFramePayload)
	d.buf = payload
	if err != nil && err != io.EOF {
		err = fmt.Errorf("codec: %w", err)
	}
	return typ, payload, err
}

// apply decodes one frame into the stream state, returning the snapshot
// when the frame holds one. Any other frame type is damage: v2 has only
// ever written header and snapshot frames.
func (st *binState) apply(typ byte, payload []byte) (model.Snapshot, bool, error) {
	switch typ {
	case frameHeader:
		return model.Snapshot{}, false, st.applyHeader(payload)
	case frameSnapshot:
		s, err := st.applySnapshot(payload)
		return s, err == nil, err
	}
	return model.Snapshot{}, false, fmt.Errorf("codec: unknown frame type %q", typ)
}

// Next returns the next snapshot frame, applying mid-stream header
// frames (appended continuations) on the way.
func (d *binDecoder) Next() (model.Snapshot, error) {
	for d.err == nil {
		var typ byte
		var payload []byte
		if typ, payload, d.err = d.readFrame(); d.err != nil {
			break
		}
		var s model.Snapshot
		var ok bool
		if s, ok, d.err = d.st.apply(typ, payload); ok {
			return s, nil
		}
	}
	return model.Snapshot{}, d.err
}

// recoverBinary is Recover for a v2 stream: one framelog.Scan, which
// stops at the first frame that fails its CRC, is torn, or does not
// decode.
func recoverBinary(data []byte) (*Stream, int, error) {
	off, err := checkBinPreamble(data)
	if err != nil {
		return nil, 0, err
	}
	st := &Stream{Version: V2Binary}
	var state binState
	keep, damage := framelog.Scan(data, off, maxFramePayload, func(f framelog.Frame) error {
		s, ok, err := state.apply(f.Type, f.Payload)
		if ok {
			st.Snapshots = append(st.Snapshots, s)
		}
		return err
	})
	if state.classes == nil {
		if damage == nil {
			damage = fmt.Errorf("codec: binary stream has no header frame")
		}
		return nil, 0, damage
	}
	st.Header = state.h
	return st, keep, damage
}
