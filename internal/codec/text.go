// Codec v1: the original line-oriented raw stats text format. The
// implementation moved here from internal/rawfile when the codec layer
// was introduced; the bytes it writes and the errors it reports are
// unchanged (error strings keep their historical "rawfile:" prefix so
// operator tooling that greps logs keeps working).
//
//	$gostats 2.0                 file format version
//	$hostname c401-101           header properties
//	$arch sandybridge
//	!cpu user,E,U=cs nice,E ...  one schema line per device class
//	                             (blank line ends the header)
//	1451606400.000 4001,4002     timestamp line: time + job ids
//	% begin 4001                 optional mark line
//	cpu 0 183983 2944 ...        record lines: class instance values...
//
// Both directions work on byte slices: the encoder appends a whole
// block into a reused buffer and hands it to the writer in one Write,
// and one line parser (textParser) serves the streaming decoder, the
// in-memory wire decoder and Recover.
package codec

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// TextVersion is the version string the v1 text format carries on its
// $gostats property line.
const TextVersion = "2.0"

// maxTextLine bounds one text line. The streaming decoder's Scanner
// enforces it and the in-memory decoder checks it, so both report
// bufio.ErrTooLong on the same input.
const maxTextLine = 1 << 22

// sanitizeInstance makes an instance name safe for the space-separated
// text format. The binary codec applies the same normalization so the
// two codecs round-trip identically.
func sanitizeInstance(s string) string {
	if s == "" {
		return "-"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
			return '_'
		}
		return r
	}, s)
}

// sortedJobIDs returns the snapshot's job ids sorted (both codecs emit
// them in sorted order), or nil for an unlabeled snapshot.
func sortedJobIDs(ids []string) []string {
	if len(ids) == 0 {
		return nil
	}
	out := append([]string(nil), ids...)
	slices.Sort(out)
	return out
}

// appendTextHeader appends the file header: properties, the registry's
// schema block, and the blank line that ends the header.
func appendTextHeader(b []byte, h Header) []byte {
	b = append(b, "$gostats "+TextVersion+"\n$hostname "...)
	b = append(b, h.Hostname...)
	b = append(b, '\n')
	if h.Arch != "" {
		b = append(b, "$arch "...)
		b = append(b, h.Arch...)
		b = append(b, '\n')
	}
	if h.Registry != nil {
		b = append(b, h.Registry.Block()...)
	}
	return append(b, '\n')
}

// appendTextBlock appends one collection block: its head, then one
// line per record.
func appendTextBlock(b []byte, s model.Snapshot) []byte {
	return appendTextRecords(appendTextHead(b, s), s.Records)
}

// appendTextHead appends a block's head: the timestamp line ("%.3f"
// time, sorted job ids or "-"), then the optional mark and trace lines.
func appendTextHead(b []byte, s model.Snapshot) []byte {
	b = strconv.AppendFloat(b, s.Time, 'f', 3, 64)
	b = append(b, ' ')
	if ids := s.JobIDs; len(ids) == 0 {
		b = append(b, '-')
	} else {
		if !slices.IsSorted(ids) {
			ids = sortedJobIDs(ids)
		}
		for i, id := range ids {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, id...)
		}
	}
	b = append(b, '\n')
	if s.Mark != "" {
		b = append(b, "% "...)
		b = append(b, s.Mark...)
		b = append(b, '\n')
	}
	if len(s.Trace) > 0 {
		b = appendTraceLine(b, s.Trace)
		b = append(b, '\n')
	}
	return b
}

// appendTextRecords appends one line per record: class, instance, then
// the values in decimal, separated by single spaces.
func appendTextRecords(b []byte, recs []model.Record) []byte {
	for _, r := range recs {
		b = append(b, r.Class...)
		b = append(b, ' ')
		b = append(b, sanitizeInstance(r.Instance)...)
		for _, v := range r.Values {
			b = append(b, ' ')
			b = strconv.AppendUint(b, v, 10)
		}
		b = append(b, '\n')
	}
	return b
}

// textEncoder implements SnapshotEncoder for codec v1. Every call hands
// the writer one complete header or block; a write error is sticky.
type textEncoder struct {
	w           io.Writer
	header      Header
	wroteHeader bool
	buf         []byte
	err         error
}

func newTextEncoder(w io.Writer, h Header) *textEncoder {
	return &textEncoder{w: w, header: h}
}

// WriteHeader emits the file header.
func (e *textEncoder) WriteHeader() error {
	if e.wroteHeader {
		return nil
	}
	e.wroteHeader = true
	return e.write(appendTextHeader(e.buf[:0], e.header))
}

// WriteSnapshot appends one collection block (after the header, on the
// first call).
func (e *textEncoder) WriteSnapshot(s model.Snapshot) error {
	return e.WriteSnapshotLines(s, nil)
}

// WriteSnapshotLines is the encoder's one entry point: the header if
// the stream is new, then s's block head, then its record lines — lines
// as they are when non-nil, else encoded from s.Records — in one Write.
// Records it would have to encode are checked first against the
// header's registry, as every reader checks them: a record of a class
// the registry lacks, or with a value count its schema does not have,
// fails the call before any byte is written.
func (e *textEncoder) WriteSnapshotLines(s model.Snapshot, lines []byte) error {
	if lines == nil {
		if err := checkTextRecords(e.header.Registry, s.Records); err != nil {
			return err
		}
	}
	b := e.buf[:0]
	if !e.wroteHeader {
		e.wroteHeader = true
		b = appendTextHeader(b, e.header)
	}
	b = appendTextHead(b, s)
	if lines != nil {
		b = append(b, lines...)
	} else {
		b = appendTextRecords(b, s.Records)
	}
	return e.write(b)
}

// checkTextRecords returns the error the text parser would meet on the
// first record of recs that reg cannot describe.
func checkTextRecords(reg *schema.Registry, recs []model.Record) error {
	for _, r := range recs {
		var sch *schema.Schema
		if reg != nil {
			sch = reg.Get(r.Class)
		}
		if sch == nil {
			return fmt.Errorf("codec: record for unknown class %q", r.Class)
		}
		if len(r.Values) != sch.Len() {
			return fmt.Errorf("codec: class %q has %d values, schema wants %d", r.Class, len(r.Values), sch.Len())
		}
	}
	return nil
}

func (e *textEncoder) write(b []byte) error {
	e.buf = b
	if e.err != nil {
		return e.err
	}
	n, err := e.w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	e.err = err
	return err
}

// Flush reports the first write error; the encoder buffers nothing
// between calls.
func (e *textEncoder) Flush() error { return e.err }

// textParser is the one v1 line parser. The streaming decoder feeds it
// Scanner lines and the in-memory paths feed it lines sliced straight
// out of their input; a line is only borrowed, so everything a returned
// snapshot keeps is copied out of it.
type textParser struct {
	h       Header
	lineNo  int
	schemas []*schema.Schema // header schema lines parsed so far

	open   bool           // a block has started and not been returned
	cur    model.Snapshot // the open block, without its records
	recs   []model.Record // the open block's records, Values unset
	ends   []int          // end offset in vals of each record's values
	vals   []uint64
	fields [][]byte
	plain  bool // split's line is all ASCII, one ' ' between fields, none around them

	// certify is set when the header matched the consumer's registry
	// (decodeTextBytes' fast path). canon then tells whether the open
	// block's record lines are canonical: byte for byte what
	// appendTextRecords writes for the records decoded from them.
	certify bool
	canon   bool
}

// errorf formats a parse error at the current line.
func (p *textParser) errorf(format string, args ...any) error {
	return fmt.Errorf("rawfile: line %d: "+format, append([]any{p.lineNo}, args...)...)
}

var errTruncatedHeader = errors.New("rawfile: truncated header")

// errNoNewline marks a last line with no newline after it.
var errNoNewline = errors.New("codec: line has no newline")

// torn is the damage of a stream that ends inside a line. The encoder
// ends every line with a newline, so a last line without one was cut
// short, however well what is left of it parses.
func (p *textParser) torn() error {
	p.lineNo++
	return p.errorf("stream ends inside a line")
}

// headerLine consumes one header line and reports whether it was the
// blank line that ends the header, at which point p.h is complete.
func (p *textParser) headerLine(line []byte) (done bool, err error) {
	p.lineNo++
	line = bytes.TrimRight(line, "\r")
	switch {
	case len(line) == 0:
		reg, err := schema.NewRegistry(p.schemas...)
		if err != nil {
			return false, p.errorf("%w", err)
		}
		p.h.Registry = reg
		return true, nil
	case line[0] == '$':
		key, val, ok := bytes.Cut(line[1:], []byte{' '})
		if !ok {
			return false, p.errorf("malformed property %q", line)
		}
		switch string(key) {
		case "gostats":
			if string(val) != TextVersion {
				return false, fmt.Errorf("rawfile: unsupported version %q", val)
			}
		case "hostname":
			p.h.Hostname = string(val)
		case "arch":
			p.h.Arch = string(val)
		default:
			// Unknown properties are forward-compatible noise.
		}
	case line[0] == '!':
		s, err := schema.ParseLine(string(line))
		if err != nil {
			return false, p.errorf("%w", err)
		}
		p.schemas = append(p.schemas, s)
	default:
		return false, p.errorf("unexpected header line %q", line)
	}
	return false, nil
}

// bodyLine consumes one line after the header. A timestamp line starts
// a new block and returns the previous one, if any.
func (p *textParser) bodyLine(line []byte) (model.Snapshot, bool, error) {
	var zero model.Snapshot
	p.lineNo++
	n := len(line)
	line = bytes.TrimRight(line, "\r")
	if len(p.recs) > 0 && (len(line) == 0 || line[0] == '%') {
		p.canon = false // the encoder writes no blank, mark or trace line after a record
	}
	switch {
	case len(line) == 0:
	case bytes.HasPrefix(line, []byte(tracePrefix)):
		if !p.open {
			return zero, false, p.errorf("trace before timestamp")
		}
		tr, err := parseTraceLine(string(line))
		if err != nil {
			return zero, false, p.errorf("%w", err)
		}
		p.cur.Trace = tr
	case bytes.HasPrefix(line, []byte("% ")):
		if !p.open {
			return zero, false, p.errorf("mark before timestamp")
		}
		p.cur.Mark = string(line[2:])
	default:
		f := p.split(line)
		if len(f) == 2 && f[0][0] >= '0' && f[0][0] <= '9' {
			if t, err := strconv.ParseFloat(string(f[0]), 64); err == nil {
				prev, ok := p.flush()
				p.open = true
				p.cur.Time, p.cur.Host = t, p.h.Hostname
				if string(f[1]) != "-" {
					p.cur.JobIDs = strings.Split(string(f[1]), ",")
				}
				return prev, ok, nil
			}
		}
		if !p.open {
			return zero, false, p.errorf("record before timestamp")
		}
		if len(f) < 2 {
			return zero, false, p.errorf("short record %q", line)
		}
		sch := p.h.Registry.Get(schema.Class(f[0]))
		if sch == nil {
			return zero, false, p.errorf("record for unknown class %q", f[0])
		}
		vals := f[2:]
		if len(vals) != sch.Len() {
			return zero, false, p.errorf("class %q has %d values, schema wants %d",
				f[0], len(vals), sch.Len())
		}
		if !p.plain || len(line) != n {
			p.canon = false
		}
		for _, v := range vals {
			u, ok := parseDigits(v)
			if !ok {
				var err error
				if u, err = strconv.ParseUint(string(v), 10, 64); err != nil {
					return zero, false, p.errorf("bad value %q: %w", v, err)
				}
			}
			if v[0] == '0' && len(v) > 1 {
				p.canon = false // a leading zero re-encodes without it
			}
			p.vals = append(p.vals, u)
		}
		p.recs = append(p.recs, model.Record{Class: sch.Class, Instance: string(f[1])})
		p.ends = append(p.ends, len(p.vals))
	}
	return zero, false, nil
}

// flush closes the open block and returns it. Its records are copied
// into an exact-size slice and their value slices carved out of one
// array, each capacity-capped so a consumer's append cannot bleed into
// the next record's values.
func (p *textParser) flush() (model.Snapshot, bool) {
	if !p.open {
		return model.Snapshot{}, false
	}
	s := p.cur
	p.open, p.cur = false, model.Snapshot{}
	if len(p.recs) > 0 {
		vals := make([]uint64, len(p.vals))
		copy(vals, p.vals)
		s.Records = make([]model.Record, len(p.recs))
		start := 0
		for i, r := range p.recs {
			end := p.ends[i]
			r.Values = vals[start:end:end]
			s.Records[i] = r
			start = end
		}
		clear(p.recs)
		p.recs, p.ends, p.vals = p.recs[:0], p.ends[:0], p.vals[:0]
	}
	return s, true
}

// damaged closes the parse at a line that failed. The open block is
// whole, and returned, only when the failed line begins the next block:
// a timestamp line starts with a digit, and the encoder writes a block
// in one piece, so a torn timestamp line means the block before it was
// written in full.
func (p *textParser) damaged(line []byte) (model.Snapshot, bool) {
	if len(line) == 0 || line[0] < '0' || line[0] > '9' {
		return model.Snapshot{}, false
	}
	return p.flush()
}

// asciiSpace is the byte set strings.Fields splits ASCII text on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split returns the fields of line exactly as strings.Fields would. An
// all-ASCII line is split in place into p's reused field slice; a line
// with any other byte goes through strings.Fields itself (Unicode
// spaces). It sets p.plain when the line is all ASCII, starts and ends
// with a field, and has exactly one ' ' between fields: the only
// spacing the encoder writes. The test costs a compare per field.
func (p *textParser) split(line []byte) [][]byte {
	f := p.fields[:0]
	start, sep := -1, -1 // sep: where the last field's separator began
	plain := true
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			f = f[:0]
			for _, s := range strings.Fields(string(line)) {
				f = append(f, []byte(s))
			}
			p.fields, p.plain = f, false
			return f
		case asciiSpace[c]:
			if start >= 0 {
				f = append(f, line[start:i])
				start, sep = -1, i
				plain = plain && c == ' '
			}
		case start < 0:
			start = i
			plain = plain && i == sep+1
		}
	}
	if start >= 0 {
		f = append(f, line[start:])
	} else {
		plain = false // empty, or ends in a space
	}
	p.fields, p.plain = f, plain
	return f
}

// parseDigits parses a plain decimal of at most 19 digits, which cannot
// overflow a uint64. Anything else reports false, and the caller goes
// to strconv.ParseUint for the value or the error.
func parseDigits(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + uint64(d)
	}
	return n, true
}

// textDecoder implements SnapshotDecoder for codec v1 as a streaming
// line scanner: the header is consumed at construction, then Next
// yields one snapshot per timestamp block without materializing the
// whole file.
type textDecoder struct {
	sc   *bufio.Scanner
	p    textParser
	err  error
	torn bool // the scanned line is the stream's last and has no newline
}

func newTextDecoder(r io.Reader) (*textDecoder, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxTextLine)
	d := &textDecoder{sc: sc}
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		d.torn = atEOF && adv == len(data) && adv > 0 && data[adv-1] != '\n'
		return adv, tok, err
	})
	for sc.Scan() {
		if d.torn {
			return nil, errTruncatedHeader
		}
		done, err := d.p.headerLine(sc.Bytes())
		if err != nil {
			return nil, err
		}
		if done {
			return d, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errTruncatedHeader
}

func (d *textDecoder) Version() Version { return V1Text }
func (d *textDecoder) Header() Header   { return d.p.h }

// Next returns the next snapshot block, or io.EOF at a clean end. On
// damage it yields the whole snapshots Recover keeps, then the error.
func (d *textDecoder) Next() (model.Snapshot, error) {
	if d.err != nil {
		return model.Snapshot{}, d.err
	}
	for d.sc.Scan() {
		line := d.sc.Bytes()
		var s model.Snapshot
		var ok bool
		var err error
		if d.torn {
			err = d.p.torn()
		} else {
			s, ok, err = d.p.bodyLine(line)
		}
		if err != nil {
			d.err = err
			if s, ok = d.p.damaged(line); !ok {
				return model.Snapshot{}, err
			}
		}
		if ok {
			return s, nil
		}
	}
	if err := d.sc.Err(); err != nil {
		d.err = err
		return model.Snapshot{}, err
	}
	if s, ok := d.p.flush(); ok {
		return s, nil
	}
	d.err = io.EOF
	return model.Snapshot{}, io.EOF
}

// textParsers recycles the in-memory decoder's scratch (fields, records,
// values) across wire messages.
var textParsers = sync.Pool{New: func() any { return new(textParser) }}

// decodeTextBytes parses a whole in-memory v1 stream, calling fn with
// each snapshot in order. On damage fn sees only the whole snapshots
// before it (Recover's rule); keep is the byte length of the prefix
// that holds them, 0 when the header is damaged, and len(data) when
// nothing is. A non-nil reg is the consumer's registry: a header whose
// schema lines equal reg.Block() byte for byte, followed by the blank
// line that ends the header, decodes against reg instead of being
// parsed into a new registry. Any other header is parsed. After such a
// header, fn also gets each snapshot's record lines, the slice of data
// that holds them, when they are canonical (appendTextRecords would
// write them so for its records); otherwise its lines are nil.
func decodeTextBytes(data []byte, reg *schema.Registry, fn func(s model.Snapshot, lines []byte)) (h Header, keep int, err error) {
	p := textParsers.Get().(*textParser)
	defer func() {
		clear(p.recs)
		clear(p.fields[:cap(p.fields)])
		*p = textParser{recs: p.recs[:0], ends: p.ends[:0], vals: p.vals[:0], fields: p.fields[:0]}
		textParsers.Put(p)
	}()
	rest := data
	for {
		if len(rest) == 0 {
			return Header{}, 0, errTruncatedHeader
		}
		if reg != nil && len(p.schemas) == 0 && rest[0] == '!' {
			if block := reg.Block(); len(rest) > len(block) &&
				string(rest[:len(block)]) == block && rest[len(block)] == '\n' {
				p.lineNo += strings.Count(block, "\n") + 1
				p.h.Registry = reg
				p.certify = true
				rest = rest[len(block)+1:]
				break
			}
		}
		line, next, err := cutLine(rest)
		if err == errNoNewline {
			err = errTruncatedHeader
		}
		if err != nil {
			return Header{}, 0, err
		}
		rest = next
		done, err := p.headerLine(line)
		if err != nil {
			return Header{}, 0, err
		}
		if done {
			break
		}
	}
	keep = len(data) - len(rest)
	recOff := -1 // where the open block's first record line starts
	p.canon = p.certify
	lines := func(end int) []byte {
		if !p.canon || recOff < 0 {
			return nil
		}
		return data[recOff:end:end]
	}
	for len(rest) > 0 {
		off := len(data) - len(rest)
		line, next, err := cutLine(rest)
		var s model.Snapshot
		var ok bool
		switch err {
		case nil:
			s, ok, err = p.bodyLine(line)
		case errNoNewline:
			err = p.torn()
		}
		if err != nil {
			s, ok = p.damaged(line)
		}
		if ok {
			fn(s, lines(off))
			keep = off // the block just closed ends where this line starts
			p.canon, recOff = p.certify, -1
		}
		if err != nil {
			return p.h, keep, err
		}
		if recOff < 0 && len(p.recs) > 0 {
			recOff = off
		}
		rest = next
	}
	if s, ok := p.flush(); ok {
		fn(s, lines(len(data)))
	}
	return p.h, len(data), nil
}

// cutLine splits off the first line of data, without its newline. A
// line that no newline ends comes back with errNoNewline.
func cutLine(data []byte) (line, rest []byte, err error) {
	i := bytes.IndexByte(data, '\n')
	line = data
	if i >= 0 {
		line, rest = data[:i], data[i+1:]
	}
	if len(line) >= maxTextLine {
		return nil, nil, bufio.ErrTooLong
	}
	if i < 0 {
		return line, nil, errNoNewline
	}
	return line, rest, nil
}

// wireTextBufs recycles the scratch v1 wire messages are formatted in.
var wireTextBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeWireText formats a v1 wire message, a one-snapshot text stream,
// and returns it in an exact-size copy of the pooled scratch.
func encodeWireText(s model.Snapshot, reg *schema.Registry) []byte {
	bp := wireTextBufs.Get().(*[]byte)
	*bp = appendTextBlock(appendTextHeader((*bp)[:0], Header{Hostname: s.Host, Registry: reg}), s)
	out := bytes.Clone(*bp)
	wireTextBufs.Put(bp)
	return out
}

// decodeWireText decodes a v1 wire message, a one-snapshot text stream,
// and returns the record lines decodeTextBytes certified for it.
func decodeWireText(data []byte, reg *schema.Registry) (model.Snapshot, []byte, error) {
	var s model.Snapshot
	var lines []byte
	n := 0
	if _, _, err := decodeTextBytes(data, reg, func(x model.Snapshot, l []byte) {
		if n == 0 {
			s, lines = x, l
		}
		n++
	}); err != nil {
		return model.Snapshot{}, nil, err
	}
	if n != 1 {
		return model.Snapshot{}, nil, fmt.Errorf("codec: wire message holds %d snapshots, want 1", n)
	}
	return s, lines, nil
}

// tracePrefix marks the optional provenance line inside a snapshot
// block: "%trace stage:unixns,stage:unixns,...". The "%" keeps trace
// lines in the mark-line namespace (they can never collide with a
// record line, whose first field is a class name), while the missing
// space after "%" keeps old "% <mark>" parsing unambiguous.
const tracePrefix = "%trace "

// appendTraceLine appends stamps as the v1 trace line (without newline).
func appendTraceLine(b []byte, tr []model.StageStamp) []byte {
	b = append(b, tracePrefix...)
	for i, ts := range tr {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, ts.Stage.String()...)
		b = append(b, ':')
		b = strconv.AppendInt(b, ts.UnixNs, 10)
	}
	return b
}

// parseTraceLine decodes a "%trace" line. Stamps for stage names this
// build does not know are dropped (a newer producer's stages are
// forward-compatible noise); malformed timestamps are an error.
func parseTraceLine(line string) ([]model.StageStamp, error) {
	var out []model.StageStamp
	for _, part := range strings.Split(line[len(tracePrefix):], ",") {
		name, ns, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("malformed trace stamp %q", part)
		}
		v, err := strconv.ParseInt(ns, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad trace timestamp %q: %w", part, err)
		}
		st, known := model.ParseStage(name)
		if !known {
			continue
		}
		out = append(out, model.StageStamp{Stage: st, UnixNs: v})
	}
	return out, nil
}

// recoverText is Recover for a v1 stream: one forward pass of the line
// parser the streaming decoder runs.
func recoverText(data []byte) (*Stream, int, error) {
	st := &Stream{Version: V1Text}
	h, keep, err := decodeTextBytes(data, nil, func(s model.Snapshot, _ []byte) {
		st.Snapshots = append(st.Snapshots, s)
	})
	if keep == 0 {
		return nil, 0, err
	}
	st.Header = h
	return st, keep, err
}
