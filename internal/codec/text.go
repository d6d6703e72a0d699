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
package codec

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// TextVersion is the version string the v1 text format carries on its
// $gostats property line.
const TextVersion = "2.0"

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
	sort.Strings(out)
	return out
}

// textEncoder implements SnapshotEncoder for codec v1.
type textEncoder struct {
	w           *bufio.Writer
	header      Header
	wroteHeader bool
}

func newTextEncoder(w io.Writer, h Header) *textEncoder {
	return &textEncoder{w: bufio.NewWriter(w), header: h}
}

// WriteHeader emits the file header.
func (e *textEncoder) WriteHeader() error {
	if e.wroteHeader {
		return nil
	}
	e.wroteHeader = true
	fmt.Fprintf(e.w, "$gostats %s\n", TextVersion)
	fmt.Fprintf(e.w, "$hostname %s\n", e.header.Hostname)
	if e.header.Arch != "" {
		fmt.Fprintf(e.w, "$arch %s\n", e.header.Arch)
	}
	if e.header.Registry != nil {
		for _, c := range e.header.Registry.Classes() {
			fmt.Fprintln(e.w, e.header.Registry.Get(c).Line())
		}
	}
	fmt.Fprintln(e.w)
	return e.w.Flush()
}

// WriteSnapshot appends one collection block.
func (e *textEncoder) WriteSnapshot(s model.Snapshot) error {
	if err := e.WriteHeader(); err != nil {
		return err
	}
	jobs := "-"
	if ids := sortedJobIDs(s.JobIDs); ids != nil {
		jobs = strings.Join(ids, ",")
	}
	fmt.Fprintf(e.w, "%.3f %s\n", s.Time, jobs)
	if s.Mark != "" {
		fmt.Fprintf(e.w, "%% %s\n", s.Mark)
	}
	if len(s.Trace) > 0 {
		e.w.WriteString(formatTraceLine(s.Trace))
		e.w.WriteByte('\n')
	}
	for _, r := range s.Records {
		fmt.Fprintf(e.w, "%s %s", r.Class, sanitizeInstance(r.Instance))
		for _, v := range r.Values {
			fmt.Fprintf(e.w, " %d", v)
		}
		fmt.Fprintln(e.w)
	}
	return e.w.Flush()
}

// Flush flushes buffered output.
func (e *textEncoder) Flush() error { return e.w.Flush() }

// textDecoder implements SnapshotDecoder for codec v1 as a streaming
// line scanner: the header is consumed at construction, then Next
// yields one snapshot per timestamp block without materializing the
// whole file.
type textDecoder struct {
	sc     *bufio.Scanner
	h      Header
	lineNo int
	cur    *model.Snapshot
	err    error
}

func newTextDecoder(r io.Reader) (*textDecoder, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	d := &textDecoder{sc: sc}
	var schemas []*schema.Schema
	for sc.Scan() {
		d.lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		switch {
		case line == "":
			reg, err := schema.NewRegistry(schemas...)
			if err != nil {
				return nil, fmt.Errorf("rawfile: line %d: %w", d.lineNo, err)
			}
			d.h.Registry = reg
			return d, nil
		case strings.HasPrefix(line, "$"):
			parts := strings.SplitN(line[1:], " ", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("rawfile: line %d: malformed property %q", d.lineNo, line)
			}
			switch parts[0] {
			case "gostats":
				if parts[1] != TextVersion {
					return nil, fmt.Errorf("rawfile: unsupported version %q", parts[1])
				}
			case "hostname":
				d.h.Hostname = parts[1]
			case "arch":
				d.h.Arch = parts[1]
			default:
				// Unknown properties are forward-compatible noise.
			}
		case strings.HasPrefix(line, "!"):
			s, err := schema.ParseLine(line)
			if err != nil {
				return nil, fmt.Errorf("rawfile: line %d: %w", d.lineNo, err)
			}
			schemas = append(schemas, s)
		default:
			return nil, fmt.Errorf("rawfile: line %d: unexpected header line %q", d.lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("rawfile: truncated header")
}

func (d *textDecoder) Version() Version { return V1Text }
func (d *textDecoder) Header() Header   { return d.h }

// Next returns the next snapshot block, or io.EOF at a clean end.
func (d *textDecoder) Next() (model.Snapshot, error) {
	if d.err != nil {
		return model.Snapshot{}, d.err
	}
	fail := func(format string, args ...interface{}) (model.Snapshot, error) {
		d.err = fmt.Errorf(format, args...)
		return model.Snapshot{}, d.err
	}
	for d.sc.Scan() {
		d.lineNo++
		line := strings.TrimRight(d.sc.Text(), "\r")
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, tracePrefix):
			if d.cur == nil {
				return fail("rawfile: line %d: trace before timestamp", d.lineNo)
			}
			tr, err := parseTraceLine(line)
			if err != nil {
				return fail("rawfile: line %d: %w", d.lineNo, err)
			}
			d.cur.Trace = tr
		case strings.HasPrefix(line, "% "):
			if d.cur == nil {
				return fail("rawfile: line %d: mark before timestamp", d.lineNo)
			}
			d.cur.Mark = line[2:]
		default:
			fields := strings.Fields(line)
			if len(fields) == 2 && isTimestamp(fields[0]) {
				// Timestamp line: time jobids
				t, err := strconv.ParseFloat(fields[0], 64)
				if err != nil {
					return fail("rawfile: line %d: bad timestamp: %w", d.lineNo, err)
				}
				snap := model.Snapshot{Time: t, Host: d.h.Hostname}
				if fields[1] != "-" {
					snap.JobIDs = strings.Split(fields[1], ",")
				}
				prev := d.cur
				d.cur = &snap
				if prev != nil {
					return *prev, nil
				}
				continue
			}
			if d.cur == nil {
				return fail("rawfile: line %d: record before timestamp", d.lineNo)
			}
			if len(fields) < 2 {
				return fail("rawfile: line %d: short record %q", d.lineNo, line)
			}
			cls := schema.Class(fields[0])
			sch := d.h.Registry.Get(cls)
			if sch == nil {
				return fail("rawfile: line %d: record for unknown class %q", d.lineNo, cls)
			}
			vals := fields[2:]
			if len(vals) != sch.Len() {
				return fail("rawfile: line %d: class %q has %d values, schema wants %d",
					d.lineNo, cls, len(vals), sch.Len())
			}
			rec := model.Record{Class: cls, Instance: fields[1], Values: make([]uint64, len(vals))}
			for i, v := range vals {
				u, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return fail("rawfile: line %d: bad value %q: %w", d.lineNo, v, err)
				}
				rec.Values[i] = u
			}
			d.cur.Records = append(d.cur.Records, rec)
		}
	}
	if err := d.sc.Err(); err != nil {
		d.err = err
		return model.Snapshot{}, err
	}
	if d.cur != nil {
		out := *d.cur
		d.cur = nil
		return out, nil
	}
	d.err = io.EOF
	return model.Snapshot{}, io.EOF
}

// tracePrefix marks the optional provenance line inside a snapshot
// block: "%trace stage:unixns,stage:unixns,...". The "%" keeps trace
// lines in the mark-line namespace (they can never collide with a
// record line, whose first field is a class name), while the missing
// space after "%" keeps old "% <mark>" parsing unambiguous.
const tracePrefix = "%trace "

// formatTraceLine renders stamps as the v1 trace line (without newline).
func formatTraceLine(tr []model.StageStamp) string {
	var b strings.Builder
	b.WriteString(tracePrefix)
	for i, ts := range tr {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ts.Stage.String())
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(ts.UnixNs, 10))
	}
	return b.String()
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

// isTimestamp reports whether s looks like a "%.3f" epoch timestamp
// rather than a class name.
func isTimestamp(s string) bool {
	if s == "" || (s[0] < '0' || s[0] > '9') {
		return false
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// decodeAllText strict-parses a complete text stream from bytes.
func decodeAllText(data []byte) (*Stream, error) {
	return DecodeAll(strings.NewReader(string(data)))
}

// recoverText recovers the intact prefix of a damaged text stream.
// Truncation damage sits at the end of the file: walk back from the
// tail dropping one line at a time until the remainder parses. The scan
// is bounded — if the last maxBackoff lines don't contain the damage
// boundary, the file is corrupt beyond end-truncation and we give up
// rather than scan quadratically.
func recoverText(data []byte) (*Stream, []byte, error) {
	st, perr := decodeAllText(data)
	if perr == nil {
		return st, nil, nil
	}
	const maxBackoff = 1000
	lines := strings.SplitAfter(string(data), "\n")
	for k := len(lines) - 1; k >= 0 && k >= len(lines)-maxBackoff; k-- {
		candidate := strings.Join(lines[:k], "")
		if st, err := decodeAllText([]byte(candidate)); err == nil {
			return st, []byte(strings.Join(lines[k:], "")), perr
		}
	}
	return nil, data, perr
}

// textTornInsideLastFrame reports whether a recovered text stream's torn
// tail indicates the damage sits inside the final recovered snapshot's
// block (record or mark lines torn: that snapshot's write never
// completed) rather than at the start of a never-recovered next block
// (tail begins with a timestamp fragment, which starts with a digit).
func textTornInsideLastFrame(tail []byte) bool {
	t := strings.TrimLeft(string(tail), " \t\r\n")
	return t != "" && (t[0] < '0' || t[0] > '9')
}
