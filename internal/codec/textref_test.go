package codec

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// The pre-rewrite v1 text codec, kept as the reference the byte-slice
// codec is checked against: an fmt encoder and a Scanner/strings.Fields
// decoder. Output bytes, snapshots and error strings must match it.

// refEncodeText writes a v1 stream the way the fmt encoder did.
func refEncodeText(h Header, snaps []model.Snapshot) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	fmt.Fprintf(w, "$gostats %s\n", TextVersion)
	fmt.Fprintf(w, "$hostname %s\n", h.Hostname)
	if h.Arch != "" {
		fmt.Fprintf(w, "$arch %s\n", h.Arch)
	}
	if h.Registry != nil {
		for _, c := range h.Registry.Classes() {
			fmt.Fprintln(w, h.Registry.Get(c).Line())
		}
	}
	fmt.Fprintln(w)
	for _, s := range snaps {
		jobs := "-"
		if ids := sortedJobIDs(s.JobIDs); ids != nil {
			jobs = strings.Join(ids, ",")
		}
		fmt.Fprintf(w, "%.3f %s\n", s.Time, jobs)
		if s.Mark != "" {
			fmt.Fprintf(w, "%% %s\n", s.Mark)
		}
		if len(s.Trace) > 0 {
			w.WriteString(tracePrefix)
			for i, ts := range s.Trace {
				if i > 0 {
					w.WriteByte(',')
				}
				fmt.Fprintf(w, "%s:%d", ts.Stage, ts.UnixNs)
			}
			w.WriteByte('\n')
		}
		for _, r := range s.Records {
			fmt.Fprintf(w, "%s %s", r.Class, sanitizeInstance(r.Instance))
			for _, v := range r.Values {
				fmt.Fprintf(w, " %d", v)
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
	return buf.Bytes()
}

type refTextDecoder struct {
	sc     *bufio.Scanner
	h      Header
	lineNo int
	cur    *model.Snapshot
	err    error
	torn   bool
}

func newRefTextDecoder(r io.Reader) (*refTextDecoder, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	d := &refTextDecoder{sc: sc}
	// A last line with no newline was cut short: damage.
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		d.torn = atEOF && adv == len(data) && adv > 0 && data[adv-1] != '\n'
		return adv, tok, err
	})
	var schemas []*schema.Schema
	for sc.Scan() {
		d.lineNo++
		if d.torn {
			return nil, fmt.Errorf("rawfile: truncated header")
		}
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

func (d *refTextDecoder) Next() (model.Snapshot, error) {
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
		case d.torn:
			return fail("rawfile: line %d: stream ends inside a line", d.lineNo)
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
			if len(fields) == 2 && refIsTimestamp(fields[0]) {
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

func refIsTimestamp(s string) bool {
	if s == "" || (s[0] < '0' || s[0] > '9') {
		return false
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// refDecodeAll is DecodeAll over a text stream with the reference
// decoder (behind the same 64 KiB sniffing reader).
func refDecodeAll(data []byte) (*Stream, error) {
	br := bufio.NewReaderSize(bytes.NewReader(data), 1<<16)
	if _, err := br.Peek(len(binMagic)); err == io.EOF && len(data) == 0 {
		return nil, fmt.Errorf("codec: empty stream")
	}
	d, err := newRefTextDecoder(br)
	if err != nil {
		return nil, err
	}
	st := &Stream{Version: V1Text}
	for {
		s, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		st.Snapshots = append(st.Snapshots, s)
	}
	st.Header = d.h
	return st, nil
}

func refDecodeWireText(data []byte) (model.Snapshot, error) {
	st, err := refDecodeAll(data)
	if err != nil {
		return model.Snapshot{}, err
	}
	if len(st.Snapshots) != 1 {
		return model.Snapshot{}, fmt.Errorf("codec: wire message holds %d snapshots, want 1", len(st.Snapshots))
	}
	return st.Snapshots[0], nil
}
