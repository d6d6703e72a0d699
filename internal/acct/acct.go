// Package acct implements the batch scheduler's accounting log — the
// metadata source the paper's ETL joins raw counter data against (job
// id, user, executable, queue, node list, submit/start/end times,
// completion status). The format is a pipe-separated text log in the
// style of Slurm's sacct output, one record per completed job.
package acct

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gostats/internal/workload"
)

// Record is one accounting entry.
type Record struct {
	JobID    string
	User     string
	Account  string
	JobName  string
	Exe      string
	Queue    string
	Nodes    int
	Wayness  int
	Submit   float64
	Start    float64
	End      float64
	State    string
	NodeList []string
}

// header is the first line of every accounting file.
const header = "JobID|User|Account|JobName|Exe|Partition|NNodes|NTasksPerNode|Submit|Start|End|State|NodeList"

// fieldCount is the number of pipe-separated columns.
var fieldCount = len(strings.Split(header, "|"))

// Format renders the record as one log line.
func (r Record) Format() string {
	return strings.Join([]string{
		r.JobID, r.User, r.Account, r.JobName, r.Exe, r.Queue,
		strconv.Itoa(r.Nodes), strconv.Itoa(r.Wayness),
		strconv.FormatFloat(r.Submit, 'f', 0, 64),
		strconv.FormatFloat(r.Start, 'f', 0, 64),
		strconv.FormatFloat(r.End, 'f', 0, 64),
		r.State,
		strings.Join(r.NodeList, ","),
	}, "|")
}

// parseLine decodes one log line.
func parseLine(line string) (Record, error) {
	parts := strings.Split(line, "|")
	if len(parts) != fieldCount {
		return Record{}, fmt.Errorf("acct: %d fields, want %d: %q", len(parts), fieldCount, line)
	}
	var r Record
	r.JobID, r.User, r.Account, r.JobName, r.Exe, r.Queue =
		parts[0], parts[1], parts[2], parts[3], parts[4], parts[5]
	if r.JobID == "" {
		return Record{}, fmt.Errorf("acct: empty job id: %q", line)
	}
	var err error
	if r.Nodes, err = strconv.Atoi(parts[6]); err != nil {
		return Record{}, fmt.Errorf("acct: bad NNodes: %w", err)
	}
	if r.Wayness, err = strconv.Atoi(parts[7]); err != nil {
		return Record{}, fmt.Errorf("acct: bad NTasksPerNode: %w", err)
	}
	if r.Submit, err = strconv.ParseFloat(parts[8], 64); err != nil {
		return Record{}, fmt.Errorf("acct: bad Submit: %w", err)
	}
	if r.Start, err = strconv.ParseFloat(parts[9], 64); err != nil {
		return Record{}, fmt.Errorf("acct: bad Start: %w", err)
	}
	if r.End, err = strconv.ParseFloat(parts[10], 64); err != nil {
		return Record{}, fmt.Errorf("acct: bad End: %w", err)
	}
	r.State = parts[11]
	if parts[12] != "" {
		r.NodeList = strings.Split(parts[12], ",")
	}
	return r, nil
}

// Writer appends accounting records to a log.
type Writer struct {
	w           *bufio.Writer
	wroteHeader bool
}

// NewWriter wraps w for accounting output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Append writes one record (emitting the header first if needed).
func (w *Writer) Append(r Record) error {
	if !w.wroteHeader {
		if _, err := fmt.Fprintln(w.w, header); err != nil {
			return err
		}
		w.wroteHeader = true
	}
	if _, err := fmt.Fprintln(w.w, r.Format()); err != nil {
		return err
	}
	return w.w.Flush()
}

// Parse reads a complete accounting log.
func Parse(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line == header {
			continue
		}
		rec, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("acct: line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// LoadFile parses an accounting log from disk.
func LoadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// FromSpec builds the accounting record for a completed spec.
func FromSpec(s workload.Spec, start, end float64, nodeList []string) Record {
	return Record{
		JobID: s.JobID, User: s.User, Account: s.Account, JobName: s.JobName,
		Exe: s.Exe, Queue: s.Queue, Nodes: s.Nodes, Wayness: s.Wayness,
		Submit: s.SubmitAt, Start: start, End: end,
		State: string(s.Status), NodeList: nodeList,
	}
}
