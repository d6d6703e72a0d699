package reldb

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// This file is the scan engine behind Query: filters compile once into
// typed predicates (no per-row interface{} boxing), numeric predicates
// evaluate against contiguous columnar projections, and large scans fan
// out across row shards.

// cmpOp is a compiled numeric comparison operator.
type cmpOp int

const (
	opEQ cmpOp = iota
	opNE
	opGT
	opGTE
	opLT
	opLTE
)

// numPred is a compiled numeric predicate: one comparison against one
// column.
type numPred struct {
	name string
	op   cmpOp
	want float64
	col  []float64 // columnar projection; attached at plan time
}

// matchVal applies the comparison to one column value.
func (p *numPred) matchVal(v float64) bool {
	switch p.op {
	case opEQ:
		return v == p.want
	case opNE:
		return v != p.want
	case opGT:
		return v > p.want
	case opGTE:
		return v >= p.want
	case opLT:
		return v < p.want
	}
	return v <= p.want
}

// strPred is a compiled string predicate.
type strPred struct {
	name  string
	match func(*JobRow) bool
}

// cfilter is one compiled filter, tagged with its kind.
type cfilter struct {
	isNum bool
	num   numPred
	str   strPred
}

// compileFilters parses and type-checks every filter once, up front.
func compileFilters(filters []Filter) ([]cfilter, error) {
	out := make([]cfilter, 0, len(filters))
	for _, f := range filters {
		name, op := parseLookup(f.Field)
		col, ok := fields[name]
		if !ok {
			return nil, fmt.Errorf("reldb: unknown field %q", name)
		}
		if col.kind == kindStr {
			want, ok := f.Value.(string)
			if !ok {
				return nil, fmt.Errorf("reldb: field %q wants a string operand", name)
			}
			get := col.str
			var match func(*JobRow) bool
			switch op {
			case "exact":
				match = func(r *JobRow) bool { return get(r) == want }
			case "ne":
				match = func(r *JobRow) bool { return get(r) != want }
			case "contains":
				match = func(r *JobRow) bool { return strings.Contains(get(r), want) }
			case "icontains":
				lw := strings.ToLower(want)
				match = func(r *JobRow) bool { return strings.Contains(strings.ToLower(get(r)), lw) }
			default:
				return nil, fmt.Errorf("reldb: string field %q does not support op %q", name, op)
			}
			out = append(out, cfilter{str: strPred{name: name, match: match}})
			continue
		}
		want, err := toFloat(f.Value)
		if err != nil {
			return nil, fmt.Errorf("reldb: field %q: %w", name, err)
		}
		var c cmpOp
		switch op {
		case "exact":
			c = opEQ
		case "ne":
			c = opNE
		case "gt":
			c = opGT
		case "gte":
			c = opGTE
		case "lt":
			c = opLT
		case "lte":
			c = opLTE
		default:
			return nil, fmt.Errorf("reldb: numeric field %q does not support op %q", name, op)
		}
		out = append(out, cfilter{isNum: true, num: numPred{name: name, op: c, want: want}})
	}
	return out, nil
}

// acquire returns the row slice and attaches a columnar projection to
// every numeric predicate, all captured under one lock acquisition and
// rebuilding stale columns first when the table changed. Every part is
// immutable once captured — Insert replaces rather than mutates — so the
// scan itself runs without holding any lock.
func (db *DB) acquire(cfs []cfilter) []*JobRow {
	db.mu.RLock()
	rows, ok := db.viewLocked(cfs, false)
	db.mu.RUnlock()
	if ok {
		return rows
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	rows, _ = db.viewLocked(cfs, true)
	return rows
}

// viewLocked attaches current columns to cfs. With build unset it only
// reads (caller holds RLock) and reports ok=false when a column must be
// built; with build set (caller holds the write lock) it builds them.
func (db *DB) viewLocked(cfs []cfilter, build bool) ([]*JobRow, bool) {
	for i := range cfs {
		if !cfs[i].isNum {
			continue
		}
		col, ok := db.colLocked(cfs[i].num.name, build)
		if !ok {
			return nil, false
		}
		cfs[i].num.col = col
	}
	return db.rows, true
}

// parallelScanMin is the table size below which a scan stays on the
// calling goroutine; maxScanWorkers bounds the fan-out.
const (
	parallelScanMin = 4096
	maxScanWorkers  = 8
)

// scanChunks runs fn over [0,n) in parallel chunks and concatenates the
// per-chunk results in order, preserving overall row order.
func scanChunks(n int, fn func(lo, hi int) []*JobRow) []*JobRow {
	workers := runtime.GOMAXPROCS(0)
	if workers > maxScanWorkers {
		workers = maxScanWorkers
	}
	if n < parallelScanMin || workers < 2 {
		return fn(0, n)
	}
	chunk := (n + workers - 1) / workers
	parts := make([][]*JobRow, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]*JobRow, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Query returns the rows matching every filter (AND semantics), in
// insertion order. Numeric predicates scan columnar projections, in
// parallel across row shards on large tables.
func (db *DB) Query(filters ...Filter) ([]*JobRow, error) {
	cfs, err := compileFilters(filters)
	if err != nil {
		return nil, err
	}
	rows := db.acquire(cfs)
	var nums []numPred
	var strs []strPred
	for i := range cfs {
		if cfs[i].isNum {
			nums = append(nums, cfs[i].num)
		} else {
			strs = append(strs, cfs[i].str)
		}
	}
	return scanChunks(len(rows), func(lo, hi int) []*JobRow {
		var out []*JobRow
	scan:
		for i := lo; i < hi; i++ {
			for k := range nums {
				if !nums[k].matchVal(nums[k].col[i]) {
					continue scan
				}
			}
			r := rows[i]
			for k := range strs {
				if !strs[k].match(r) {
					continue scan
				}
			}
			out = append(out, r)
		}
		return out
	}), nil
}
