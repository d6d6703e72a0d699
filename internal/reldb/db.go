package reldb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Filter is one query predicate in Django lookup style: the Field is a
// column name plus a "__op" suffix (exact when absent), Value is the
// comparison operand.
//
//	{"exe", "wrf.exe"}            exe == wrf.exe
//	{"runtime__gte", 600.0}       runtime >= 600
//	{"user__contains", "u04"}     substring match
type Filter struct {
	Field string
	Value interface{}
}

// F is shorthand for building a Filter: reldb.F("runtime__gte", 600).
func F(field string, value interface{}) Filter {
	return Filter{Field: field, Value: value}
}

// parseLookup splits "runtime__gte" into ("runtime", "gte").
func parseLookup(s string) (fieldName, op string) {
	if i := strings.LastIndex(s, "__"); i >= 0 {
		return strings.ToLower(s[:i]), s[i+2:]
	}
	return strings.ToLower(s), "exact"
}

func toFloat(v interface{}) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case uint64:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("unsupported operand type %T", v)
	}
}

// colcache holds columnar projections of numeric fields, built lazily
// per requested field against one table generation. Columns are
// immutable once built.
type colcache struct {
	gen  uint64
	cols map[string][]float64
}

// DB is the in-memory job table. All methods are safe for concurrent
// use. Reads snapshot the row slice and columns under one lock
// acquisition and then scan lock-free: Insert never mutates a published
// slice in place (replacement copies the row slice first).
type DB struct {
	mu   sync.RWMutex
	gen  uint64 // bumped by every Insert; stamps caches
	rows []*JobRow
	byID map[string]*JobRow
	cc   *colcache
}

// New returns an empty DB.
func New() *DB {
	return &DB{byID: make(map[string]*JobRow)}
}

// Insert adds or replaces rows by job id.
func (db *DB) Insert(rows ...*JobRow) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cloned := false
	for _, r := range rows {
		if old, ok := db.byID[r.JobID]; ok {
			if !cloned {
				// Copy-on-write: concurrent readers may hold the current
				// slice, so replacement must not write into it.
				db.rows = append([]*JobRow(nil), db.rows...)
				cloned = true
			}
			for i, x := range db.rows {
				if x == old {
					db.rows[i] = r
					break
				}
			}
		} else {
			db.rows = append(db.rows, r)
		}
		db.byID[r.JobID] = r
	}
	db.gen++
}

// Generation returns a counter that changes on every Insert — the cheap
// invalidation stamp the portal's response cache keys on.
func (db *DB) Generation() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
}

// Len reports the number of rows.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.rows)
}

// Get returns the row for a job id, or nil.
func (db *DB) Get(jobID string) *JobRow {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.byID[jobID]
}

// colLocked returns the columnar projection for one numeric field at the
// current generation. With build unset it only reports whether a fresh
// column exists; with build set (write lock held) it materializes it.
func (db *DB) colLocked(name string, build bool) ([]float64, bool) {
	if db.cc == nil || db.cc.gen != db.gen {
		if !build {
			return nil, false
		}
		db.cc = &colcache{gen: db.gen, cols: make(map[string][]float64)}
	}
	col, ok := db.cc.cols[name]
	if !ok {
		if !build {
			return nil, false
		}
		get := fields[name].num
		col = make([]float64, len(db.rows))
		for i, r := range db.rows {
			col[i] = get(r)
		}
		db.cc.cols[name] = col
	}
	return col, true
}

// Count returns the number of rows matching the filters.
func (db *DB) Count(filters ...Filter) (int, error) {
	rows, err := db.Query(filters...)
	return len(rows), err
}

// Avg aggregates the mean of a numeric field over the filtered rows
// (Django's Avg()). An empty selection yields 0. The sum folds in job-id
// order, so its bits do not depend on the order rows were inserted in
// (a live assembler finalizes jobs in the order their hosts' samples
// happen to arrive).
func (db *DB) Avg(fieldName string, filters ...Filter) (float64, error) {
	rows, err := db.Query(filters...)
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, nil
	}
	// Query's result is a fresh slice, the caller's to reorder.
	slices.SortFunc(rows, func(a, b *JobRow) int { return strings.Compare(a.JobID, b.JobID) })
	sum := 0.0
	for _, r := range rows {
		v, err := Value(r, fieldName)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(len(rows)), nil
}

// Values projects a numeric field over the filtered rows (for
// correlation studies and histograms).
func (db *DB) Values(fieldName string, filters ...Filter) ([]float64, error) {
	rows, err := db.Query(filters...)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rows))
	for i, r := range rows {
		v, err := Value(r, fieldName)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// All returns every row in insertion order.
func (db *DB) All() []*JobRow {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]*JobRow(nil), db.rows...)
}

// QueryOpts extends Query with ordering and truncation — the ORM's
// order_by()[offset:offset+n] idiom the portal's job lists use.
type QueryOpts struct {
	// OrderBy is a numeric field name, optionally prefixed with "-" for
	// descending order ("-starttime"). Empty keeps insertion order. Ties
	// on equal sort keys keep their pre-sort relative order.
	OrderBy string
	// Offset skips that many rows after ordering; an offset at or past
	// the end yields an empty result.
	Offset int
	// Limit truncates the result after Offset (0 = no limit).
	Limit int
}

// QueryOrdered runs Query and then applies ordering, offset and limit
// (QueryOpts.Page).
func (db *DB) QueryOrdered(opts QueryOpts, filters ...Filter) ([]*JobRow, error) {
	rows, err := db.Query(filters...)
	if err != nil {
		return nil, err
	}
	return opts.Page(rows)
}

// Page orders rows in place by opts.OrderBy and returns the page that
// Offset and Limit select from them.
func (opts QueryOpts) Page(rows []*JobRow) ([]*JobRow, error) {
	if opts.OrderBy != "" {
		name := strings.ToLower(opts.OrderBy)
		desc := false
		if strings.HasPrefix(name, "-") {
			desc = true
			name = name[1:]
		}
		col, ok := fields[name]
		if !ok || col.kind != kindNum {
			return nil, fmt.Errorf("reldb: cannot order by %q", opts.OrderBy)
		}
		sort.SliceStable(rows, func(i, j int) bool {
			a, b := col.num(rows[i]), col.num(rows[j])
			if desc {
				return a > b
			}
			return a < b
		})
	}
	if opts.Offset > 0 {
		if opts.Offset >= len(rows) {
			return nil, nil
		}
		rows = rows[opts.Offset:]
	}
	if opts.Limit > 0 && len(rows) > opts.Limit {
		rows = rows[:opts.Limit]
	}
	return rows, nil
}
