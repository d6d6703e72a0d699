package reldb

import (
	"fmt"
	"slices"
	"strings"
)

// FieldStats is one numeric field's distribution over a filtered row
// set, computed in a single sweep by Stats.
type FieldStats struct {
	Field  string
	Count  int
	Min    float64
	Max    float64
	Sum    float64
	Values []float64 // per-row projection, in result order
}

// Mean returns the arithmetic mean (0 for an empty selection).
func (s *FieldStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Stats computes the values and aggregates of several numeric fields
// over the filtered rows in one pass: one filter scan plus one
// projection sweep, instead of one full Query per field. The portal's
// histogram quartet is the canonical caller. Keys in the returned map
// are the lowercased field names.
func (db *DB) Stats(fieldNames []string, filters ...Filter) (map[string]*FieldStats, error) {
	nf, err := numFields(fieldNames)
	if err != nil {
		return nil, err
	}
	rows, err := db.Query(filters...)
	if err != nil {
		return nil, err
	}
	return foldStats(rows, nf), nil
}

// StatsRows computes the same per-field sweep over an already-filtered
// row set (e.g. the rows a handler just fetched for display), avoiding a
// second filter scan entirely.
func StatsRows(rows []*JobRow, fieldNames ...string) (map[string]*FieldStats, error) {
	nf, err := numFields(fieldNames)
	if err != nil {
		return nil, err
	}
	return foldStats(rows, nf), nil
}

// numField is a resolved numeric field: its lowercased name and getter.
type numField struct {
	name string
	get  func(*JobRow) float64
}

// numFields resolves field names, refusing unknown and non-numeric ones.
func numFields(fieldNames []string) ([]numField, error) {
	out := make([]numField, len(fieldNames))
	for i, n := range fieldNames {
		name := strings.ToLower(n)
		f, ok := fields[name]
		if !ok {
			return nil, fmt.Errorf("reldb: unknown field %q", n)
		}
		if f.kind != kindNum {
			return nil, fmt.Errorf("reldb: field %q is not numeric", n)
		}
		out[i] = numField{name, f.num}
	}
	return out, nil
}

// foldStats folds each field over rows. Count, Min, Max and Values
// follow the rows' order; Sum, and with it Mean, folds in job-id order,
// as Avg does, so its bits do not depend on the order rows were
// inserted or passed in.
func foldStats(rows []*JobRow, nf []numField) map[string]*FieldStats {
	byID := slices.Clone(rows)
	slices.SortStableFunc(byID, func(a, b *JobRow) int { return strings.Compare(a.JobID, b.JobID) })
	out := make(map[string]*FieldStats, len(nf))
	for _, f := range nf {
		a := &FieldStats{Field: f.name, Values: make([]float64, 0, len(rows))}
		for _, r := range rows {
			v := f.get(r)
			if a.Count == 0 {
				a.Min, a.Max = v, v
			} else if v < a.Min {
				a.Min = v
			} else if v > a.Max {
				a.Max = v
			}
			a.Count++
			a.Values = append(a.Values, v)
		}
		for _, r := range byID {
			a.Sum += f.get(r)
		}
		out[f.name] = a
	}
	return out
}
