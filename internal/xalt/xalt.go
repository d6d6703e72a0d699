// Package xalt reimplements the XALT plugin the portal integrates with
// (§IV-B): per-job records of which modules were loaded, which libraries
// the executable linked, and how it was compiled. The paper uses exactly
// this join for the §V-A vectorization finding — "many applications were
// not compiled with the most advanced vector instruction set available".
package xalt

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"

	"gostats/internal/fsutil"
)

// Record is one job's captured environment.
type Record struct {
	JobID     string   `json:"jobid"`
	Exe       string   `json:"exe"`
	ExePath   string   `json:"exe_path"`
	WorkDir   string   `json:"cwd"`
	Modules   []string `json:"modules"`
	Libraries []string `json:"libraries"`
	Compiler  string   `json:"compiler"`
	// VecISA is the vector instruction set the executable was built for
	// ("sse2", "avx"), recovered from the compile line the way XALT
	// stores it.
	VecISA string `json:"vec_isa"`
}

// DB is the XALT record store, keyed by job id. Safe for concurrent
// use.
type DB struct {
	mu   sync.RWMutex
	recs map[string]Record
}

// NewDB returns an empty store.
func NewDB() *DB {
	return &DB{recs: make(map[string]Record)}
}

// Put stores (or replaces) a record.
func (db *DB) Put(r Record) error {
	if r.JobID == "" {
		return fmt.Errorf("xalt: record missing job id")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.recs[r.JobID] = r
	return nil
}

// Get returns the record for a job id; ok is false when absent (the
// plugin is optional — the portal degrades gracefully).
func (db *DB) Get(jobID string) (Record, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.recs[jobID]
	return r, ok
}

// Len reports the number of records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.recs)
}

// JobIDs returns the stored job ids, sorted.
func (db *DB) JobIDs() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ids := make([]string, 0, len(db.recs))
	for id := range db.recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Save replaces the file at path with the store as JSON lines,
// atomically.
func (db *DB) Save(path string) error {
	db.mu.RLock()
	ids := make([]string, 0, len(db.recs))
	for id := range db.recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	recs := make([]Record, 0, len(ids))
	for _, id := range ids {
		recs = append(recs, db.recs[id])
	}
	db.mu.RUnlock()

	return fsutil.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				return fmt.Errorf("xalt: save: %w", err)
			}
		}
		return nil
	})
}

// Load reads a store written by Save.
func Load(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db := NewDB()
	dec := json.NewDecoder(f)
	for dec.More() {
		var r Record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("xalt: load: %w", err)
		}
		if err := db.Put(r); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Capture synthesizes the environment record the LD_PRELOAD linker shim
// would capture for a job: module list and libraries consistent with the
// executable, and a compiler/ISA choice. vectorized hints whether the
// build used the advanced vector ISA — the knob behind the §V-A finding.
func Capture(jobID, exe, user string, vectorized bool, seed int64) Record {
	rng := rand.New(rand.NewSource(seed))
	compilers := []string{"intel/13.0.2", "intel/14.0.1", "gcc/4.7.1"}
	mpis := []string{"mvapich2/1.9", "impi/4.1.0"}
	rec := Record{
		JobID:   jobID,
		Exe:     exe,
		ExePath: "/home1/" + user + "/bin/" + exe,
		WorkDir: "/scratch/" + user + "/run",
		Modules: []string{
			"TACC", compilers[rng.Intn(len(compilers))], mpis[rng.Intn(len(mpis))],
		},
		Libraries: []string{
			"libmpich.so.10", "libm.so.6", "libc.so.6",
		},
	}
	rec.Compiler = rec.Modules[1]
	if strings.HasPrefix(rec.Compiler, "intel") {
		rec.Libraries = append(rec.Libraries, "libimf.so", "libsvml.so")
	}
	if vectorized {
		rec.VecISA = "avx"
	} else {
		rec.VecISA = "sse2"
	}
	if strings.Contains(exe, "wrf") {
		rec.Modules = append(rec.Modules, "netcdf/4.3.2", "hdf5/1.8.12")
		rec.Libraries = append(rec.Libraries, "libnetcdf.so.7", "libhdf5.so.8")
	}
	return rec
}

// ISAStudy relates build ISA to measured vectorization: for each ISA it
// reports the number of jobs and their mean VecPercent (supplied by the
// caller per job id). This is the §V-A "not compiled with the most
// advanced vector instruction set" examination.
func (db *DB) ISAStudy(vecOf func(jobID string) (float64, bool)) map[string]ISAGroup {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := map[string]ISAGroup{}
	for id, r := range db.recs {
		v, ok := vecOf(id)
		if !ok {
			continue
		}
		g := out[r.VecISA]
		g.Jobs++
		g.sum += v
		g.Mean = g.sum / float64(g.Jobs)
		out[r.VecISA] = g
	}
	return out
}

// ISAGroup is one instruction set's aggregate in an ISAStudy.
type ISAGroup struct {
	Jobs int
	Mean float64
	sum  float64
}
