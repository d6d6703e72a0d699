// Command jobetl is the nightly pipeline (§IV-A): it reads every host's
// archived raw files from the central store, maps snapshots to jobs,
// computes the Table I metrics for each complete job, and writes the job
// table for the portal.
//
// Usage:
//
//	jobetl -store ./central -out jobs.gob [-acct accounting.log] [-arch stampede]
//	       [-journal jobs.jnl]
//
// With -journal set, previously journaled rows are replayed before the
// run and every finalized row is appended to the crash-safe journal as
// it is produced; the gob written by -out becomes a derived export of
// the same table. The journal survives kill -9 mid-run (losing at most
// the row being appended); the gob is written atomically at the end.
package main

import (
	"flag"
	"fmt"
	"log"

	"gostats/internal/acct"
	"gostats/internal/chip"
	"gostats/internal/etl"
	"gostats/internal/rawfile"
	"gostats/internal/reldb"
)

func main() {
	storeDir := flag.String("store", "central", "central raw store directory")
	out := flag.String("out", "jobs.gob", "output job table")
	acctPath := flag.String("acct", "", "scheduler accounting log to join metadata from")
	arch := flag.String("arch", "stampede", "node type the fleet runs")
	journalPath := flag.String("journal", "", "crash-safe job journal to replay and append to (optional)")
	flag.Parse()

	cfg, err := chip.Fleet(*arch)
	if err != nil {
		log.Fatalf("jobetl: %v", err)
	}

	store, err := rawfile.NewStore(*storeDir)
	if err != nil {
		log.Fatalf("jobetl: %v", err)
	}
	var meta map[string]etl.Meta
	if *acctPath != "" {
		recs, err := acct.LoadFile(*acctPath)
		if err != nil {
			log.Fatalf("jobetl: %v", err)
		}
		meta = make(map[string]etl.Meta, len(recs))
		for _, r := range recs {
			meta[r.JobID] = etl.MetaFromAcct(r)
		}
	}
	db := reldb.New()
	var jnl *reldb.Journal
	if *journalPath != "" {
		jnl, err = reldb.OpenJournal(*journalPath, db, false)
		if err != nil {
			log.Fatalf("jobetl: %v", err)
		}
		if rows, trunc := jnl.Replayed(); rows > 0 || trunc > 0 {
			fmt.Printf("jobetl: journal replayed %d rows (%d torn frames truncated)\n", rows, trunc)
		}
	}
	ids, err := etl.IngestStoreJournaled(store, cfg.Registry(), meta, db, jnl)
	if err != nil {
		log.Fatalf("jobetl: %v", err)
	}
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			log.Fatalf("jobetl: journal close: %v", err)
		}
	}
	if err := db.Save(*out); err != nil {
		log.Fatalf("jobetl: %v", err)
	}
	fmt.Printf("jobetl: ingested %d jobs into %s\n", len(ids), *out)
	for _, id := range ids {
		row := db.Get(id)
		fmt.Printf("  job %-10s hosts=%d CPU_Usage=%.2f flops=%.3g/s MetaDataRate=%.4g/s\n",
			id, len(row.Hosts), row.Metrics.CPUUsage, row.Metrics.Flops, row.Metrics.MetaDataRate)
	}
}
