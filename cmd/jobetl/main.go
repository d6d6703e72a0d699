// Command jobetl is the nightly pipeline (§IV-A): it reads every host's
// archived raw files from the central store, maps snapshots to jobs,
// computes the Table I metrics for each complete job, and journals the
// job table for the portal.
//
// Usage:
//
//	jobetl -store ./central -out jobs.gsj [-acct accounting.log] [-arch stampede]
//
// The table at -out is a crash-safe journal: rows already in it are
// replayed before the run, and every row is appended as it is
// finalized, so a kill -9 mid-run loses at most the row being appended.
// A row identical to the one already journaled is not written again,
// so rerunning over an unchanged store leaves the file unchanged.
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
	out := flag.String("out", "jobs.gsj", "job table journal to replay and append to")
	acctPath := flag.String("acct", "", "scheduler accounting log to join metadata from")
	arch := flag.String("arch", "stampede", "node type the fleet runs")
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
	jnl, err := reldb.OpenJournal(*out, db, false)
	if err != nil {
		log.Fatalf("jobetl: %v", err)
	}
	if rows, trunc := jnl.Replayed(); rows > 0 || trunc > 0 {
		fmt.Printf("jobetl: journal replayed %d rows (%d torn frames truncated)\n", rows, trunc)
	}
	ids, err := etl.IngestStoreJournaled(store, cfg.Registry(), meta, db, jnl)
	if err != nil {
		log.Fatalf("jobetl: %v", err)
	}
	if err := jnl.Close(); err != nil {
		log.Fatalf("jobetl: journal close: %v", err)
	}
	fmt.Printf("jobetl: ingested %d jobs into %s\n", len(ids), *out)
	for _, id := range ids {
		row := db.Get(id)
		fmt.Printf("  job %-10s hosts=%d CPU_Usage=%.2f flops=%.3g/s MetaDataRate=%.4g/s\n",
			id, len(row.Hosts), row.Metrics.CPUUsage, row.Metrics.Flops, row.Metrics.MetaDataRate)
	}
}
