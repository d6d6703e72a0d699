// Command report prints consulting reports from a job table: the full
// per-job resource-use profile with targeted advice, or a fleet summary.
//
// Usage:
//
//	report -db jobs.gsj -job 4000003 [-xalt xalt.jsonl]
//	report -db jobs.gsj -summary
package main

import (
	"flag"
	"fmt"
	"log"

	"gostats/internal/flagging"
	"gostats/internal/reldb"
	"gostats/internal/report"
	"gostats/internal/xalt"
)

func main() {
	dbPath := flag.String("db", "jobs.gsj", "job table journaled by jobetl")
	jobID := flag.String("job", "", "job id to report on")
	xaltPath := flag.String("xalt", "", "XALT environment store (optional)")
	summary := flag.Bool("summary", false, "print the fleet summary instead")
	flag.Parse()

	db, err := reldb.Load(*dbPath)
	if err != nil {
		log.Fatalf("report: %v", err)
	}
	flags := flagging.Default(flagging.DefaultThresholds())

	if *summary {
		text, err := report.FleetSummary(db, flags)
		if err != nil {
			log.Fatalf("report: %v", err)
		}
		fmt.Print(text)
		return
	}
	if *jobID == "" {
		log.Fatal("report: -job or -summary required")
	}
	row := db.Get(*jobID)
	if row == nil {
		log.Fatalf("report: job %s not in %s", *jobID, *dbPath)
	}
	var xrec *xalt.Record
	if *xaltPath != "" {
		xdb, err := xalt.Load(*xaltPath)
		if err != nil {
			log.Fatalf("report: %v", err)
		}
		if r, ok := xdb.Get(*jobID); ok {
			xrec = &r
		}
	}
	fmt.Print(report.Job(row, flags, xrec))
}
