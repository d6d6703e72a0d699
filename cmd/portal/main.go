// Command portal serves the gostats web portal (§IV-B) over a job table
// produced by jobetl or simcluster.
//
// Usage:
//
//	portal -db jobs.gsj [-listen :8080] [-store ./central]
//	       [-telemetry 127.0.0.1:9103]
//
// The job table is read from the journal jobetl appends to, without
// modifying it: the newest finalization of each job wins, and a torn
// tail (a jobetl run still appending, or killed mid-append) is left on
// disk and ignored. With -store set, detail pages include the Fig 5
// per-node plots, assembled on demand from the raw archive. With
// -telemetry set, the portal serves its own ops endpoint: /metrics
// (request count, latency and status by route), /healthz, /debug/vars
// and /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"

	"gostats/internal/chip"
	"gostats/internal/portal"
	"gostats/internal/rawfile"
	"gostats/internal/reldb"
	"gostats/internal/telemetry"
	"gostats/internal/xalt"
)

func main() {
	dbPath := flag.String("db", "jobs.gsj", "job table journaled by jobetl")
	listen := flag.String("listen", "127.0.0.1:8080", "listen address")
	storeDir := flag.String("store", "", "raw store for detail-page plots (optional)")
	xaltPath := flag.String("xalt", "", "XALT environment store (optional)")
	telemetryAddr := flag.String("telemetry", "", "ops endpoint address (empty = disabled)")
	flag.Parse()

	if *telemetryAddr != "" {
		ops, err := telemetry.Serve(*telemetryAddr, telemetry.Default())
		if err != nil {
			log.Fatalf("portal: %v", err)
		}
		defer ops.Close()
		ops.SetHealth("portal", nil)
		fmt.Printf("portal: telemetry at %s/metrics\n", ops.URL())
	}

	db, err := reldb.Load(*dbPath)
	if err != nil {
		log.Fatalf("portal: %v", err)
	}
	reg := chip.StampedeNode().Registry()

	var series portal.SeriesSource
	if *storeDir != "" {
		store, err := rawfile.NewStore(*storeDir)
		if err != nil {
			log.Fatalf("portal: %v", err)
		}
		series = portal.StoreSeries(store)
	}
	srv := portal.NewServer(db, reg, series)
	if *xaltPath != "" {
		xdb, err := xalt.Load(*xaltPath)
		if err != nil {
			log.Fatalf("portal: %v", err)
		}
		srv.XALT = xdb
	}
	fmt.Printf("portal: %d jobs, serving on http://%s/\n", db.Len(), *listen)
	if err := http.ListenAndServe(*listen, srv); err != nil {
		log.Fatalf("portal: %v", err)
	}
}
