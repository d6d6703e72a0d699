// Command brokerd runs the gostats message broker — the RabbitMQ stand-in
// of daemon mode (Fig 2). Node daemons publish raw collections to it and
// listend consumes them.
//
// Usage:
//
//	brokerd [-listen 127.0.0.1:5672] [-idle-timeout 0] [-ack-timeout 0]
//	        [-telemetry 127.0.0.1:9100]
//	        [-peers host1:5672,host2:5672,host3:5672]
//	        [-partitions 16] [-replication 2]
//
// With -peers set, the broker is one member of a partitioned fabric: the
// full static membership (which must include this broker's own
// advertised address) defines a consistent-hash partition map that
// publishers and listener groups fetch over the wire handshake and route
// by. The broker itself stays a plain queue server — replication is
// publisher-driven — but it serves the map, stamps its version on every
// ack, and probes dead peers so a revived broker rejoins the ring.
//
// With -telemetry set, the broker serves its own ops endpoint: /metrics
// (queue depth, published/delivered/redelivered/acked, connection count,
// frame codec latency, fabric map version and partition ownership),
// /healthz, /debug/vars and /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"gostats/internal/broker"
	"gostats/internal/fabric"
	"gostats/internal/pipeline"
	"gostats/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5672", "address to listen on")
	idleTimeout := flag.Duration("idle-timeout", 0,
		"drop producer connections silent for this long (0 = never)")
	ackTimeout := flag.Duration("ack-timeout", 0,
		"requeue the in-flight message and drop consumers that fail to ack within this window (0 = never)")
	telemetryAddr := flag.String("telemetry", "", "ops endpoint address (empty = disabled)")
	peers := flag.String("peers", "",
		"comma-separated fabric membership, including this broker's own advertised address (empty = standalone)")
	partitions := flag.Int("partitions", fabric.DefaultPartitions,
		fmt.Sprintf("fabric partition count, 1 to %d (must match across the cluster)", fabric.MaxPartitions))
	replication := flag.Int("replication", fabric.DefaultReplication,
		"fabric publish replication factor")
	probeEvery := flag.Duration("probe-interval", 2*time.Second,
		"how often to probe dead fabric peers for revival")
	flag.Parse()
	if *partitions < 1 || *partitions > fabric.MaxPartitions {
		log.Fatalf("brokerd: -partitions %d outside [1, %d]", *partitions, fabric.MaxPartitions)
	}

	srv := broker.NewServer()
	srv.IdleTimeout = *idleTimeout
	srv.AckTimeout = *ackTimeout
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("brokerd: %v", err)
	}
	fmt.Printf("brokerd: listening on %s\n", addr)

	if *peers != "" {
		members := strings.Split(*peers, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		found := false
		for _, m := range members {
			if m == *listen || m == addr {
				found = true
			}
		}
		if !found {
			log.Fatalf("brokerd: -peers %q must include this broker's own address %q", *peers, *listen)
		}
		m := fabric.NewMap(members, *partitions, *replication)
		if err := m.Validate(); err != nil {
			log.Fatalf("brokerd: -peers %q: %v", *peers, err)
		}
		view := fabric.NewView(m, broker.DefaultPolicy(), telemetry.Default())
		srv.MapProvider = view.Provider()
		view.StartProber(*probeEvery)
		defer view.Close()
		fmt.Printf("brokerd: fabric member (%d brokers, %d partitions, replication %d)\n",
			len(members), *partitions, *replication)
	}

	if *telemetryAddr != "" {
		ops, err := telemetry.Serve(*telemetryAddr, telemetry.Default())
		if err != nil {
			log.Fatalf("brokerd: %v", err)
		}
		defer ops.Close()
		ops.SetHealth("broker", nil)
		fmt.Printf("brokerd: telemetry at %s/metrics\n", ops.URL())
	}

	// The shared daemon lifecycle: wait for SIGINT/SIGTERM, then close
	// the server (which joins every connection goroutine).
	if _, err := (pipeline.Daemon{}).Run(); err != nil {
		log.Fatalf("brokerd: %v", err)
	}
	fmt.Println("brokerd: shutting down")
	if err := srv.Close(); err != nil {
		log.Fatalf("brokerd: close: %v", err)
	}
}
