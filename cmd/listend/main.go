// Command listend is the daemon-mode central consumer (Fig 2): it drains
// the brokers' raw-stats partition queues, archives every snapshot into
// the central store as it arrives, runs the online threshold monitor,
// and prints alerts for the system administrator (§VI-B).
//
// Usage:
//
//	listend -brokers 127.0.0.1:5672 -store ./central [-arch stampede]
//	        [-group-index 0 -group-count 1] [-codec binary]
//	        [-telemetry 127.0.0.1:9102]
//	        [-data-dir ./tsdb -hot-window 2h -retain-raw 48h -retain-10m 720h]
//
// -brokers lists the broker addresses, one or many; listend has a single
// transport either way. It is one member of a partition-consumer group:
// it bootstraps the partition map from the first broker that serves one
// (a lone standalone brokerd runs as a fabric of one), consumes its
// share of partitions (those where p % group-count == group-index) from
// every owner broker in parallel, deduplicates replicated frames by
// (host, sequence), and rebalances live when a broker dies or rejoins.
// A single consume-loop death restarts that partition's consumer with
// backoff; only repeated failures against a broker the map still
// considers alive are fatal.
//
// With -data-dir set, every consumed snapshot is also folded into a
// durable time-series store: a RAM hot set in front of crash-safe
// on-disk segment tiers (raw → 10 min → hourly). Points older than
// -hot-window are evicted from RAM once flushed to disk; the retention
// flags bound each tier's on-disk age (0 = keep forever). A cold-store
// write failure nacks the message so the broker redelivers — durable
// ingest is at-least-once end to end, and kill -9 loses at most the
// unsynced tail of the active segments.
//
// The process is one node.Ingest; this file only parses flags and
// handles signals. On SIGINT/SIGTERM the consumers stop, the in-flight
// messages are fully archived and acknowledged, and the archive and
// segment store are flushed and sealed before exit; a failure there
// exits non-zero. Archive headers carry the -arch fleet's chip
// architecture, as the collector and cron mode write them. With
// -telemetry set, it serves its own ops endpoint: /metrics
// (snapshots consumed, drain lag, store-write latency, alerts, fabric
// partition ownership and replication lag), /healthz, /debug/vars and
// /debug/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/codec"
	"gostats/internal/daemon"
	"gostats/internal/fabric"
	"gostats/internal/node"
	"gostats/internal/realtime"
	"gostats/internal/segstore"
	"gostats/internal/telemetry"
)

func main() {
	brokersList := flag.String("brokers", "127.0.0.1:5672",
		"comma-separated broker addresses: one standalone broker, or every fabric member")
	groupIndex := flag.Int("group-index", 0, "this member's index within the listener group")
	groupCount := flag.Int("group-count", 1, "total members in the listener group")
	storeDir := flag.String("store", "central", "central raw store directory")
	arch := flag.String("arch", "stampede", "node type the fleet runs: stampede, lonestar, largemem, nehalem (schema and archive header source)")
	codecName := flag.String("codec", "text", "archive codec for new store files: text (v1) or binary (v2)")
	telemetryAddr := flag.String("telemetry", "", "ops endpoint address (empty = disabled)")
	probeEvery := flag.Duration("probe-interval", 2*time.Second,
		"how often to probe dead fabric brokers for revival")
	dataDir := flag.String("data-dir", "", "durable time-series store directory (empty = RAM only)")
	hotWindow := flag.Duration("hot-window", 2*time.Hour, "how much recent history stays in RAM in front of the segment store")
	retainRaw := flag.Duration("retain-raw", 0, "drop raw-tier segments older than this (0 = keep forever)")
	retainMid := flag.Duration("retain-10m", 0, "drop 10m-tier segments older than this (0 = keep forever)")
	retainHour := flag.Duration("retain-1h", 0, "drop hourly-tier segments older than this (0 = keep forever)")
	syncEvery := flag.Bool("fsync", false, "fsync the segment store on every commit (power-loss durability)")
	flag.Parse()

	archiveCodec, err := codec.ParseVersion(*codecName)
	if err != nil {
		log.Fatalf("listend: %v", err)
	}
	fleet, err := chip.Fleet(*arch)
	if err != nil {
		log.Fatalf("listend: %v", err)
	}

	var ops *telemetry.OpsServer
	if *telemetryAddr != "" {
		ops, err = telemetry.Serve(*telemetryAddr, telemetry.Default())
		if err != nil {
			log.Fatalf("listend: %v", err)
		}
		defer ops.Close()
		ops.SetHealth("store", nil)
		log.Printf("listend: telemetry at %s/metrics", ops.URL())
	}

	brokers := strings.Split(*brokersList, ",")
	for i := range brokers {
		brokers[i] = strings.TrimSpace(brokers[i])
	}
	m, err := fabric.Bootstrap(brokers)
	if err != nil {
		if ops != nil {
			ops.SetHealth("broker", err)
		}
		log.Fatalf("listend: %v", err)
	}
	if ops != nil {
		ops.SetHealth("broker", nil)
	}
	view := fabric.NewView(m, broker.DefaultPolicy(), telemetry.Default())
	view.StartProber(*probeEvery)
	defer view.Close()

	n, err := node.NewIngest(view, node.IngestConfig{
		StoreDir: *storeDir,
		Codec:    archiveCodec,
		Fleet:    fleet,
		DataDir:  *dataDir,
		Segments: segstore.Options{
			Sync:       *syncEvery,
			RetainRaw:  retainRaw.Seconds(),
			RetainMid:  retainMid.Seconds(),
			RetainHour: retainHour.Seconds(),
		},
		HotWindow:  hotWindow.Seconds(),
		GroupIndex: *groupIndex,
		GroupCount: *groupCount,
		Notify:     func(a realtime.Alert) { fmt.Printf("ALERT %s\n", a) },
	})
	if err != nil {
		log.Fatalf("listend: %v", err)
	}
	if n.Segments != nil {
		st := n.Segments.Stats()
		if st.RecoveredPts > 0 || st.TornTruncated > 0 || st.Quarantined > 0 {
			log.Printf("listend: segment store recovered %d active points (%d torn tails truncated, %d segments quarantined)",
				st.RecoveredPts, st.TornTruncated, st.Quarantined)
		}
		log.Printf("listend: durable time-series store at %s (hot window %s)", *dataDir, hotWindow)
	}
	log.Printf("listend: group member %d/%d consuming %d partitions across %d brokers into %s (map v%d)",
		*groupIndex, *groupCount, m.Partitions, len(m.Brokers), *storeDir, m.Version)

	_, derr := daemon.Run(func(ctx context.Context) error {
		select {
		case <-ctx.Done():
			return nil
		case err := <-n.Err():
			// A consumer died repeatedly against a broker the map
			// still considers alive, or a sink error made the
			// listener fatal — either way nothing further can be
			// archived, so exit with the error.
			return err
		}
	}, func(s os.Signal) {
		log.Printf("listend: %s: finishing in-flight messages and shutting down", s)
		if ops != nil {
			ops.SetHealth("broker", fmt.Errorf("shutting down on %s", s))
		}
	})
	cerr := n.Close()
	st := n.Stats()
	if derr != nil {
		log.Fatalf("listend: %v", derr)
	}
	if cerr != nil {
		log.Fatalf("listend: shutdown: %v", cerr)
	}
	log.Printf("listend: stopped cleanly; %d snapshots handled (%d deduped, %d consumer restarts)",
		st.Handled, st.Deduped, st.Restarts)
}
