// Command tacc_statsd is the daemon-mode node agent (Fig 2): it runs a
// simulated node under a chosen workload, collects every interval, and
// publishes each snapshot to the broker in real time.
//
// The -speedup flag compresses simulated time: with -interval 600 and
// -speedup 600, one simulated 10-minute interval elapses per wall second.
//
// Usage:
//
//	tacc_statsd -brokers 127.0.0.1:5672 [-host c401-101] [-job 4001]
//	            [-workload wrf|storm|idle] [-interval 600] [-speedup 600]
//	            [-ticks 12] [-codec binary] [-telemetry 127.0.0.1:9101]
//	            [-spool /var/spool/gostats] [-spool-max-bytes N]
//	            [-spool-max-age SECONDS] [-spool-sync]
//
// -brokers lists the broker addresses, one or many; the daemon has a
// single transport either way. It bootstraps the partition map from the
// first broker that serves one, routes each snapshot to its host's
// partition, and requires confirms from every replica owner before an
// interval counts as delivered. A lone standalone brokerd (no -peers)
// is run as a fabric of one: sixteen partition queues on that broker,
// one owner each. A dead owner trips a breaker, the map rebalances
// across the survivors, and spooled snapshots replay to the partition's
// current owners; the last live broker is never routed around — its
// breaker probes it back into service.
//
// With -spool set, snapshots the brokers cannot accept are written to a
// crash-safe on-disk spool and replayed in order when they come back —
// a broker outage costs latency, not data. Without it, an undeliverable
// snapshot is dropped after the publish retry rounds are exhausted.
//
// The transport is one node.Agent; this file parses flags, handles
// signals and runs the collection loop: sleep, advance the node,
// collect and publish.
//
// With -telemetry set, the daemon serves its own ops endpoint: /metrics
// (collection cost, publish latency, redials), /healthz (collector and
// publisher readiness), /debug/vars and /debug/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/codec"
	"gostats/internal/collect"
	"gostats/internal/daemon"
	"gostats/internal/fabric"
	"gostats/internal/hwsim"
	"gostats/internal/node"
	"gostats/internal/spool"
	"gostats/internal/telemetry"
	"gostats/internal/workload"
)

func pickModel(name, owner string) (workload.Model, error) {
	switch name {
	case "wrf":
		return workload.Steady{Label: "wrf", P: workload.WRFProfile(owner)}, nil
	case "storm":
		return workload.PathologicalWRF(owner), nil
	case "idle":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func main() {
	brokersList := flag.String("brokers", "127.0.0.1:5672",
		"comma-separated broker addresses: one standalone broker, or every fabric member")
	host := flag.String("host", "c401-101", "hostname of the simulated node")
	job := flag.String("job", "4001", "job id to label collections with")
	wl := flag.String("workload", "wrf", "workload: wrf, storm, idle")
	interval := flag.Float64("interval", 600, "sampling interval (simulated seconds)")
	speedup := flag.Float64("speedup", 600, "simulated seconds per wall second")
	ticks := flag.Int("ticks", 12, "number of collections before exit (0 = forever)")
	seed := flag.Int64("seed", 1, "node determinism seed")
	spoolDir := flag.String("spool", "", "durable spool directory for undeliverable snapshots (empty = drop)")
	spoolMax := flag.Int64("spool-max-bytes", spool.DefaultMaxBytes,
		"spool size cap; oldest segments are evicted past it (-1 = unlimited)")
	spoolAge := flag.Float64("spool-max-age", 0,
		"evict spooled snapshots older than this many seconds (0 = unlimited)")
	spoolSync := flag.Bool("spool-sync", false, "fsync the spool after every append")
	codecName := flag.String("codec", "text", "wire and spool codec: text (v1) or binary (v2)")
	telemetryAddr := flag.String("telemetry", "", "ops endpoint address (empty = disabled)")
	flag.Parse()

	wireCodec, err := codec.ParseVersion(*codecName)
	if err != nil {
		log.Fatalf("tacc_statsd: %v", err)
	}

	var ops *telemetry.OpsServer
	if *telemetryAddr != "" {
		ops, err = telemetry.Serve(*telemetryAddr, telemetry.Default())
		if err != nil {
			log.Fatalf("tacc_statsd: %v", err)
		}
		defer ops.Close()
		ops.SetHealth("collector", nil)
		ops.SetHealth("publisher", nil)
		log.Printf("tacc_statsd: telemetry at %s/metrics", ops.URL())
	}

	wmodel, err := pickModel(*wl, "u001")
	if err != nil {
		log.Fatalf("tacc_statsd: %v", err)
	}
	hw, err := hwsim.NewNode(*host, chip.StampedeNode(), *seed)
	if err != nil {
		log.Fatalf("tacc_statsd: %v", err)
	}
	hw.Advance(86400, hwsim.IdleDemand())

	// The daemon's publisher backs off and redials across broker
	// restarts. Without a spool a dead broker costs at most the current
	// interval's sample; with one, the sample waits on disk instead.
	col := collect.New(hw)
	brokers := strings.Split(*brokersList, ",")
	for i := range brokers {
		brokers[i] = strings.TrimSpace(brokers[i])
	}
	m, err := fabric.Bootstrap(brokers)
	if err != nil {
		log.Fatalf("tacc_statsd: %v", err)
	}
	view := fabric.NewView(m, broker.DefaultPolicy(), telemetry.Default())
	view.StartProber(2 * time.Second)
	defer view.Close()
	target := fmt.Sprintf("%s (%d partitions, replication %d)",
		strings.Join(m.Brokers, ","), m.Partitions, m.Replication)
	agent, err := node.NewAgent(view, node.AgentConfig{
		Header:   col.Header(),
		Codec:    wireCodec,
		SpoolDir: *spoolDir,
		Spool:    spool.Options{MaxBytes: *spoolMax, MaxAge: *spoolAge, Sync: *spoolSync},
	})
	if err != nil {
		log.Fatalf("tacc_statsd: %v", err)
	}
	if *spoolDir != "" {
		log.Printf("tacc_statsd: spooling undeliverable snapshots under %s", *spoolDir)
	}

	rng := rand.New(rand.NewSource(*seed))
	runtime := float64(*ticks) * *interval
	if *ticks == 0 {
		runtime = 1e12
	}
	var jobs []string
	if *job != "" {
		jobs = []string{*job}
	}

	// The Fig 2 daemon loop: sleep the (compressed) interval, advance
	// the node, collect and publish. Sample times stay on the interval
	// grid however long a publish takes. A failed publish loses that
	// sample — the original deployment's failure envelope — never the
	// daemon; with a spool the sample waits on disk instead.
	da := collect.NewDaemonAgent(col, agent)
	collectLoop := func(ctx context.Context) error {
		for i := 0; *ticks == 0 || i < *ticks; i++ {
			if *speedup > 0 {
				select {
				case <-time.After(time.Duration(*interval / *speedup * float64(time.Second))):
				case <-ctx.Done():
					return nil
				}
			} else if ctx.Err() != nil {
				return nil
			}
			elapsed := float64(i) * *interval
			d := hwsim.IdleDemand()
			if wmodel != nil {
				d = wmodel.Demand(elapsed, runtime, 0, 1, rng)
			}
			hw.Advance(*interval, d)
			now := elapsed + *interval
			if err := da.Tick(now, jobs, ""); err != nil {
				if ops != nil {
					ops.SetHealth("publisher", err)
				}
				log.Printf("tacc_statsd: %v (sample lost — exhausted attempts and no spool accepted it)", err)
				continue
			}
			if ops != nil {
				ops.SetHealth("publisher", nil)
			}
			log.Printf("tacc_statsd: published collection %d at t=%.0f", i+1, now)
		}
		return nil
	}

	log.Printf("tacc_statsd: %s publishing to %s every %.0f simulated seconds", *host, target, *interval)
	sig, err := daemon.Run(collectLoop, func(s os.Signal) {
		log.Printf("tacc_statsd: %v received, finishing the collection in flight", s)
	})
	if cerr := agent.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatalf("tacc_statsd: %v", err)
	}
	if sig != nil {
		log.Printf("tacc_statsd: drained cleanly after %v", sig)
	}
}
