// Command simcluster drives an end-to-end simulated deployment: a
// cluster of nodes under a synthetic job mix, monitored in either
// operation mode, with the resulting raw archive and job table written
// out for jobetl/portal.
//
// Usage:
//
//	simcluster [-mode cron|daemon] [-nodes 16] [-days 1] [-out ./simout]
//	           [-codec text|binary] [-telemetry 127.0.0.1:0]
//	           [-chaos] [-chaos-outage 1230]
//	           [-portal-readers 0] [-portal-requests 2000]
//
// -codec selects the snapshot encoding end to end: the wire messages
// nodes publish, the node spools, and the central archive files. The
// run summary reports actual bytes-on-wire per snapshot alongside what
// the same stream costs in each codec, so the text/binary trade is
// visible without rerunning.
//
// With -portal-readers N > 0, after the ETL builds the job table the
// run serves an in-process portal over it and drives N concurrent
// clients (-portal-requests total) through its pages and the versioned
// /api/v1 query API — the /jobs list with its filtered variants, /dates,
// /energy, paginated job lists, top-N rankings, time-range metric
// queries, gauges — in-process via ServeHTTP, so N can reach tens of
// thousands without socket limits. It reports throughput, p50/p95
// latency and the query cache's hit ratio: the read-path capacity check
// matching the write-path overhead summary below. Each reader carries
// its own X-Client-ID and every tenth shares one, so the per-client
// token-bucket limiter fires visibly; the report adds the 429 count
// and, with -data-dir, the segment index and block-cache counters from
// the cold-read path. With -watch it also probes the run's /api/lag.
//
// Unless disabled with -telemetry off, the run serves its own ops
// endpoint (/metrics, /healthz, /debug/pprof) and, at exit, scrapes it
// to print a fleet overhead summary against the paper's ~0.09 s per
// collection and <0.02% utilization budget (§III).
//
// In daemon mode the run is always a fabric — of one in-process broker
// by default, as the daemons run a lone brokerd — composed exactly as
// the shipped daemons compose it: every simulated node is a node.Agent
// (its own fabric publisher, connection pool and durable on-disk spool)
// and the central side is one node.Ingest, a partition-group listener
// that deduplicates by (host, sequence) before archiving. At exit every
// daemon run audits conservation per host with the internal/simfleet
// ledger — every snapshot a node emitted was archived centrally under
// that node or still sits in its spool, and nothing duplicated past
// dedup — and any loss or misattribution exits non-zero.
//
// -chaos runs a fabric of one broker through a fault-injecting network:
// pooled connections are torn mid-frame on a seeded schedule and a hard
// broker outage of -chaos-outage simulated seconds hits mid-run. With a
// single owner per partition, per-host delivery order must hold too.
//
// -brokers N > 1 runs N in-process brokers sharing a consistent-hash
// partition map; every snapshot is published to all replica owners of
// its host's partition and drained from every owner in parallel.
// -chaos-kill-broker then kills the busiest broker outright at
// -chaos-kill-at simulated seconds: the run must rebalance live
// (breakers trip, the map version bumps, spooled snapshots replay to
// the surviving owners) and still conserve every snapshot.
//
// With -data-dir (daemon mode only), the listener also folds every
// snapshot into a durable time-series store: a RAM hot set over
// crash-safe on-disk segment tiers, closed and sealed at the end of the
// run.
//
// With -chaos-kill-store, no simulation runs at all: the process
// re-executes itself as a storage worker, SIGKILLs it mid-ingest and
// again mid-compaction, reopens each store it left behind, and asserts
// the durability contract — every point acknowledged as synced
// survives, recovery is an exact per-series prefix of the emitted
// stream, and an interrupted compaction neither loses nor
// double-counts a point. Any violation exits non-zero.
//
// With -watch (daemon mode only), every snapshot carries provenance
// stamps from collect through store-ingest (per-stage latency
// histograms and per-host freshness land on /metrics), and an online
// watcher observes the live assembler, raising job flags mid-run. After
// the post-hoc ETL the run reports how many jobs the live assembler
// finalized (any job finalized twice exits non-zero), audits the online
// flags against the batch sweep and reports parity plus the median
// detection latency; parity below -watch-min-parity exits non-zero.
// Combined with -chaos, the run also asserts that per-host freshness
// gauges recovered once the injected outage ended and the spools
// drained.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gostats/internal/acct"
	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/codec"
	"gostats/internal/collect"
	"gostats/internal/etl"
	"gostats/internal/fabric"
	"gostats/internal/faultnet"
	"gostats/internal/flagging"
	"gostats/internal/hwsim"
	"gostats/internal/lustresim"
	"gostats/internal/model"
	"gostats/internal/node"
	"gostats/internal/portal"
	"gostats/internal/rawfile"
	"gostats/internal/realtime"
	"gostats/internal/reldb"
	"gostats/internal/schema"
	"gostats/internal/segstore"
	"gostats/internal/simfleet"
	"gostats/internal/telemetry"
	"gostats/internal/trace"
	"gostats/internal/tsdb"
	"gostats/internal/watch"
	"gostats/internal/workload"
	"gostats/internal/xalt"
)

// collectInterval is the simulated collection period in seconds — the
// paper's 10-minute sampling cadence.
const collectInterval = 600

func main() {
	mode := flag.String("mode", "daemon", "operation mode: cron or daemon")
	nodes := flag.Int("nodes", 16, "cluster size")
	days := flag.Float64("days", 1, "simulated days")
	jobs := flag.Int("jobs", 0, "jobs to submit (default: enough to fill the span)")
	out := flag.String("out", "simout", "output directory")
	seed := flag.Int64("seed", 1, "simulation seed")
	chaos := flag.Bool("chaos", false,
		"daemon mode only: inject broker faults and assert snapshot conservation")
	chaosOutage := flag.Float64("chaos-outage", 1230,
		"length of the injected broker outage (simulated seconds)")
	fabricBrokers := flag.Int("brokers", 1,
		"in-process brokers in the daemon-mode fabric (1 = a fabric of one)")
	fabricPartitions := flag.Int("partitions", fabric.DefaultPartitions,
		"fabric partition count")
	fabricReplication := flag.Int("replication", fabric.DefaultReplication,
		"fabric publish replication factor")
	chaosKillBroker := flag.Bool("chaos-kill-broker", false,
		"fabric mode: kill the busiest broker mid-run and assert conservation and rebalance")
	chaosKillAt := flag.Float64("chaos-kill-at", 900,
		"simulated time the -chaos-kill-broker kill fires")
	chaosKillStore := flag.Bool("chaos-kill-store", false,
		"run the storage restart audit instead of a simulation: SIGKILL the segment store mid-ingest and mid-compaction, reopen, and assert conservation")
	dataDir := flag.String("data-dir", "",
		"daemon mode: durable time-series store directory behind the listener (empty = RAM only)")
	codecName := flag.String("codec", "text",
		"snapshot codec for wire, spools, and archive: text (v1) or binary (v2)")
	telemetryAddr := flag.String("telemetry", "127.0.0.1:0",
		`ops endpoint address ("off" to disable)`)
	portalRequests := flag.Int("portal-requests", 2000,
		"total portal requests across all -portal-readers readers")
	portalReaders := flag.Int("portal-readers", 0,
		"concurrent portal readers to drive after ETL through the portal pages and the versioned /api/v1 query API (0 = off)")
	watchMode := flag.Bool("watch", false,
		"daemon mode only: trace provenance end to end and run the online job watcher on a live assembler, auditing that it finalizes each job exactly once and that its flags match the post-hoc ETL")
	watchMinParity := flag.Float64("watch-min-parity", 0.95,
		"minimum online/post-hoc flag parity (fraction of jobs with identical flag sets) before a -watch run fails")
	flag.Parse()
	if *storeWorkerMode != "" {
		runStoreWorker(*storeWorkerMode, *storeWorkerDir, *storeWorkerPoints)
		return
	}
	if *chaosKillStore {
		runKillStoreAudit(*out)
		return
	}
	if *mode != "daemon" && (*chaos || *watchMode || *fabricBrokers > 1) {
		log.Fatalf("simcluster: -chaos, -watch and -brokers > 1 require -mode daemon")
	}
	if *chaos && *fabricBrokers > 1 {
		log.Fatalf("simcluster: -chaos is the fabric-of-one fault schedule; use -chaos-kill-broker with -brokers > 1")
	}
	if *chaosKillBroker && *fabricBrokers < 2 {
		log.Fatalf("simcluster: -chaos-kill-broker needs -brokers >= 2 so a survivor owns every partition")
	}
	runCodec, err := codec.ParseVersion(*codecName)
	if err != nil {
		log.Fatalf("simcluster: %v", err)
	}

	var ops *telemetry.OpsServer
	if *telemetryAddr != "off" && *telemetryAddr != "" {
		var err error
		ops, err = telemetry.Serve(*telemetryAddr, telemetry.Default())
		if err != nil {
			log.Fatalf("simcluster: %v", err)
		}
		defer ops.Close()
		ops.SetHealth("engine", nil)
		fmt.Printf("simcluster: telemetry at %s/metrics\n", ops.URL())
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	store, err := rawfile.NewStore(filepath.Join(*out, "central"))
	if err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	store.SetCodec(runCodec)
	span := *days * 86400
	nJobs := *jobs
	if nJobs == 0 {
		nJobs = *nodes * int(span/7200)
	}
	specs := workload.GenerateFleet(workload.FleetOpts{Seed: *seed, Jobs: nJobs, SpanSec: span * 0.8})
	// Keep jobs small enough for the cluster and short enough to finish.
	for i := range specs {
		if specs[i].Nodes > *nodes {
			specs[i].Nodes = *nodes
		}
		if specs[i].Runtime > span/4 {
			specs[i].Runtime = span / 4
		}
		specs[i].Queue = "normal"
	}

	eng, err := cluster.NewEngine(*nodes, chip.StampedeNode(), collectInterval, *seed)
	if err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	// All nodes mount one shared Lustre filesystem: concurrent jobs
	// genuinely interfere through the MDS and OSS capacity models.
	eng.FS = lustresim.New(lustresim.DefaultConfig())

	// The scheduler writes its accounting log as jobs complete; the ETL
	// joins against it, exactly as in the paper's deployment.
	acctPath := filepath.Join(*out, "accounting.log")
	acctFile, err := os.Create(acctPath)
	if err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	acctW := acct.NewWriter(acctFile)
	// The XALT shim captures each job's environment at launch; here the
	// capture happens with the accounting write.
	xdb := xalt.NewDB()
	eng.OnJobEnd = func(spec workload.Spec, start, end float64, hosts []string) error {
		vectorized := false
		if st, ok := spec.Model.(workload.Steady); ok && st.P.VecFrac > 0.3 {
			vectorized = true
		}
		if err := xdb.Put(xalt.Capture(spec.JobID, spec.Exe, spec.User, vectorized, *seed)); err != nil {
			return err
		}
		return acctW.Append(acct.FromSpec(spec, start, end, hosts))
	}

	var wires *wireLedger
	var rec *trace.Recorder
	var watcher *watch.Watcher
	var liveAsm *etl.Assembler
	var watchEvents *os.File
	var fab *simfleet.Fabric
	var led *simfleet.Ledger
	var fnet *faultnet.Network // nil without -chaos
	var ing *node.Ingest
	var victimAddr string
	switch *mode {
	case "cron":
		spoolOf := func(host string) string { return filepath.Join(*out, "spool", host) }
		eng.NewSink = func(n *hwsim.Node, col *collect.Collector) (cluster.Sink, error) {
			logger, err := rawfile.NewNodeLogger(spoolOf(n.Host()), col.Header())
			if err != nil {
				return nil, err
			}
			logger.SetCodec(runCodec)
			return cronSink{logger}, nil
		}
		eng.SyncHook = func(host string, now float64) error {
			return store.SyncFrom(host, spoolOf(host))
		}
	case "daemon":
		reg := chip.StampedeNode().Registry()
		if *watchMode {
			// Stage histograms and freshness gauges land in the default
			// registry so the ops endpoint's /metrics carries them.
			rec = trace.NewRecorder(telemetry.Default())
			watchEvents, err = os.Create(filepath.Join(*out, "watch_events.jsonl"))
			if err != nil {
				log.Fatalf("simcluster: %v", err)
			}
			// The live assembler mirrors the nightly ETL over the delivered
			// stream and joins the submitted specs as scheduler meta; its
			// rows go only to the watcher (the post-hoc ETL stays
			// authoritative). Broker delivery is per-host FIFO, but the
			// skew across partition consumers has no bound: holding
			// finalization back one collection interval folds in only
			// the tails that lag less than that, and later arrivals are
			// counted as late drops.
			liveMeta := make(map[string]etl.Meta, len(specs))
			for _, sp := range specs {
				liveMeta[sp.JobID] = etl.MetaFromSpec(sp)
			}
			liveAsm = &etl.Assembler{Registry: reg, Meta: liveMeta,
				EndGrace: etl.DefaultEndGrace, Lateness: collectInterval, Trace: rec}
			watcher = &watch.Watcher{
				Thresholds: flagging.DefaultThresholds(),
				EventLog:   watchEvents,
				Notify: func(e watch.Event) {
					if e.Kind == "flag_raised" {
						fmt.Printf("WATCH flag %s raised on job %s at t=%.0f\n",
							e.Flag, e.JobID, e.StreamTime)
					}
				},
			}
			watcher.Attach(liveAsm)
		}
		// A fabric of one broker unless -brokers says otherwise — the
		// daemons likewise run a lone brokerd as a fabric of one.
		var dialer func(string) (net.Conn, error)
		if *chaos {
			faults := faultnet.Faults{Seed: *seed, ResetAfterBytes: 32 << 10}
			fnet = faultnet.New(faults)
			dialer = fnet.Dialer(func(a string) (net.Conn, error) {
				return net.DialTimeout("tcp", a, 2*time.Second)
			})
			// The outage window is driven by simulated time so it scales
			// with -days: it opens before the first collection round
			// reaching t=900 and covers -chaos-outage sim-seconds.
			start, end := 900.0, 900+*chaosOutage
			fmt.Printf("simcluster chaos: faults %s, outage t=[%.0f,%.0f)\n", faults, start, end)
			eng.OnTick = func(now float64) error {
				next := now + collectInterval
				if next >= start && next < end && !fnet.OutageActive() {
					fnet.StartOutage()
					fmt.Printf("simcluster chaos: broker outage begins at t=%.0f\n", next)
				} else if next >= end && fnet.OutageActive() {
					fnet.StopOutage()
					fmt.Printf("simcluster chaos: broker outage ends at t=%.0f\n", next)
				}
				return nil
			}
		}
		fab, err = simfleet.NewFabric(*fabricBrokers, *fabricPartitions, *fabricReplication,
			chaosPolicy(), telemetry.Default(), dialer)
		if err != nil {
			log.Fatalf("simcluster: %v", err)
		}
		if rec != nil {
			rec.PartitionOf = fab.Map.PartitionOf
		}
		led = simfleet.NewLedger(fab)
		fmt.Printf("simcluster fabric: %d brokers, %d partitions, replication %d\n",
			*fabricBrokers, *fabricPartitions, *fabricReplication)
		// One agent — publisher, connection pool and durable spool — per
		// node, exactly as each node daemon runs.
		eng.NewSink = func(n *hwsim.Node, col *collect.Collector) (cluster.Sink, error) {
			col.Trace = rec
			return led.NewPublisher(node.AgentConfig{
				Header:   col.Header(),
				Codec:    runCodec,
				SpoolDir: filepath.Join(*out, "nodespool", n.Host()),
				Trace:    rec,
			})
		}
		if *chaosKillBroker {
			victim := fab.Busiest()
			victimAddr = fab.Addrs[victim]
			fmt.Printf("simcluster chaos: will kill broker %s (primary for %d partitions) at t=%.0f\n",
				victimAddr, fab.Map.PrimaryCount()[victimAddr], *chaosKillAt)
			killed := false
			eng.OnTick = func(now float64) error {
				if !killed && now >= *chaosKillAt {
					killed = true
					fmt.Printf("simcluster chaos: killing broker %s at t=%.0f\n", victimAddr, now)
					return fab.Kill(victim)
				}
				return nil
			}
		}
		wires = &wireLedger{reg: reg}
		ing, err = node.NewIngest(fab.View, node.IngestConfig{
			StoreDir: store.Root(),
			Codec:    runCodec,
			Fleet:    chip.StampedeNode(),
			DataDir:  *dataDir,
			// Short simulated runs never fill the 1 MiB default, which
			// would leave every point in unsealed active segments; a
			// smaller segment keeps the sealed, indexed read path in play.
			Segments:  segstore.Options{SegmentBytes: 256 << 10},
			HotWindow: 2 * 3600,
			Notify:    func(a realtime.Alert) { fmt.Printf("ALERT %s\n", a) },
			Trace:     rec,
			OnSnapshot: func(s model.Snapshot) {
				wires.sample(s)
				led.Archive(s)
				if liveAsm != nil {
					liveAsm.Feed(s)
				}
			},
		})
		if err != nil {
			log.Fatalf("simcluster: %v", err)
		}
		if *dataDir != "" {
			fmt.Printf("simcluster: durable time-series store at %s\n", *dataDir)
		}
		go func() {
			if err := <-ing.Err(); err != nil {
				log.Fatalf("simcluster: %v", err)
			}
		}()
	default:
		log.Fatalf("simcluster: unknown mode %q", *mode)
	}

	if err := eng.Start(); err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	eng.Submit(specs...)
	runStart := time.Now()
	if err := eng.Run(span); err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	if led != nil {
		// Let the node drainers replay what the outage or kill stranded,
		// and the group archive every emitted snapshot, before eng.Close
		// stops the publishers; anything still spooled after the timeout
		// is accounted for in the conservation report.
		if err := led.WaitCaughtUp(ing, 120*time.Second); err != nil {
			fmt.Printf("simcluster fabric: %v\n", err)
		}
	}
	wall := time.Since(runStart).Seconds()
	if err := eng.Close(); err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	if *mode == "cron" {
		// Final morning sync.
		for _, host := range eng.Nodes() {
			if err := store.SyncFrom(host, filepath.Join(*out, "spool", host)); err != nil {
				log.Fatalf("simcluster: %v", err)
			}
		}
	} else {
		// Stop consuming and flush the archive; the segment store stays
		// open for the query load below.
		if err := ing.Stop(); err != nil {
			log.Fatalf("simcluster: ingest stop: %v", err)
		}
		wires.print()
		gst := ing.Stats()
		fmt.Printf("simcluster fabric: %d snapshots archived through %d brokers in %.2fs wall = %.0f snap/s\n",
			gst.Handled, len(fab.Servers), wall, float64(gst.Handled)/wall)
		err := reportFabric(led, fnet, gst, fab.View.Version(), victimAddr, runCodec)
		fab.Close()
		if err != nil {
			log.Fatalf("simcluster: %v", err)
		}
		if rec != nil && *chaos {
			// The outage stalled delivery; once the spools drained,
			// every host's freshness gauge must have recovered.
			if err := assertFreshnessRecovered(rec, eng.Nodes(), 120); err != nil {
				log.Fatalf("simcluster: %v", err)
			}
		}
	}

	if err := acctFile.Close(); err != nil {
		log.Fatalf("simcluster: %v", err)
	}

	// ETL into the job table, joining the accounting log.
	recs, err := acct.LoadFile(acctPath)
	if err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	meta := map[string]etl.Meta{}
	for _, r := range recs {
		meta[r.JobID] = etl.MetaFromAcct(r)
	}
	// A fresh journal replaces whatever table an earlier run left.
	dbPath := filepath.Join(*out, "jobs.gsj")
	if err := os.Remove(dbPath); err != nil && !os.IsNotExist(err) {
		log.Fatalf("simcluster: %v", err)
	}
	db := reldb.New()
	jnl, err := reldb.OpenJournal(dbPath, db, false)
	if err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	node := chip.StampedeNode()
	ids, err := etl.IngestStoreJournaled(store, node.Registry(), node.Desc.VecWidth, meta, db, jnl)
	if err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	if err := jnl.Close(); err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	xaltPath := filepath.Join(*out, "xalt.jsonl")
	if err := xdb.Save(xaltPath); err != nil {
		log.Fatalf("simcluster: %v", err)
	}
	fmt.Printf("simcluster: mode=%s nodes=%d days=%g: started %d, finished %d jobs; %d ingested -> %s\n",
		*mode, *nodes, *days, eng.Started, eng.Finished, len(ids), dbPath)
	fmt.Printf("simcluster: browse with: portal -db %s -store %s\n", dbPath, filepath.Join(*out, "central"))
	if watcher != nil {
		liveAsm.Flush()
		if err := watchEvents.Close(); err != nil {
			log.Fatalf("simcluster: %v", err)
		}
		if err := auditExactlyOnce(liveAsm); err != nil {
			log.Fatalf("simcluster: %v", err)
		}
		if err := auditWatch(watcher, db, rec, *watchMinParity); err != nil {
			log.Fatalf("simcluster: %v", err)
		}
	}
	// The /api/v1 load runs while the segment store is still open so
	// cold time-range queries exercise the indexed read path.
	if *portalReaders > 0 {
		var tdb *tsdb.DB
		if ing != nil {
			tdb = ing.TSDB
		}
		if err := runAPILoad(db, tdb, rec, *portalReaders, *portalRequests, span); err != nil {
			log.Fatalf("simcluster: api load: %v", err)
		}
	}
	if ing != nil {
		if err := ing.Close(); err != nil {
			log.Fatalf("simcluster: ingest close: %v", err)
		}
		if ing.Segments != nil {
			st := ing.Segments.Stats()
			fmt.Printf("simcluster store: sealed durable tsdb: %d raw segments (%d B), %d points archived\n",
				st.TierSegments[0], st.TierBytes[0], st.TierPoints[0])
		}
	}
	printOverheadSummary(ops, *nodes, span)
}

// auditExactlyOnce prints what the live assembler finalized and fails
// the run if any job was finalized more than once — a late sample or
// mark must be dropped, never reopen a finalized job.
func auditExactlyOnce(a *etl.Assembler) error {
	ids := a.IngestedIDs() // sorted, one entry per finalization
	var twice []string
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			twice = append(twice, ids[i])
		}
	}
	fmt.Printf("simcluster watch: live assembler finalized %d rows for %d distinct jobs; %d late drops, %d jobs skipped\n",
		len(ids), len(ids)-len(twice), a.LateDrops(), a.Skipped())
	if len(twice) > 0 {
		return fmt.Errorf("watch audit: jobs finalized more than once: %v", slices.Compact(twice))
	}
	return nil
}

// auditWatch compares the online watcher's final flag sets against the
// post-hoc batch sweep over the authoritative job table — the detection
// parity audit from the run's -watch mode. It prints parity, detection
// latency (stream seconds from job start to first raise), and the
// provenance recorder's stage/freshness view, and fails the run when
// parity drops below minParity.
func auditWatch(w *watch.Watcher, db *reldb.DB, rec *trace.Recorder, minParity float64) error {
	rep, err := flagging.Sweep(db, flagging.Default(flagging.DefaultThresholds()))
	if err != nil {
		return fmt.Errorf("watch audit: %w", err)
	}
	results := w.Results()

	// Parity over the union of job ids: a job matches when the online
	// and post-hoc flag sets are identical (both empty included).
	ids := map[string]bool{}
	for _, r := range db.All() {
		ids[r.JobID] = true
	}
	for id := range results {
		ids[id] = true
	}
	matches, total := 0, len(ids)
	var mismatched []string
	for id := range ids {
		want := append([]string(nil), rep.ByJob[id]...)
		got := append([]string(nil), results[id].Flags...)
		sort.Strings(want)
		sort.Strings(got)
		if len(want) == len(got) && func() bool {
			for i := range want {
				if want[i] != got[i] {
					return false
				}
			}
			return true
		}() {
			matches++
		} else {
			mismatched = append(mismatched,
				fmt.Sprintf("%s: online %v vs post-hoc %v", id, got, want))
		}
	}
	parity := 1.0
	if total > 0 {
		parity = float64(matches) / float64(total)
	}

	// Detection latency: stream seconds from job start to each flag's
	// first mid-run raise; raises at finalize count too, but the preEnd
	// share shows how many fired while the job was still running.
	var latencies []float64
	preEnd := 0
	for _, res := range results {
		for _, at := range res.Raised {
			latencies = append(latencies, at-res.Start)
			if at < res.End {
				preEnd++
			}
		}
	}
	sort.Float64s(latencies)
	median := 0.0
	if n := len(latencies); n > 0 {
		median = latencies[n/2]
	}

	fmt.Printf("simcluster watch: flag parity %d/%d jobs (%.1f%%) online vs post-hoc ETL; %d jobs flagged post-hoc\n",
		matches, total, 100*parity, len(rep.ByJob))
	if len(latencies) > 0 {
		fmt.Printf("simcluster watch: %d flag raises, %d before job end; median detection latency %.0f s after job start (stream time)\n",
			len(latencies), preEnd, median)
	} else {
		fmt.Println("simcluster watch: no flags raised by either path")
	}
	sort.Strings(mismatched)
	for i, m := range mismatched {
		if i == 5 {
			fmt.Printf("simcluster watch: ... %d more mismatches\n", len(mismatched)-5)
			break
		}
		fmt.Printf("simcluster watch: mismatch %s\n", m)
	}
	if rec != nil {
		rec.RefreshFreshness()
		sum := rec.Snapshot()
		for _, st := range sum.Stages {
			fmt.Printf("simcluster watch: stage %-14s %6d hops, mean %.1f ms, p95 %.1f ms\n",
				st.Stage, st.Count, 1e3*st.MeanSeconds, 1e3*st.P95Seconds)
		}
		maxFresh := 0.0
		for _, h := range sum.Hosts {
			if h.FreshnessSeconds > maxFresh {
				maxFresh = h.FreshnessSeconds
			}
		}
		fmt.Printf("simcluster watch: freshness tracked on %d hosts, max %.2f s behind wall clock\n",
			len(sum.Hosts), maxFresh)
	}
	if parity < minParity {
		return fmt.Errorf("watch audit: parity %.1f%% below required %.1f%%", 100*parity, 100*minParity)
	}
	return nil
}

// assertFreshnessRecovered verifies every simulated host has a
// freshness entry no older than boundSec wall seconds — the chaos-mode
// proof that the injected outage's staleness was transient and spool
// replay brought every host back to queryable-fresh.
func assertFreshnessRecovered(rec *trace.Recorder, hosts []string, boundSec float64) error {
	rec.RefreshFreshness()
	sum := rec.Snapshot()
	fresh := map[string]float64{}
	for _, h := range sum.Hosts {
		fresh[h.Host] = h.FreshnessSeconds
	}
	maxFresh := 0.0
	for _, host := range hosts {
		f, ok := fresh[host]
		if !ok {
			return fmt.Errorf("chaos: host %s has no freshness gauge after drain", host)
		}
		if f > boundSec {
			return fmt.Errorf("chaos: host %s freshness %.1f s exceeds %.0f s after drain — gauge did not recover", host, f, boundSec)
		}
		if f > maxFresh {
			maxFresh = f
		}
	}
	fmt.Printf("simcluster chaos: freshness recovered on all %d hosts (max %.2f s)\n",
		len(hosts), maxFresh)
	return nil
}

// apiJobMix is the job-table side of the -portal-readers workload: the
// job list pages with histograms and their filtered variants, the
// aggregate pages, the JSON list, and /api/v1's paginated lists,
// ordered pages and bounded-heap rankings — the same per-route mix the
// portal's query cache is keyed on.
var apiJobMix = [...]string{
	"/jobs",
	"/jobs?status=COMPLETED",
	"/jobs?field1=runtime&op1=gte&val1=600",
	"/jobs?field1=nodes&op1=gte&val1=2&status=COMPLETED",
	"/api/jobs?field1=runtime&op1=gte&val1=600",
	"/dates",
	"/energy",
	"/api/v1/jobs?limit=50",
	"/api/v1/jobs?order_by=-runtime&limit=20",
	"/api/v1/jobs?order_by=starttime&offset=20&limit=20",
	"/api/v1/jobs?field1=nodes&op1=gte&val1=2&limit=25",
	"/api/v1/top/jobs?field=runtime&n=10",
	"/api/v1/top/jobs?field=nodehours&n=5&order=bottom",
}

// apiMetricMix extends the workload with the tsdb-backed routes when a
// durable store is attached; the full-span time ranges reach behind the
// hot boundary and exercise the indexed cold-read path.
func apiMetricMix(span float64) []string {
	return []string{
		fmt.Sprintf("/api/v1/metrics?group_by=host&agg=avg&step=3600&start=0&end=%g", span),
		fmt.Sprintf("/api/v1/metrics?group_by=host,devtype&agg=sum&step=7200&start=0&end=%g", span/2),
		fmt.Sprintf("/api/v1/top/hosts?n=5&agg=max&start=0&end=%g", span),
		"/api/v1/gauges?devtype=cpu",
	}
}

// nullRecorder is the response sink for direct in-process API requests:
// status plus byte count, no buffering — ten thousand concurrent
// readers must not each hold a response body.
type nullRecorder struct {
	header http.Header
	status int
	bytes  int
}

func (w *nullRecorder) Header() http.Header { return w.header }
func (w *nullRecorder) WriteHeader(c int)   { w.status = c }
func (w *nullRecorder) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// runAPILoad drives `readers` concurrent clients through `total`
// requests of the mixed portal and /api/v1 workload against an
// in-process portal over the freshly built job table and the run's live
// tsdb, then, with a trace recorder (a -watch run), probes the portal's
// /api/lag summary of the run once. Requests go
// straight through ServeHTTP — no sockets — so reader concurrency is
// bounded by goroutines, not file descriptors. Each reader carries its
// own X-Client-ID; every tenth reader shares one id so the token-bucket
// limiter demonstrably fires under the pile-up. 429s are counted, never
// fatal, and (because the limiter wraps outside the cache) never
// populate or evict cache entries.
func runAPILoad(db *reldb.DB, tdb *tsdb.DB, rec *trace.Recorder, readers, total int, span float64) error {
	if total <= 0 {
		return fmt.Errorf("-portal-requests must be positive, got %d", total)
	}
	reg := telemetry.NewRegistry()
	ps := portal.NewServer(db, chip.StampedeNode().Registry(), nil)
	ps.Metrics = reg
	ps.TSDB = tdb
	ps.Lag = rec
	ps.Limiter = portal.NewLimiter(200, 50)
	mix := append([]string(nil), apiJobMix[:]...)
	if tdb != nil {
		mix = append(mix, apiMetricMix(span)...)
	}

	var limited atomic.Int64
	var firstErr atomic.Value
	var mu sync.Mutex
	var durs []time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		id := fmt.Sprintf("reader-%d", r)
		if r%10 == 0 {
			id = "shared-hot-client"
		}
		// Strided fixed assignment — each reader is one client issuing
		// its own request stream, so a fast goroutine cannot burn
		// another client's token budget.
		go func(r int) {
			defer wg.Done()
			var local []time.Duration
			for i := r; i < total; i += readers {
				path := mix[i%len(mix)]
				req := httptest.NewRequest(http.MethodGet, path, nil)
				req.Header.Set("X-Client-ID", id)
				w := &nullRecorder{header: make(http.Header), status: http.StatusOK}
				t0 := time.Now()
				ps.ServeHTTP(w, req)
				switch w.status {
				case http.StatusOK:
					local = append(local, time.Since(t0))
				case http.StatusTooManyRequests:
					limited.Add(1)
				default:
					firstErr.CompareAndSwap(nil, fmt.Errorf("%s: status %d", path, w.status))
					return
				}
			}
			mu.Lock()
			durs = append(durs, local...)
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	if len(durs) == 0 {
		return fmt.Errorf("every request was rate limited")
	}

	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(p float64) time.Duration { return durs[int(p*float64(len(durs)-1))] }
	vals := telemetry.ParseExposition(reg.Exposition())
	var hits, misses float64
	for name, v := range vals {
		if strings.HasPrefix(name, "gostats_portal_cache_hits_total") {
			hits += v
		} else if strings.HasPrefix(name, "gostats_portal_cache_misses_total") {
			misses += v
		}
	}
	fmt.Printf("simcluster api-load: %d requests (%d served, %d rate-limited), %d readers in %.2fs = %.0f req/s\n",
		total, len(durs), limited.Load(), readers, elapsed.Seconds(), float64(total)/elapsed.Seconds())
	fmt.Printf("simcluster api-load: latency p50=%s p95=%s max=%s\n",
		pct(0.50), pct(0.95), durs[len(durs)-1])
	if hits+misses > 0 {
		fmt.Printf("simcluster api-load: cache hits=%.0f misses=%.0f (%.1f%% hit ratio)\n",
			hits, misses, 100*hits/(hits+misses))
	}
	if rl := vals["gostats_portal_ratelimited_total"]; rl != float64(limited.Load()) {
		return fmt.Errorf("limiter counter %v disagrees with observed 429s %d", rl, limited.Load())
	}
	// The cold-read path's own telemetry (index hits vs full scans,
	// block-cache effectiveness) lands in the default registry. Far
	// under the file cache's budget, each sealed segment the store has
	// held is opened at most once: a cache-warm query makes no open.
	if tdb != nil {
		sv := telemetry.ParseExposition(telemetry.Default().Exposition())
		st := tdb.Cold().Stats()
		held := st.Seals + st.Compactions + st.Loaded
		fmt.Printf("simcluster api-load: segment index hits=%.0f fullscans=%.0f; block cache hits=%.0f misses=%.0f evictions=%.0f; file opens=%d of %d sealed segments\n",
			sv["gostats_segstore_index_hits_total"], sv["gostats_segstore_index_fullscans_total"],
			sv["gostats_segstore_blockcache_hits_total"], sv["gostats_segstore_blockcache_misses_total"],
			sv["gostats_segstore_blockcache_evictions_total"], st.FileOpens, held)
		if st.FileOpens > held {
			return fmt.Errorf("%d sealed-segment opens for %d sealed segments held", st.FileOpens, held)
		}
	}
	if rec == nil {
		return nil
	}
	req := httptest.NewRequest(http.MethodGet, "/api/lag", nil)
	req.Header.Set("X-Client-ID", "lag-probe")
	w := httptest.NewRecorder()
	ps.ServeHTTP(w, req)
	var sum trace.LagSummary
	if err := json.NewDecoder(w.Body).Decode(&sum); err != nil || w.Code != http.StatusOK {
		return fmt.Errorf("/api/lag: status %d: %v", w.Code, err)
	}
	fmt.Printf("simcluster api-load: /api/lag serves %d pipeline stages, %d hosts, %d partitions\n",
		len(sum.Stages), len(sum.Hosts), len(sum.Partitions))
	if len(sum.Partitions) > 0 {
		worst := sum.Partitions[0]
		for _, p := range sum.Partitions {
			if p.MaxFreshnessSeconds > worst.MaxFreshnessSeconds {
				worst = p
			}
		}
		fmt.Printf("simcluster api-load: stalest partition p%03d: %d hosts, max freshness %.2f s\n",
			worst.Partition, worst.Hosts, worst.MaxFreshnessSeconds)
	}
	return nil
}

// printOverheadSummary reports the fleet's self-measured monitoring cost
// against the paper's budget (§III: ~0.09 s of one core per collection,
// <0.02% overhead at 10-minute sampling). With an ops server running it
// scrapes its own /metrics endpoint — the same view an external
// Prometheus would get — otherwise it reads the in-process registry.
func printOverheadSummary(ops *telemetry.OpsServer, nodes int, spanSec float64) {
	var text string
	if ops != nil {
		resp, err := http.Get(ops.URL() + "/metrics")
		if err != nil {
			log.Printf("simcluster: telemetry scrape: %v", err)
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			log.Printf("simcluster: telemetry scrape: %v", err)
			return
		}
		text = string(b)
	} else {
		text = telemetry.Default().Exposition()
	}
	vals := telemetry.ParseExposition(text)
	count := vals["gostats_collect_seconds_count"]
	sum := vals["gostats_collect_seconds_sum"]
	if count == 0 {
		fmt.Println("simcluster overhead: no collections recorded")
		return
	}
	const (
		budgetPerSweep = 0.09   // paper §III: seconds of one core per collection
		budgetFraction = 0.0002 // paper §III: <0.02% of one core
	)
	mean := sum / count
	verdict := func(ok bool) string {
		if ok {
			return "within budget"
		}
		return "OVER BUDGET"
	}
	fmt.Printf("simcluster overhead: %.0f collections, mean %.4f s each (paper budget %.2f s) — %s\n",
		count, mean, budgetPerSweep, verdict(mean <= budgetPerSweep))
	frac := sum / (float64(nodes) * spanSec)
	fmt.Printf("simcluster overhead: %.1f collector-seconds over %.0f node-seconds = %.4f%% of one core (paper: <%.2f%%) — %s\n",
		sum, float64(nodes)*spanSec, frac*100, budgetFraction*100, verdict(frac <= budgetFraction))
}

// wireLedger accounts, from a bounded sample of the decoded stream,
// what the same snapshots cost in each codec — so one run shows the
// text/binary trade beside the actual bytes on wire the conservation
// report prints from the publishers.
type wireLedger struct {
	reg *schema.Registry

	mu        sync.Mutex
	sampled   int64
	textBytes int64
	binBytes  int64
}

// wireSampleMax bounds the re-encoded comparison sample; beyond a few
// hundred snapshots the per-codec averages are stable.
const wireSampleMax = 256

// sample re-encodes one decoded snapshot in both codecs for the
// comparative per-snapshot averages.
func (l *wireLedger) sample(s model.Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sampled >= wireSampleMax {
		return
	}
	tb, terr := codec.EncodeWire(s, l.reg, codec.V1Text)
	bb, berr := codec.EncodeWire(s, l.reg, codec.V2Binary)
	if terr != nil || berr != nil {
		return
	}
	l.textBytes += int64(len(tb))
	l.binBytes += int64(len(bb))
	l.sampled++
}

// print emits the wire summary line.
func (l *wireLedger) print() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sampled > 0 {
		t := float64(l.textBytes) / float64(l.sampled)
		b := float64(l.binBytes) / float64(l.sampled)
		fmt.Printf("simcluster wire: per-snapshot cost by codec (sample of %d): text=%.0f B, binary=%.0f B (%.1fx smaller)\n",
			l.sampled, t, b, t/b)
	}
}

type cronSink struct{ logger *rawfile.NodeLogger }

func (s cronSink) Handle(snap model.Snapshot) error { return s.logger.Log(snap) }
func (s cronSink) Close() error                     { return s.logger.Close() }

// chaosPolicy is the transport policy for fabric runs: production
// shape, compressed delays, so a simulated multi-round outage resolves
// in wall milliseconds.
func chaosPolicy() broker.Policy {
	pol := broker.DefaultPolicy()
	pol.BackoffMin, pol.BackoffMax = 5*time.Millisecond, 250*time.Millisecond
	pol.BreakerWindow, pol.BreakerMaxWindow = 100*time.Millisecond, 2*time.Second
	return pol
}

// reportFabric prints the run's conservation ledger, publisher and
// group counters, and fault tally, and returns the ledger's verdict; after
// a broker kill it also requires a rebalanced map. The engine must be
// closed (every publisher's drainer stopped) and the ingest stopped.
func reportFabric(led *simfleet.Ledger, fnet *faultnet.Network, gst fabric.GroupStats, mapVersion uint64, victim string, wire codec.Version) error {
	c, err := led.Report()
	st := led.PublisherStats()
	fmt.Printf("simcluster fabric: %s\n", c)
	delivered := st.Published + st.Replayed
	perSnap := 0.0
	if delivered > 0 {
		perSnap = float64(st.BytesOnWire) / float64(delivered)
	}
	fmt.Printf("simcluster fabric: publisher published=%d redials=%d spooled=%d replayed=%d rerouted=%d dropped=%d bytes_on_wire=%d (%.0f B/snap, codec %s)\n",
		st.Published, st.Redials, st.Spooled, st.Replayed, st.Rerouted, st.Dropped, st.BytesOnWire, perSnap, wire)
	fmt.Printf("simcluster fabric: group delivered=%d handled=%d deduped=%d consumer_restarts=%d\n",
		gst.Delivered, gst.Handled, gst.Deduped, gst.Restarts)
	if fnet != nil {
		fmt.Printf("simcluster chaos: faults %+v\n", fnet.Stats())
	}
	if err != nil {
		return err
	}
	if victim != "" {
		if mapVersion < 2 {
			return fmt.Errorf("fabric: broker %s was killed but the partition map never rebalanced (still v%d)", victim, mapVersion)
		}
		fmt.Printf("simcluster fabric: rebalanced off killed broker %s (map now v%d)\n", victim, mapVersion)
	}
	if c.OrderInversions > 0 {
		fmt.Printf("simcluster fabric: %d per-host order inversions tolerated across replicated delivery (e.g. %s)\n",
			c.OrderInversions, c.FirstInversion)
	}
	fmt.Printf("simcluster fabric: conservation holds — every host's snapshots archived under it or still in its spool\n")
	return nil
}
