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
//	           [-portal-load 0] [-portal-requests 2000]
//
// -codec selects the snapshot encoding end to end: the wire messages
// nodes publish, the node spools, and the central archive files. The
// run summary reports actual bytes-on-wire per snapshot alongside what
// the same stream costs in each codec, so the text/binary trade is
// visible without rerunning.
//
// With -portal-load N > 0, after the ETL builds the job table the run
// serves an in-process portal over it and drives N concurrent readers
// through a mixed /jobs query workload (-portal-requests total),
// reporting throughput, p50/p95 latency, and the query cache's hit
// ratio — the read-path capacity check matching the write-path
// overhead summary below.
//
// With -portal-readers N > 0, the run instead (or additionally) drives
// N concurrent clients through the versioned /api/v1 query API —
// paginated job lists, top-N rankings, time-range metric queries,
// gauges — in-process via ServeHTTP, so N can reach tens of thousands
// without socket limits. Each reader carries its own X-Client-ID and
// every tenth shares one, so the per-client token-bucket limiter fires
// visibly; the report adds the 429 count and, with -data-dir, the
// segment index and block-cache counters from the cold-read path.
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
// daemon run audits conservation per host — every snapshot a node
// emitted was archived centrally under that node or still sits in its
// spool, and nothing duplicated past dedup — and any loss or
// misattribution exits non-zero.
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
	portalLoad := flag.Int("portal-load", 0,
		"concurrent portal readers to drive after ETL (0 = off)")
	portalRequests := flag.Int("portal-requests", 2000,
		"total portal requests across all -portal-load or -portal-readers readers")
	portalReaders := flag.Int("portal-readers", 0,
		"concurrent /api/v1 readers to drive after ETL against the versioned query API (0 = off)")
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

	var ledger *wireLedger
	var rec *trace.Recorder
	var watcher *watch.Watcher
	var liveAsm *etl.Assembler
	var watchEvents *os.File
	var srvs []*broker.Server
	var view *fabric.View
	var ing *node.Ingest
	var audit *transportAudit
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
			// authoritative). Broker delivery is per-host FIFO but
			// cross-host skew can reach a collection interval, so
			// finalization is held back that long for lagging tails to
			// fold in.
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
		// A static-membership fabric, of one broker unless -brokers says
		// otherwise — the daemons likewise run a lone brokerd as a fabric
		// of one: every broker serves the same versioned partition map,
		// publishers confirm against every replica owner, and one shared
		// View rebalances publisher and consumer routing together when a
		// broker dies.
		addrs := make([]string, *fabricBrokers)
		srvs = make([]*broker.Server, *fabricBrokers)
		for i := range srvs {
			srvs[i] = broker.NewServer()
			if *chaos {
				// Exercise the server-side deadline plumbing under faults.
				srvs[i].IdleTimeout = 30 * time.Second
				srvs[i].AckTimeout = 10 * time.Second
				srvs[i].WriteTimeout = 10 * time.Second
			}
			a, err := srvs[i].Listen("127.0.0.1:0")
			if err != nil {
				log.Fatalf("simcluster: %v", err)
			}
			addrs[i] = a
		}
		m := fabric.NewMap(addrs, *fabricPartitions, *fabricReplication)
		view = fabric.NewView(m, chaosPolicy(), telemetry.Default())
		for _, s := range srvs {
			s.MapProvider = view.Provider()
		}
		if rec != nil {
			rec.PartitionOf = m.PartitionOf
		}
		audit = &transportAudit{
			strictOrder: len(addrs) == 1,
			emitted:     map[string]bool{},
			collected:   map[string]bool{},
			lastSeen:    map[string]float64{},
		}
		var dialer func(string) (net.Conn, error)
		if *chaos {
			// The outage window is driven by simulated snapshot time so
			// it scales with -days: it opens just before the third
			// collection round and covers -chaos-outage sim-seconds.
			faults := faultnet.Faults{Seed: *seed, ResetAfterBytes: 32 << 10}
			audit.net = faultnet.New(faults)
			audit.start, audit.end = 900, 900+*chaosOutage
			dialer = audit.net.Dialer(func(a string) (net.Conn, error) {
				return net.DialTimeout("tcp", a, 2*time.Second)
			})
			fmt.Printf("simcluster chaos: faults %s, outage t=[%.0f,%.0f)\n",
				faults, audit.start, audit.end)
		}
		fmt.Printf("simcluster fabric: %d brokers, %d partitions, replication %d\n",
			len(addrs), *fabricPartitions, *fabricReplication)
		// One agent — publisher, connection pool and durable spool — per
		// node, exactly as each node daemon runs.
		eng.NewSink = func(n *hwsim.Node, col *collect.Collector) (cluster.Sink, error) {
			col.Trace = rec
			agent, err := node.NewAgent(view, node.AgentConfig{
				Header:   col.Header(),
				Codec:    runCodec,
				SpoolDir: filepath.Join(*out, "nodespool", n.Host()),
				Trace:    rec,
				Dialer:   dialer,
			})
			if err != nil {
				return nil, err
			}
			audit.track(agent)
			return auditSink{audit: audit, agent: agent}, nil
		}
		if *chaosKillBroker {
			// The victim is the broker owning the most partitions as
			// primary — the worst single loss the map allows.
			counts := m.PrimaryCount()
			victimIdx := 0
			for i, a := range addrs {
				if victimAddr == "" || counts[a] > counts[victimAddr] {
					victimIdx, victimAddr = i, a
				}
			}
			fmt.Printf("simcluster chaos: will kill broker %s (primary for %d partitions) at t=%.0f\n",
				victimAddr, counts[victimAddr], *chaosKillAt)
			killed := false
			eng.OnTick = func(now float64) error {
				if !killed && now >= *chaosKillAt {
					killed = true
					fmt.Printf("simcluster chaos: killing broker %s at t=%.0f\n", victimAddr, now)
					return srvs[victimIdx].Close()
				}
				return nil
			}
		}
		ledger = &wireLedger{reg: reg}
		ing, err = node.NewIngest(view, node.IngestConfig{
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
				ledger.sample(s)
				audit.collect(s)
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
	if audit != nil {
		// Let the node drainers replay what the outage or kill stranded,
		// and the group archive every emitted snapshot, before eng.Close
		// stops the publishers; anything still spooled after the timeout
		// is accounted for in the conservation report.
		audit.waitCaughtUp(120 * time.Second)
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
		ledger.print()
		for _, s := range srvs {
			s.Close()
		}
		view.Close()
		gst := ing.Stats()
		fmt.Printf("simcluster fabric: %d snapshots archived through %d brokers in %.2fs wall = %.0f snap/s\n",
			gst.Handled, len(srvs), wall, float64(gst.Handled)/wall)
		if err := audit.report(gst, view.Version(), victimAddr, runCodec); err != nil {
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
	if *portalLoad > 0 {
		if err := runPortalLoad(db, rec, *portalLoad, *portalRequests); err != nil {
			log.Fatalf("simcluster: portal load: %v", err)
		}
	}
	// The /api/v1 load runs while the segment store is still open so
	// cold time-range queries exercise the indexed read path.
	if *portalReaders > 0 {
		var tdb *tsdb.DB
		if ing != nil {
			tdb = ing.TSDB
		}
		if err := runAPILoad(db, tdb, *portalReaders, *portalRequests, span); err != nil {
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

// portalLoadMix is the read workload the -portal-load readers cycle
// through: the job list with histograms, filtered variants, the JSON
// API, and the aggregate pages — the same per-route mix the portal's
// query cache is keyed on.
var portalLoadMix = [...]string{
	"/jobs",
	"/jobs?status=COMPLETED",
	"/jobs?field1=runtime&op1=gte&val1=600",
	"/jobs?field1=nodes&op1=gte&val1=2&status=COMPLETED",
	"/api/jobs?field1=runtime&op1=gte&val1=600",
	"/dates",
	"/energy",
}

// runPortalLoad serves an in-process portal over the freshly built job
// table and drives `readers` concurrent clients through `total` requests
// of the mixed workload, then reports throughput, latency percentiles,
// and cache effectiveness from the portal's own telemetry. With a trace
// recorder (a -watch run), the portal also serves the run's live lag
// summary on /api/lag.
func runPortalLoad(db *reldb.DB, rec *trace.Recorder, readers, total int) error {
	if total <= 0 {
		return fmt.Errorf("-portal-requests must be positive, got %d", total)
	}
	reg := telemetry.NewRegistry()
	ps := portal.NewServer(db, chip.StampedeNode().Registry(), nil)
	ps.Metrics = reg
	ps.Lag = rec
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: ps}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	durs := make([]time.Duration, total)
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				t0 := time.Now()
				resp, err := http.Get(base + portalLoadMix[i%len(portalLoadMix)])
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					firstErr.CompareAndSwap(nil,
						fmt.Errorf("%s: status %d", portalLoadMix[i%len(portalLoadMix)], resp.StatusCode))
					return
				}
				durs[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}

	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(p float64) time.Duration { return durs[int(p*float64(total-1))] }
	vals := telemetry.ParseExposition(reg.Exposition())
	var hits, misses float64
	for name, v := range vals {
		if strings.HasPrefix(name, "gostats_portal_cache_hits_total") {
			hits += v
		} else if strings.HasPrefix(name, "gostats_portal_cache_misses_total") {
			misses += v
		}
	}
	fmt.Printf("simcluster portal-load: %d requests, %d readers in %.2fs = %.0f req/s\n",
		total, readers, elapsed.Seconds(), float64(total)/elapsed.Seconds())
	fmt.Printf("simcluster portal-load: latency p50=%s p95=%s max=%s\n",
		pct(0.50), pct(0.95), durs[total-1])
	if hits+misses > 0 {
		fmt.Printf("simcluster portal-load: cache hits=%.0f misses=%.0f (%.1f%% hit ratio)\n",
			hits, misses, 100*hits/(hits+misses))
	}
	if rec != nil {
		resp, err := http.Get(base + "/api/lag")
		if err != nil {
			return fmt.Errorf("/api/lag: %w", err)
		}
		var sum trace.LagSummary
		err = json.NewDecoder(resp.Body).Decode(&sum)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("/api/lag: %w", err)
		}
		fmt.Printf("simcluster portal-load: /api/lag serves %d pipeline stages, %d hosts, %d partitions\n",
			len(sum.Stages), len(sum.Hosts), len(sum.Partitions))
		if len(sum.Partitions) > 0 {
			worst := sum.Partitions[0]
			for _, p := range sum.Partitions {
				if p.MaxFreshnessSeconds > worst.MaxFreshnessSeconds {
					worst = p
				}
			}
			fmt.Printf("simcluster portal-load: stalest partition p%03d: %d hosts, max freshness %.2f s\n",
				worst.Partition, worst.Hosts, worst.MaxFreshnessSeconds)
		}
	}
	return nil
}

// apiJobMix is the job-table side of the -portal-readers workload:
// paginated lists, ordered pages, and bounded-heap rankings.
var apiJobMix = [...]string{
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
// requests of the mixed /api/v1 workload against an in-process portal
// over the freshly built job table and the run's live tsdb. Requests go
// straight through ServeHTTP — no sockets — so reader concurrency is
// bounded by goroutines, not file descriptors. Each reader carries its
// own X-Client-ID; every tenth reader shares one id so the token-bucket
// limiter demonstrably fires under the pile-up. 429s are counted, never
// fatal, and (because the limiter wraps outside the cache) never
// populate or evict cache entries.
func runAPILoad(db *reldb.DB, tdb *tsdb.DB, readers, total int, span float64) error {
	if total <= 0 {
		return fmt.Errorf("-portal-requests must be positive, got %d", total)
	}
	reg := telemetry.NewRegistry()
	ps := portal.NewServer(db, chip.StampedeNode().Registry(), nil)
	ps.Metrics = reg
	ps.TSDB = tdb
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

// snapKey identifies one snapshot for conservation accounting. Confirmed
// publishes can duplicate a snapshot but never change it, so identity by
// (host, time, mark) is exact.
func snapKey(s model.Snapshot) string {
	return fmt.Sprintf("%s@%.3f#%s", s.Host, s.Time, s.Mark)
}

// transportAudit is the conservation ledger of a fabric run, and under
// -chaos its fault schedule: every snapshot a node emits is booked on
// the way into its publisher, every first archive on the way out of the
// deduplicating consumer group, and whatever an outage or broker kill
// stranded must still sit in that node's spool. Because the group
// dedups by (host, sequence) before the listener runs, a duplicate
// reaching collect is a dedup failure, not a tolerated retry.
type transportAudit struct {
	net         *faultnet.Network // nil without -chaos
	start, end  float64           // outage window in simulated seconds
	strictOrder bool              // one owner per partition: per-host order must hold

	mu         sync.Mutex
	started    bool
	stopped    bool
	emitted    map[string]bool
	collected  map[string]bool
	lastSeen   map[string]float64 // per-host max first-occurrence time
	duplicates int
	disorder   []string
	agents     []*node.Agent
}

func (a *transportAudit) track(agent *node.Agent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.agents = append(a.agents, agent)
}

// observe runs before each node publish: it books the snapshot as
// emitted and drives the outage gate off simulated time, so the window
// hits the same collection rounds regardless of wall-clock speed.
func (a *transportAudit) observe(s model.Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.emitted[snapKey(s)] = true
	if a.net == nil {
		return
	}
	if !a.started && s.Time >= a.start {
		a.started = true
		a.net.StartOutage()
		fmt.Printf("simcluster chaos: broker outage begins at t=%.0f\n", s.Time)
	}
	if a.started && !a.stopped && s.Time >= a.end {
		a.stopped = true
		a.net.StopOutage()
		fmt.Printf("simcluster chaos: broker outage ends at t=%.0f\n", s.Time)
	}
}

// collect books one archived snapshot. Only first occurrences take part
// in the per-host ordering check: nodes publish in time order and spool
// replay is FIFO, so through one owner per partition first deliveries
// arrive non-decreasing per host. Replica owners drain in parallel, so
// with replication inversions are reported but tolerated.
func (a *transportAudit) collect(s model.Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := snapKey(s)
	if a.collected[k] {
		a.duplicates++
		return
	}
	a.collected[k] = true
	if last, ok := a.lastSeen[s.Host]; ok && s.Time < last {
		a.disorder = append(a.disorder,
			fmt.Sprintf("%s: t=%.0f delivered after t=%.0f", s.Host, s.Time, last))
	} else {
		a.lastSeen[s.Host] = s.Time
	}
}

// waitCaughtUp blocks until every node spool is empty and every emitted
// snapshot is archived, or the timeout passes (the shortfall is then
// the report's to explain).
func (a *transportAudit) waitCaughtUp(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		done := len(a.collected) >= len(a.emitted)
		for _, ag := range a.agents {
			done = done && ag.Spool.Depth() == 0
		}
		a.mu.Unlock()
		if done {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// report enumerates what the spools still hold, checks conservation per
// host — emitted == archived + still spooled, every archive filed under
// the host that emitted it — plus zero duplicates past dedup, ordering
// where it must hold, and (after a broker kill) a rebalanced map. It
// prints the ledgers and returns an error on any violation. The
// publishers must be stopped (their drainers idle); report closes the
// agents once their spools are read.
func (a *transportAudit) report(gst fabric.GroupStats, mapVersion uint64, victim string, wire codec.Version) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	spoolResident := map[string]bool{}
	for _, ag := range a.agents {
		_, err := ag.Spool.Drain(func(s model.Snapshot) error {
			spoolResident[snapKey(s)] = true
			return nil
		})
		if err != nil {
			return fmt.Errorf("fabric: reading spool remainder: %w", err)
		}
		if err := ag.Close(); err != nil {
			return fmt.Errorf("fabric: closing agent: %w", err)
		}
	}
	var st fabric.PublisherStats
	for _, ag := range a.agents {
		ps := ag.Stats()
		st.Published += ps.Published
		st.Redials += ps.Redials
		st.Spooled += ps.Spooled
		st.Replayed += ps.Replayed
		st.Rerouted += ps.Rerouted
		st.Dropped += ps.Dropped
		st.BytesOnWire += ps.BytesOnWire
	}

	// Attribution: per host, what it emitted against what arrived filed
	// under it. An archive no node emitted is data filed under the wrong
	// host.
	type tally struct{ emitted, archived, spooled, foreign int }
	hosts := map[string]*tally{}
	hostOf := func(k string) *tally {
		h := k[:strings.LastIndexByte(k, '@')]
		if hosts[h] == nil {
			hosts[h] = &tally{}
		}
		return hosts[h]
	}
	var missing []string
	for k := range a.emitted {
		t := hostOf(k)
		t.emitted++
		switch {
		case a.collected[k]:
			t.archived++
		case spoolResident[k]:
			t.spooled++
		default:
			missing = append(missing, k)
		}
	}
	for k := range a.collected {
		if !a.emitted[k] {
			hostOf(k).foreign++
		}
	}
	var off []string
	for h, t := range hosts {
		if t.archived+t.spooled != t.emitted || t.foreign > 0 {
			off = append(off, fmt.Sprintf("%s (emitted %d, archived %d, spooled %d, misfiled %d)",
				h, t.emitted, t.archived, t.spooled, t.foreign))
		}
	}
	sort.Strings(missing)
	sort.Strings(off)

	fmt.Printf("simcluster fabric: emitted=%d archived=%d spool_remaining=%d dup_past_dedup=%d missing=%d hosts=%d hosts_off=%d order_inversions=%d\n",
		len(a.emitted), len(a.collected), len(spoolResident), a.duplicates, len(missing),
		len(hosts), len(off), len(a.disorder))
	delivered := st.Published + st.Replayed
	perSnap := 0.0
	if delivered > 0 {
		perSnap = float64(st.BytesOnWire) / float64(delivered)
	}
	fmt.Printf("simcluster fabric: publisher published=%d redials=%d spooled=%d replayed=%d rerouted=%d dropped=%d bytes_on_wire=%d (%.0f B/snap, codec %s)\n",
		st.Published, st.Redials, st.Spooled, st.Replayed, st.Rerouted, st.Dropped, st.BytesOnWire, perSnap, wire)
	fmt.Printf("simcluster fabric: group delivered=%d handled=%d deduped=%d consumer_restarts=%d\n",
		gst.Delivered, gst.Handled, gst.Deduped, gst.Restarts)
	if a.net != nil {
		fmt.Printf("simcluster chaos: faults %+v\n", a.net.Stats())
	}
	if len(off) > 0 {
		n := len(off)
		if n > 5 {
			off = off[:5]
		}
		return fmt.Errorf("fabric: attribution off on %d hosts: %s", n, strings.Join(off, "; "))
	}
	if len(missing) > 0 {
		n := len(missing)
		if n > 10 {
			missing = missing[:10]
		}
		return fmt.Errorf("fabric: %d snapshots lost (e.g. %v)", n, missing)
	}
	if a.duplicates > 0 {
		return fmt.Errorf("fabric: %d duplicate snapshots got past (host, seq) dedup", a.duplicates)
	}
	if victim != "" {
		if mapVersion < 2 {
			return fmt.Errorf("fabric: broker %s was killed but the partition map never rebalanced (still v%d)", victim, mapVersion)
		}
		fmt.Printf("simcluster fabric: rebalanced off killed broker %s (map now v%d)\n", victim, mapVersion)
	}
	if len(a.disorder) > 0 {
		if a.strictOrder {
			return fmt.Errorf("fabric: %d per-host ordering violations (e.g. %s)",
				len(a.disorder), a.disorder[0])
		}
		fmt.Printf("simcluster fabric: %d per-host order inversions tolerated across replicated delivery (e.g. %s)\n",
			len(a.disorder), a.disorder[0])
	}
	fmt.Printf("simcluster fabric: conservation holds — every host's snapshots archived under it or still in its spool\n")
	return nil
}

// auditSink books each snapshot with the ledger and hands it to the
// node's own agent; Close stops the publisher's drainer (the spool
// stays open for the final accounting, which closes the agent).
type auditSink struct {
	audit *transportAudit
	agent *node.Agent
}

func (s auditSink) Handle(snap model.Snapshot) error {
	s.audit.observe(snap)
	return s.agent.Publish(snap)
}

func (s auditSink) Close() error { return s.agent.Publisher.Close() }
