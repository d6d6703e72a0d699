// Command tacc_stats is the one-shot collector of cron mode (Fig 1): it
// performs a full device sweep on a simulated node and either prints the
// raw stats block to stdout or appends it to a node-local spool
// directory, exactly where the real tool sits in the prolog/epilog and
// cron slots.
//
// Because the hardware layer is simulated, the node's state lives in the
// spool directory as a deterministic function of (-host, -seed, -uptime):
// repeated invocations with increasing -uptime advance the same counters.
//
// Usage:
//
//	tacc_stats [-host c401-101] [-arch stampede|lonestar|largemem]
//	           [-jobs 4001,4002] [-mark "begin 4001"] [-uptime 3600]
//	           [-busy 0.8] [-spool DIR]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gostats/internal/chip"
	"gostats/internal/codec"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/rawfile"
)

func main() {
	host := flag.String("host", "c401-101", "hostname of the simulated node")
	arch := flag.String("arch", "stampede", "node type: stampede, lonestar, largemem, nehalem")
	jobs := flag.String("jobs", "", "comma-separated job ids running on the node")
	mark := flag.String("mark", "", `collection mark, e.g. "begin 4001"`)
	uptime := flag.Float64("uptime", 3600, "simulated seconds since boot")
	busy := flag.Float64("busy", 0.7, "simulated CPU user fraction during uptime")
	seed := flag.Int64("seed", 1, "node determinism seed")
	spool := flag.String("spool", "", "append to this spool directory instead of stdout")
	flag.Parse()

	cfg, err := chip.Fleet(*arch)
	if err != nil {
		log.Fatalf("tacc_stats: %v", err)
	}
	node, err := hwsim.NewNode(*host, cfg, *seed)
	if err != nil {
		log.Fatalf("tacc_stats: %v", err)
	}
	node.Advance(*uptime, hwsim.Demand{
		CPUUserFrac: *busy, IPC: 1.2, FlopsRate: 2e10 * *busy, VecFrac: 0.4,
		LoadRate: 1e10 * *busy, L1HitFrac: 0.9, L2HitFrac: 0.05, LLCHitFrac: 0.03,
		MemBW: 1.5e10 * *busy, MemUsed: uint64(*busy * float64(cfg.MemBytes) / 2),
		MDCReqRate: 5, OSCReqRate: 10, LustreReadBW: 1e6, LustreWriteBW: 4e6,
		IBBW: 2e8 * *busy,
	})
	col := collect.New(node)
	var jobIDs []string
	if *jobs != "" {
		jobIDs = strings.Split(*jobs, ",")
	}
	snap, cost := col.Collect(*uptime, jobIDs, *mark)

	if *spool != "" {
		logger, err := rawfile.NewNodeLogger(*spool, col.Header())
		if err != nil {
			log.Fatalf("tacc_stats: %v", err)
		}
		if err := logger.Log(snap); err != nil {
			log.Fatalf("tacc_stats: %v", err)
		}
		if err := logger.Close(); err != nil {
			log.Fatalf("tacc_stats: %v", err)
		}
		fmt.Fprintf(os.Stderr, "tacc_stats: %d records appended to %s (simulated cost %.3f s)\n",
			len(snap.Records), *spool, cost)
		return
	}
	w, err := codec.NewEncoder(os.Stdout, col.Header(), codec.V1Text)
	if err != nil {
		log.Fatalf("tacc_stats: %v", err)
	}
	if err := w.WriteSnapshot(snap); err != nil {
		log.Fatalf("tacc_stats: %v", err)
	}
	fmt.Fprintf(os.Stderr, "tacc_stats: %d records (simulated cost %.3f s)\n", len(snap.Records), cost)
}
