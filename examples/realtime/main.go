// realtime demonstrates daemon mode end to end over real sockets: a
// broker, four node daemons publishing collections, and a central
// listener that archives the stream and alerts the moment a metadata
// storm starts (§VI-B) — the capability cron mode's day-old data cannot
// provide. Both sides are the deployable nodes (internal/node) the
// tacc_statsd and listend daemons run, over a fabric of one broker.
//
//	go run ./examples/realtime
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/collect"
	"gostats/internal/fabric"
	"gostats/internal/hwsim"
	"gostats/internal/node"
	"gostats/internal/realtime"
)

func main() {
	srv := broker.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("broker listening on %s\n", addr)
	m, err := fabric.Bootstrap([]string{addr})
	if err != nil {
		log.Fatal(err)
	}
	view := fabric.NewView(m, broker.DefaultPolicy(), nil)
	defer view.Close()

	tmp, err := os.MkdirTemp("", "gostats-realtime")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// Central listener with the online monitor.
	cfg := chip.StampedeNode()
	ing, err := node.NewIngest(view, node.IngestConfig{
		StoreDir: filepath.Join(tmp, "central"),
		Fleet:    cfg,
		Notify:   func(a realtime.Alert) { fmt.Printf("  >> ALERT %s\n", a) },
	})
	if err != nil {
		log.Fatal(err)
	}

	// Four node daemons. Node 0 develops a metadata storm halfway in.
	const nodes = 4
	const ticks = 8
	daemons := make([]*collect.DaemonAgent, nodes)
	sims := make([]*hwsim.Node, nodes)
	for i := 0; i < nodes; i++ {
		n, err := hwsim.NewNode(fmt.Sprintf("c401-%03d", 101+i), cfg, int64(i))
		if err != nil {
			log.Fatal(err)
		}
		n.Advance(86400, hwsim.IdleDemand())
		col := collect.New(n)
		agent, err := node.NewAgent(view, node.AgentConfig{Header: col.Header()})
		if err != nil {
			log.Fatal(err)
		}
		defer agent.Close()
		sims[i] = n
		daemons[i] = collect.NewDaemonAgent(col, agent)
	}

	fmt.Printf("%d node daemons publishing %d collections each...\n", nodes, ticks)
	for k := 1; k <= ticks; k++ {
		now := float64(k) * 600
		for i, d := range daemons {
			demand := hwsim.Demand{CPUUserFrac: 0.8, IPC: 1.2, FlopsRate: 2e10,
				MDCReqRate: 5, LustreWriteBW: 1e6}
			if i == 0 && k > ticks/2 {
				demand.MDCReqRate = 120000 // the storm begins
				demand.CPUUserFrac = 0.55
			}
			sims[i].Advance(600, demand)
			if err := d.Tick(now, []string{fmt.Sprintf("job-%d", 9000+i)}, ""); err != nil {
				log.Fatal(err)
			}
		}
	}
	// Let the listener archive every confirmed publish before stopping.
	deadline := time.Now().Add(10 * time.Second)
	for ing.Stats().Handled < nodes*ticks && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if err := ing.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nlistener archived %d snapshots in real time\n", ing.Stats().Handled)
	hosts, _ := ing.Store.Hosts()
	for _, h := range hosts {
		snaps, _ := ing.Store.ReadHost(h)
		fmt.Printf("  %s: %d snapshots central\n", h, len(snaps))
	}
	alerts := ing.Monitor.Alerts()
	fmt.Printf("%d alerts raised; the first came %d collections after the storm began\n",
		len(alerts), 1)
	if len(alerts) == 0 {
		fmt.Println("(unexpected: storm not detected)")
	}
}
