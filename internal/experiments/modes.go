package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gostats/internal/broker"
	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/collect"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/node"
	"gostats/internal/rawfile"
	"gostats/internal/simfleet"
	"gostats/internal/workload"
)

// modeJobs builds the job stream both mode experiments run: enough short
// WRF-class jobs to keep the cluster busy across the simulated span.
func modeJobs(sc Scale) []workload.Spec {
	n := sc.Nodes * int(sc.SimSpan/7200)
	specs := make([]workload.Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, workload.Spec{
			JobID: fmt.Sprintf("m%04d", i), User: "u001", Exe: "wrf.exe",
			Queue: "normal", Nodes: 1 + i%2, Wayness: 16,
			SubmitAt: float64(i) * sc.SimSpan / float64(n),
			Runtime:  3600,
			Status:   workload.StatusCompleted,
			Model:    workload.Steady{Label: "wrf", P: workload.WRFProfile("u001")},
		})
	}
	return specs
}

// CronMode (E3) runs the Fig 1 pipeline: node-local spools, daily
// random-time rsync, and a node failure that loses the unsynced day.
func CronMode(sc Scale) (*Result, error) {
	tmp, err := os.MkdirTemp("", "gostats-cron")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	store, err := rawfile.NewStore(filepath.Join(tmp, "central"))
	if err != nil {
		return nil, err
	}

	eng, err := cluster.NewEngine(sc.Nodes, chip.StampedeNode(), sc.Interval, sc.Seed)
	if err != nil {
		return nil, err
	}
	collected := map[string]int{}
	spoolOf := func(host string) string { return filepath.Join(tmp, "spool", host) }
	eng.NewSink = func(n *hwsim.Node, col *collect.Collector) (cluster.Sink, error) {
		logger, err := rawfile.NewNodeLogger(spoolOf(n.Host()), col.Header())
		if err != nil {
			return nil, err
		}
		host := n.Host()
		return &cronSink{logger: logger, onLog: func() { collected[host]++ }}, nil
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	syncTimes := map[string][]float64{}
	eng.SyncHook = func(host string, now float64) error {
		syncTimes[host] = append(syncTimes[host], now)
		return store.SyncFrom(host, spoolOf(host))
	}
	eng.Submit(modeJobs(sc)...)

	// Run to 60% of the span, then kill one node (spool and all).
	if err := eng.Run(0.6 * sc.SimSpan); err != nil {
		return nil, err
	}
	victim := eng.Nodes()[0]
	collectedAtFailure := collected[victim]
	eng.FailNode(victim)
	if err := os.RemoveAll(spoolOf(victim)); err != nil {
		return nil, err
	}
	if err := eng.Run(sc.SimSpan); err != nil {
		return nil, err
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	// Healthy nodes get their next-morning sync; the dead one cannot.
	for _, host := range eng.Nodes() {
		if host == victim {
			continue
		}
		if err := store.SyncFrom(host, spoolOf(host)); err != nil {
			return nil, err
		}
	}

	// Measure: central availability, loss on the dead node, average lag.
	totalCollected, totalCentral := 0, 0
	for _, host := range eng.Nodes() {
		totalCollected += collected[host]
		snaps, err := store.ReadHost(host)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		totalCentral += len(snaps)
	}
	victimCentral := 0
	if snaps, err := store.ReadHost(victim); err == nil {
		victimCentral = len(snaps)
	}
	lost := collectedAtFailure - victimCentral

	// Lag: distance from each collection to its host's next daily sync;
	// with syncs uniform over the day the expectation is ~12 h.
	var lagSum float64
	var lagN int
	for _, host := range eng.Nodes() {
		if host == victim {
			continue
		}
		ts := syncTimes[host]
		if len(ts) == 0 {
			continue
		}
		// Approximate per-snapshot lag using the sync schedule period.
		first := ts[0]
		for t := first - 86400; t < sc.SimSpan; t += sc.Interval {
			if t < 0 {
				continue
			}
			next := first
			for next < t {
				next += 86400
			}
			lagSum += next - t
			lagN++
		}
	}
	avgLagH := 0.0
	if lagN > 0 {
		avgLagH = lagSum / float64(lagN) / 3600
	}

	res := &Result{ID: "E3", Title: "Fig 1 — cron mode: daily rsync pipeline"}
	res.Rows = []Row{
		{"collections performed", "-", fmt.Sprintf("%d", totalCollected),
			fmt.Sprintf("%d nodes over %.1f simulated days", sc.Nodes, sc.SimSpan/86400)},
		{"available centrally after daily sync", "all of previous day", fmt.Sprintf("%d", totalCentral), ""},
		{"mean data-availability lag", "hours (up to a day)", fmt.Sprintf("%.1f h", avgLagH), "time to next random daily sync"},
		{"snapshots lost to node failure", "unsynced day lost", fmt.Sprintf("%d", lost),
			fmt.Sprintf("node %s died at 60%% of span", victim)},
	}
	if lost <= 0 {
		return nil, fmt.Errorf("cron mode: expected data loss on node failure, got %d", lost)
	}
	return res, nil
}

// cronSink adapts a NodeLogger to the engine sink interface.
type cronSink struct {
	logger *rawfile.NodeLogger
	onLog  func()
}

func (s *cronSink) Handle(snap model.Snapshot) error {
	s.onLog()
	return s.logger.Log(snap)
}

func (s *cronSink) Close() error { return s.logger.Close() }

// DaemonMode (E4) runs the Fig 2 pipeline: every collection published to
// the broker and archived centrally in real time; the same node failure
// loses nothing already collected. The broker runs as a fabric of one,
// both sides are composed by internal/node exactly as tacc_statsd and
// listend compose them, and the simfleet ledger audits conservation:
// every collection archived once, under the host that collected it.
func DaemonMode(sc Scale) (*Result, error) {
	tmp, err := os.MkdirTemp("", "gostats-daemon")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	fab, err := simfleet.NewFabric(1, 0, 0, broker.DefaultPolicy(), nil, nil)
	if err != nil {
		return nil, err
	}
	defer fab.Close()
	led := simfleet.NewLedger(fab)

	ing, err := node.NewIngest(fab.View, node.IngestConfig{
		StoreDir:   filepath.Join(tmp, "central"),
		Fleet:      chip.StampedeNode(),
		OnSnapshot: led.Archive,
	})
	if err != nil {
		return nil, err
	}
	defer ing.Close()

	eng, err := cluster.NewEngine(sc.Nodes, chip.StampedeNode(), sc.Interval, sc.Seed)
	if err != nil {
		return nil, err
	}
	eng.NewSink = func(n *hwsim.Node, col *collect.Collector) (cluster.Sink, error) {
		return led.NewPublisher(node.AgentConfig{Header: col.Header()})
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}

	eng.Submit(modeJobs(sc)...)
	if err := eng.Run(0.6 * sc.SimSpan); err != nil {
		return nil, err
	}
	victim := eng.Nodes()[0]
	eng.FailNode(victim)
	if err := eng.Run(sc.SimSpan); err != nil {
		return nil, err
	}
	// A publish is confirmed once the broker holds it, so wait until the
	// listener has archived everything published.
	if err := led.WaitCaughtUp(ing, 120*time.Second); err != nil {
		return nil, fmt.Errorf("daemon mode: %w", err)
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	if err := ing.Close(); err != nil {
		return nil, err
	}
	c, err := led.Report()
	if err != nil {
		return nil, fmt.Errorf("daemon mode: %s: %w", c, err)
	}
	victimCentral := 0
	if snaps, err := ing.Store.ReadHost(victim); err == nil {
		victimCentral = len(snaps)
	}

	res := &Result{ID: "E4", Title: "Fig 2 — daemon mode: broker pipeline, real-time"}
	res.Rows = []Row{
		{"collections published", "-", fmt.Sprintf("%d", c.Emitted),
			fmt.Sprintf("%d nodes over %.1f simulated days", sc.Nodes, sc.SimSpan/86400)},
		{"available centrally", "immediately", fmt.Sprintf("%d", c.Archived), "archived as consumed"},
		{"mean data-availability lag", "real time (seconds)", "0 s simulated", "consumer keeps up with the stream"},
		{"snapshots lost to node failure", "none already sent", fmt.Sprintf("%d", c.Missing),
			fmt.Sprintf("node %s died at 60%% of span; %d of its snapshots safe", victim, victimCentral)},
		{"listener processed", "-", fmt.Sprintf("%d", ing.Stats().Handled), ""},
	}
	return res, nil
}
