// Quickstart: monitor one job on a simulated node end to end — collect
// with prolog/epilog plus interval sampling, reduce the job's snapshots
// to every Table I metric and the Fig 5 panels, and print the summary.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/core"
	"gostats/internal/telemetry"
	"gostats/internal/workload"
)

func main() {
	// A 4-node WRF run sampled every 10 simulated minutes.
	spec := workload.Spec{
		JobID: "1234567", User: "you", Account: "TG-DEMO", Exe: "wrf.exe",
		JobName: "quickstart", Queue: "normal", Nodes: 4, Wayness: 16,
		Runtime: 2 * 3600, Status: workload.StatusCompleted,
		Model: workload.Steady{Label: "wrf", P: workload.WRFProfile("you")},
	}
	cfg := chip.StampedeNode()
	run, err := cluster.RunJob(spec, cfg, 600, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s ran on %d nodes, %d snapshots collected (simulated collector cost %.2f s)\n",
		spec.JobID, len(run.Hosts), len(run.Snapshots), run.CollectCost)

	red := core.NewReducer(spec.JobID, cfg.Registry())
	for _, snap := range run.Snapshots {
		red.Add(snap)
	}
	s, err := red.Result(cfg.Desc.VecWidth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTable I metrics:")
	fmt.Printf("  CPU_Usage      %6.1f%%   (time in user space)\n", 100*s.CPUUsage)
	fmt.Printf("  flops          %8.3g/s per node\n", s.Flops)
	fmt.Printf("  VecPercent     %6.1f%%\n", 100*s.VecPercent)
	fmt.Printf("  cpi            %8.3f\n", s.CPI)
	fmt.Printf("  mbw            %8.3g B/s per node\n", s.MemBW)
	fmt.Printf("  MemUsage       %8.2f GB (max, node-summed)\n", s.MemUsage/(1<<30))
	fmt.Printf("  MDCReqs        %8.3g/s   MetaDataRate %8.3g/s (peak)\n", s.MDCReqs, s.MetaDataRate)
	fmt.Printf("  LnetAveBW      %8.3g B/s  LnetMaxBW   %8.3g B/s\n", s.LnetAveBW, s.LnetMaxBW)
	fmt.Printf("  InternodeIB    %8.3g B/s (MPI traffic)\n", s.InternodeIBAveBW)
	fmt.Printf("  idle           %8.3f    catastrophe %8.3f\n", s.Idle, s.Catastrophe)
	fmt.Printf("  PkgWatts       %8.1f W per node (RAPL)\n", s.PkgWatts)

	// The Fig 5 panels come from the same reducer (the portal renders
	// them as SVG).
	js, err := red.Panels(cfg.Desc.VecWidth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d time-series panels available:", len(js.Panels))
	for _, p := range js.Panels {
		fmt.Printf(" %q", p.Name)
	}
	fmt.Println()

	// The collectors telemeter themselves; the same numbers a -telemetry
	// ops endpoint would serve back up the paper's overhead claim (§III).
	vals := telemetry.ParseExposition(telemetry.Default().Exposition())
	if n := vals["gostats_collect_seconds_count"]; n > 0 {
		mean := vals["gostats_collect_seconds_sum"] / n
		fmt.Printf("\nmonitoring overhead: %.0f sweeps, mean %.4f s each — paper budget 0.09 s\n", n, mean)
	}
}
