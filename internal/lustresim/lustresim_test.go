package lustresim_test

import (
	. "gostats/internal/lustresim"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/cluster"
	"gostats/internal/collect"
	"gostats/internal/core"
	"gostats/internal/hwsim"
	"gostats/internal/model"
	"gostats/internal/workload"
)

func TestUnloadedLatencyIsBase(t *testing.T) {
	fs := New(DefaultConfig())
	if w := fs.MDSWaitUs(); w != DefaultConfig().BaseMDSWaitUs {
		t.Errorf("unloaded wait = %g", w)
	}
	if thr := fs.Throttle(); thr != 1 {
		t.Errorf("unloaded throttle = %g", thr)
	}
}

func TestLatencyClimbsWithLoad(t *testing.T) {
	cfg := DefaultConfig()
	fs := New(cfg)
	var prev float64
	for _, load := range []float64{0.2, 0.5, 0.8, 0.95} {
		// Feed repeatedly so the EWMA converges.
		for i := 0; i < 20; i++ {
			fs.Step(load*cfg.MDSCapacity, 0)
		}
		w := fs.MDSWaitUs()
		if w <= prev {
			t.Errorf("wait did not climb at rho=%g: %g <= %g", load, w, prev)
		}
		prev = w
	}
	// At 95% utilization the M/M/1 curve gives ~20x the base latency.
	if prev < 10*cfg.BaseMDSWaitUs {
		t.Errorf("near-saturation wait = %g, want >> base", prev)
	}
}

func TestLatencyCappedAtSaturation(t *testing.T) {
	cfg := DefaultConfig()
	fs := New(cfg)
	for i := 0; i < 50; i++ {
		fs.Step(10*cfg.MDSCapacity, 0)
	}
	want := cfg.BaseMDSWaitUs * cfg.MaxWaitFactor
	if w := fs.MDSWaitUs(); w != want {
		t.Errorf("saturated wait = %g, want cap %g", w, want)
	}
	if u := fs.MDSUtilization(); u < 5 {
		t.Errorf("utilization = %g", u)
	}
	if fs.PeakMDSLoad() < 5*cfg.MDSCapacity {
		t.Errorf("peak = %g", fs.PeakMDSLoad())
	}
}

func TestOSSThrottle(t *testing.T) {
	cfg := DefaultConfig()
	fs := New(cfg)
	for i := 0; i < 50; i++ {
		fs.Step(0, 2*cfg.OSSBandwidth)
	}
	thr := fs.Throttle()
	if thr < 0.45 || thr > 0.55 {
		t.Errorf("throttle at 2x demand = %g, want ~0.5", thr)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	fs := New(Config{BaseMDSWaitUs: 10, MDSCapacity: 100})
	// Bad smoothing/factor values are corrected.
	fs.Step(50, 0)
	if w := fs.MDSWaitUs(); w <= 0 {
		t.Errorf("wait = %g", w)
	}
}

// The §VI-A scenario, now emergent: a storm job on a shared cluster
// raises the MDC wait observed by an unrelated victim job.
func TestEngineInterferenceEmerges(t *testing.T) {
	run := func(withStorm bool) float64 {
		eng, err := cluster.NewEngine(4, chip.StampedeNode(), 600, 11)
		if err != nil {
			t.Fatal(err)
		}
		eng.FS = New(DefaultConfig())
		var victimSnaps []model.Snapshot
		eng.NewSink = func(n *hwsim.Node, col *collect.Collector) (cluster.Sink, error) {
			return cluster.SinkFunc(func(s model.Snapshot) error {
				if s.HasJob("victim") {
					victimSnaps = append(victimSnaps, s)
				}
				return nil
			}), nil
		}
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		victim := workload.Spec{
			JobID: "victim", User: "u1", Exe: "io.x", Queue: "normal",
			Nodes: 1, Runtime: 4 * 3600, Status: workload.StatusCompleted,
			Model: workload.Steady{Label: "io", P: workload.IOBandwidth("u1", "io.x")},
		}
		eng.Submit(victim)
		if withStorm {
			storm := workload.Spec{
				JobID: "storm", User: "u042", Exe: "wrf.exe", Queue: "normal",
				Nodes: 2, Runtime: 4 * 3600, Status: workload.StatusCompleted,
				Model: workload.PathologicalWRF("u042"),
			}
			eng.Submit(storm)
		}
		if err := eng.Run(5 * 3600); err != nil {
			t.Fatal(err)
		}
		// Reduce the victim's MDCWait metric.
		jd := model.NewJobData("victim")
		for _, s := range victimSnaps {
			jd.AddSnapshot(s)
		}
		sum, err := core.Compute(jd, chip.StampedeNode().Registry(), core.VecWidth)
		if err != nil {
			t.Fatal(err)
		}
		return sum.MDCWait
	}

	quiet := run(false)
	stormy := run(true)
	if stormy < 3*quiet {
		t.Errorf("victim MDCWait with storm = %g us, without = %g us; want >3x interference",
			stormy, quiet)
	}
}
