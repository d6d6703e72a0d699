// Command perfbench is gostats' benchmark: it composes the daemon-mode
// pipeline and the portal in one process, drives one workload
// (backfill, live or history) generated from a seed, checks every
// output, and prints one JSON result line. See README.md.
//
//	perfbench -workload live -seed 3 -seconds 10 -trace 0
//	perfbench -workload history -trace 1      # per-layer budget
//	perfbench -workload backfill -repeat 10   # steadiness report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	workdir  string

	hosts  int     // simulated compute nodes
	span   float64 // simulated seconds of stream
	setups int     // set-ups per run; setup_s is their median
	small  bool    // smoke-test size: too few samples for a p99
}

// The live workload's rates, far enough below backfill's capacity
// (about 650 snap/s on a 2-vCPU VM) that a host slowed by a noisy
// neighbour does not push the serial listener towards saturation, and
// history's client count, one per CPU.
const (
	liveRate       = 200.0 // snapshots published per second
	dashRate       = 10.0  // dashboard refreshes per second
	historyClients = 2
)

// sizes are the stream sizes: full for measurement, small for the
// smoke tests.
func sized(size string, c config) (config, error) {
	switch size {
	case "full":
		// Live needs 32 hosts for its six preloaded hours plus ten
		// seconds at liveRate; the others use 16 to repeat more rounds
		// (backfill) and set up faster (history).
		c.hosts, c.span, c.setups = 16, 86400, 3
		if c.workload == "live" {
			c.hosts = 32
		}
	case "small":
		c.hosts, c.span, c.setups, c.small = 4, 6*3600, 1, true
	default:
		return c, fmt.Errorf("unknown size %q (want full or small)", size)
	}
	return c, nil
}

// traffic is one workload's traffic mix against a fresh composition.
type traffic interface {
	// setup generates the stream and builds stores and connections.
	setup() error
	// run drives traffic for d and checks the outputs. With tr set it
	// records spans around every call into a layer.
	run(d time.Duration, tr *tracer) (*outcome, error)
	close()
}

// outcome is what one measured run of a workload produced.
type outcome struct {
	attempted, failed int
	ops               int       // completed operations in the measured windows
	opsPerSec         float64   // completed operations ÷ measured time
	lat               []float64 // in completion order
	// proc is the process's resource use in the measured windows, in
	// which the tracer recorded spans spans.
	proc           procSample
	spans          int
	archivePerSnap float64
	storePerPoint  float64
	// listenerUs is the mean time a snapshot spends between leaving
	// the codec and entering the tap (0 without ingest).
	listenerUs float64
	// renderIDs are the requests that certainly missed the portal
	// cache (first of their URL), over which render time is taken. Only
	// history sets them: with live writes beside, a direct store call
	// does not see the data ServeHTTP saw.
	renderIDs map[int]bool
	layer     map[string]float64
}

func newWorkload(c config) (traffic, error) {
	switch c.workload {
	case "backfill":
		return &backfill{cfg: c}, nil
	case "live":
		return &live{cfg: c}, nil
	case "history":
		return &history{cfg: c}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want backfill, live or history)", c.workload)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var c config
	var traceFlag int
	var size string
	var repeat int
	var sameSeed bool
	flag.StringVar(&c.workload, "workload", "", "backfill, live or history")
	flag.Int64Var(&c.seed, "seed", 1, "seed the stream and request sequence are generated from")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&c.workdir, "workdir", ".bench_build", "directory for stores and span files")
	flag.StringVar(&size, "size", "full", "stream size: full or small")
	flag.IntVar(&repeat, "repeat", 0, "run the workload N times in child processes and report spread")
	flag.BoolVar(&sameSeed, "same-seed", false, "with -repeat: use one seed, so counts must repeat exactly")
	flag.Parse()

	c, err := sized(size, c)
	if err != nil {
		fatal(err)
	}
	if repeat > 0 {
		if err := repeatRuns(c, repeat, traceFlag == 1, sameSeed, size); err != nil {
			fatal(err)
		}
		return
	}
	if c.workload == "" {
		fatal(fmt.Errorf("-workload is required"))
	}
	res, err := runOnce(c, traceFlag == 1)
	if err != nil {
		fatal(err)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("metric %s is %g", k, m.Value))
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runOnce sets up and runs one workload. A failed output check yields
// a result with correct=false; an error means no result at all.
func runOnce(c config, traced bool) (*result, error) {
	if c.workdir, _ = filepath.Abs(c.workdir); c.workdir == "" {
		return nil, fmt.Errorf("no work directory")
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, err
	}
	d := time.Duration(c.seconds * float64(time.Second))
	if traced {
		return tracedRun(c, d)
	}
	var w traffic
	var setups []float64
	for i := 0; i < c.setups; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(c); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Collect each set-up's garbage before the next, so the peak RSS
		// does not hinge on when the collector happened to run.
		runtime.GC()
	}
	defer w.close()
	o, err := w.run(d, nil)
	res := &result{Correct: err == nil, Metrics: map[string]metric{}}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", c.workload, err)
		if o == nil {
			o = &outcome{attempted: 1, failed: 1}
		}
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["cpu_ms_per_op"] = metric{o.cpuMsPerOp(), "ms"}
	var p50 float64
	if len(o.lat) > 0 {
		p50 = median(o.lat)
	}
	m["p50_ms"] = metric{p50, "ms"}
	m["archive_bytes_per_snap"] = metric{o.archivePerSnap, "B"}
	m["store_bytes_per_point"] = metric{o.storePerPoint, "B"}
	// Throughput and the tail are printed but not gated: on a shared
	// VM, CPU steal moves them by 20-40% between identical runs.
	tail := "p99 refused"
	if p99, err := quantile(o.lat, 0.99); err == nil {
		tail = fmt.Sprintf("p99 %.3f ms", p99)
	} else if !c.small {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops at %.1f/s; latency n=%d p50 %.3f ms, %s\n",
		c.workload, c.seed, o.ops, o.opsPerSec, len(o.lat), p50, tail)
	return res, nil
}

// cpuMsPerOp is process CPU milliseconds per operation in the measured
// windows — the paper's own cost unit, and unlike wall time not
// inflated by another tenant taking the CPU.
func (o *outcome) cpuMsPerOp() float64 {
	if o.ops == 0 {
		return 0
	}
	return ms(o.proc.cpu) / float64(o.ops)
}

// procSample is the process's resource use at one instant.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	alloc   uint64
	gc      uint32
}

// sub and add combine samples into the use over a window.
func (p procSample) sub(q procSample) procSample {
	return procSample{p.cpu - q.cpu, p.mallocs - q.mallocs, p.alloc - q.alloc, p.gc - q.gc}
}

func (p procSample) add(q procSample) procSample {
	return procSample{p.cpu + q.cpu, p.mallocs + q.mallocs, p.alloc + q.alloc, p.gc + q.gc}
}

func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, alloc: ms.TotalAlloc, gc: ms.NumGC,
	}
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// perLayer lists the per-layer metrics of the traced run, with units.
var perLayer = []struct{ name, unit string }{
	{"codec.decode_us", "us"}, {"codec.wire_bytes", "B"},
	{"broker.publish_us", "us"}, {"broker.deliver_ms", "ms"}, {"broker.queue_depth_max", "count"},
	{"realtime.monitor_us", "us"}, {"realtime.overhead_us", "us"},
	{"rawfile.append_us", "us"},
	{"tsdb.ingest_us", "us"}, {"tsdb.ingest_max_ms", "ms"}, {"tsdb.points_per_snap", "count"},
	{"etl.feed_us", "us"}, {"etl.feed_max_ms", "ms"}, {"etl.jobs_finalized", "count"},
	{"tsdb.latest_us", "us"}, {"tsdb.topn_hot_us", "us"}, {"tsdb.do_span_us", "us"},
	{"tsdb.do_cold_ms", "ms"}, {"tsdb.topn_cold_ms", "ms"},
	{"segstore.index_fullscans", "count"}, {"segstore.blockcache_hit_ratio", "ratio"},
	{"reldb.query_us", "us"}, {"reldb.topn_us", "us"},
	{"portal.serve_us", "us"}, {"portal.render_us", "us"}, {"portal.resp_bytes", "B"},
	{"portal.cache_hit_ratio", "ratio"},
	{"live.dash_p50_ms", "ms"}, {"live.dash_p90_ms", "ms"}, {"loadgen.late_p99_ms", "ms"},
	{"process.cpu_us_per_op", "us"}, {"process.mallocs_per_op", "count"},
	{"process.alloc_kb_per_op", "kB"}, {"process.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"e2e.ops_per_s", "1/s"}, {"e2e.p99_ms", "ms"},
}

// spanMetrics maps per-layer metrics to the span whose mean (or max)
// self time they report.
var spanMetrics = []struct {
	metric, span string
	max          bool
	scale        float64 // microseconds per unit
}{
	{"codec.decode_us", "codec.decode", false, 1},
	{"broker.publish_us", "broker.publish", false, 1},
	{"realtime.monitor_us", "realtime.monitor", false, 1},
	{"rawfile.append_us", "rawfile.append", false, 1},
	{"tsdb.ingest_us", "tsdb.ingest", false, 1},
	{"tsdb.ingest_max_ms", "tsdb.ingest", true, 1000},
	{"etl.feed_us", "etl.feed", false, 1},
	{"etl.feed_max_ms", "etl.feed", true, 1000},
	{"tsdb.latest_us", "tsdb.latest", false, 1},
	{"tsdb.topn_hot_us", "tsdb.topn_hot", false, 1},
	{"tsdb.do_span_us", "tsdb.do_span", false, 1},
	{"tsdb.do_cold_ms", "tsdb.do_cold", false, 1000},
	{"tsdb.topn_cold_ms", "tsdb.topn_cold", false, 1000},
	{"reldb.query_us", "reldb.query", false, 1},
	{"reldb.topn_us", "reldb.topn", false, 1},
	{"portal.serve_us", "portal.serve", false, 1},
}

// tracedRun runs the workload twice on fresh set-ups, untraced for the
// full time (so the dashboard's p90 has its hundred samples) then traced
// for half of it, and reports per-layer metrics: self times from the
// traced run, process costs and load-generator figures from the
// untraced one.
func tracedRun(c config, d time.Duration) (*result, error) {
	runFor := func(d time.Duration, tr *tracer) (*outcome, error) {
		w, err := newWorkload(c)
		if err != nil {
			return nil, err
		}
		defer w.close()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return w.run(d, tr)
	}
	plain, err := runFor(d, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	tr := newTracer()
	traced, err := runFor(d/2, tr)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	st := tr.stats()

	m := map[string]metric{}
	vals := map[string]float64{}
	for k, v := range traced.layer {
		vals[k] = v
	}
	for k, v := range plain.layer {
		switch k {
		case "live.dash_p50_ms", "live.dash_p90_ms", "loadgen.late_p99_ms":
			vals[k] = v
		}
	}
	for _, sm := range spanMetrics {
		l := st[sm.span]
		v := us(l.MeanSelf())
		if sm.max {
			v = us(l.SelfMax)
		}
		vals[sm.metric] = v / sm.scale
	}
	if plain.listenerUs > 0 {
		sum := 0.0
		for _, n := range []string{"realtime.monitor", "rawfile.append", "tsdb.ingest", "etl.feed"} {
			sum += us(st[n].MeanSelf())
		}
		vals["realtime.overhead_us"] = plain.listenerUs - sum
	}
	if len(traced.renderIDs) > 0 {
		vals["portal.render_us"] = tr.renderUs(traced.renderIDs)
	}
	if ops := float64(plain.ops); ops > 0 {
		p := plain.proc
		vals["process.cpu_us_per_op"] = us(p.cpu) / ops
		vals["process.mallocs_per_op"] = float64(p.mallocs) / ops
		vals["process.alloc_kb_per_op"] = float64(p.alloc) / 1024 / ops
		vals["process.gc_cycles"] = float64(p.gc)
	}
	vals["e2e.ops_per_s"] = plain.opsPerSec
	if v, err := quantile(plain.lat, 0.99); err == nil {
		vals["e2e.p99_ms"] = v
	}
	// Tracing overhead: what recording the spans costs, as a share of
	// the CPU the traced windows used.
	if traced.proc.cpu > 0 {
		vals["trace.overhead_pct"] = 100 * float64(traced.spans) * float64(spanCost()) / float64(traced.proc.cpu)
	}
	for _, pl := range perLayer {
		m[pl.name] = metric{vals[pl.name], pl.unit}
	}

	writeTable(os.Stderr, c.workload, st)
	fmt.Fprintf(os.Stderr, "%-10s tracing overhead %.2f%% of CPU (%d spans); CPU per op %.3f ms traced vs %.3f ms untraced\n",
		c.workload, vals["trace.overhead_pct"], traced.spans, traced.cpuMsPerOp(), plain.cpuMsPerOp())
	path := filepath.Join(c.workdir, fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%-10s spans written to %s\n", c.workload, path)
	return &result{Correct: true, Attempted: plain.attempted + traced.attempted,
		Failed: plain.failed + traced.failed, Metrics: m}, nil
}
