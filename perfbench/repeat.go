package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the repeat report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// bounds reads each end-to-end metric's bound from BENCHMARK.json in the
// working directory; without the file no bound is checked.
func bounds() map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	var spec benchSpec
	if json.Unmarshal(b, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

// repeatRuns runs the workload n times, each in a fresh child process,
// and reports every metric's median and quartiles. It flags a metric
// whose quartile spread exceeds its bound, and — with one seed for all
// runs — a byte or count metric that does not repeat exactly.
func repeatRuns(c config, n int, traced, sameSeed bool, size string) error {
	if c.workload == "" {
		return fmt.Errorf("-repeat needs -workload")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := c.seed
		if !sameSeed {
			seed += int64(i)
		}
		cmd := exec.Command(self, "-workload", c.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", trace,
			"-workdir", c.workdir, "-size", size)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): output check failed", i+1, seed)
		}
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "repeat %d/%d seed %d: %s\n", i+1, n, seed, lines[len(lines)-1])
	}
	bound := bounds()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s: %d runs\n%-32s %-6s %12s %12s %12s %8s %6s  %s\n",
		c.workload, n, "metric", "unit", "q1", "median", "q3", "spread", "bound", "flag")
	names := make([]string, 0, len(units))
	for k := range units {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := vals[k]
		q1, q2, q3 := quartiles(v)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		flag := ""
		b, ok := bound[k]
		if ok && k != "setup_s" && spread > b {
			flag = "SPREAD>BOUND"
		} else if ok && k != "setup_s" && spread > b/3 {
			flag = "spread>bound/3"
		}
		if sameSeed && (units[k] == "B" || units[k] == "count") {
			for _, x := range v {
				if x != v[0] {
					flag += " NOT-EXACT"
					break
				}
			}
		}
		bs := "-"
		if ok {
			bs = strconv.FormatFloat(b, 'g', -1, 64)
		}
		fmt.Fprintf(&buf, "%-32s %-6s %12.4g %12.4g %12.4g %7.1f%% %6s  %s\n",
			k, units[k], q1, q2, q3, 100*spread, bs, flag)
	}
	fmt.Print(buf.String())
	return nil
}
