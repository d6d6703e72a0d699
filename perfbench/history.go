package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gostats/internal/rawfile"
	"gostats/internal/schema"
)

// history is the analyst browsing job history (the paper's Figs 3–5):
// a closed loop of clients over a store built in set-up and left idle,
// mostly cold (2 h hot out of the whole span). It exercises the segment
// index, the block cache, the tsdb scans, the reldb plans and portal
// rendering; a stated share of requests repeats a recent URL so it hits
// the portal cache by construction.
type history struct {
	cfg  config
	st   *stream
	stk  *stack
	reqs []req
}

// repeatShare is the share of history requests that repeat one of the
// last repeatWindow URLs (well inside the portal cache's 512 entries).
const (
	repeatShare  = 0.2
	repeatWindow = 200
	historyReqs  = 1 << 16
)

// setup generates the stream and loads it straight through the write
// path's public calls — archive, tsdb ingest, assembler — then serves
// the portal.
func (h *history) setup() error {
	st, err := genStream(h.cfg.seed, h.cfg.hosts, h.cfg.span)
	if err != nil {
		return err
	}
	h.st = st
	if h.stk, err = newStack(filepath.Join(h.cfg.workdir, "history"), st); err != nil {
		return err
	}
	s := h.stk
	arch := rawfile.NewArchiver(s.store, 0)
	for _, snap := range st.snaps {
		if err := arch.Append(snap.Host, s.header(snap.Host), snap); err != nil {
			arch.Close()
			return err
		}
		if err := s.ing.Ingest(snap); err != nil {
			arch.Close()
			return err
		}
		s.asm.Feed(snap)
	}
	if err := arch.Close(); err != nil {
		return err
	}
	s.asm.Flush()
	if err := s.asm.Err(); err != nil {
		return err
	}
	// Old history sits in sealed, indexed segments, as after a listend
	// restart.
	if err := s.cold.Seal(); err != nil {
		return err
	}
	h.reqs = historyRequests(h.cfg.seed, st, s.rdb.Len(), historyReqs)
	return s.startPortal()
}

func (h *history) close() {
	if h.stk != nil {
		h.stk.close()
	}
}

// historyRequests is the deterministic request sequence: metric range
// queries and host rankings over cold windows, job list pages and job
// rankings, and repeats of recent URLs. What drives a request's cost —
// its kind, window length, grouping, host filter and probed counter —
// cycles through a fixed pattern, so every seed's sequence has the same
// cost mix and seeds differ only in windows, hosts and parameters.
func historyRequests(seed int64, st *stream, jobs, n int) []req {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	type probe struct{ class, event string }
	var probes []probe
	for _, c := range []schema.Class{schema.ClassCPU, schema.ClassMem, schema.ClassLlite, schema.ClassIB, schema.ClassNet} {
		sch := st.reg.Get(c)
		if sch == nil {
			continue
		}
		for i, e := range sch.Events {
			if i < 3 {
				probes = append(probes, probe{string(c), e.Name})
			}
		}
	}
	coldEnd := st.span - hotWindow
	lengths := []float64{3600, 3 * 3600, 6 * 3600, 12 * 3600}
	window := func(k int) (float64, float64) {
		length := math.Min(lengths[k%len(lengths)], coldEnd)
		start := math.Floor(rng.Float64()*(coldEnd-length)/600) * 600
		return start, start + length
	}
	// M metric range query, T top hosts, J job page, Q top jobs.
	const pattern = "MMTJMQMJTMJM"
	orders := []string{"-runtime", "starttime", "-nodes", "-cpu_usage", "nodehours"}
	fields := []string{"runtime", "nodehours", "cpu_usage", "memusage", "flops"}
	seen := map[string]bool{}
	out := make([]req, 0, n)
	var kinds, mi, ti, ji, qi int
	for len(out) < n {
		var r req
		if rng.Float64() < repeatShare && len(out) > 0 {
			lo := len(out) - repeatWindow
			if lo < 0 {
				lo = 0
			}
			r = out[lo+rng.Intn(len(out)-lo)]
		} else {
			switch pattern[kinds%len(pattern)] {
			case 'M':
				p := probes[mi%len(probes)]
				start, end := window(mi)
				host := ""
				if mi%2 == 0 {
					host = "&host=" + st.hosts[rng.Intn(len(st.hosts))]
				}
				r = req{path: fmt.Sprintf("/api/v1/metrics?devtype=%s&event=%s%s&agg=%s&step=%d&start=%g&end=%g&group_by=%s",
					p.class, p.event, host, []string{"avg", "max", "sum"}[rng.Intn(3)],
					[]int{600, 3600}[rng.Intn(2)], start, end, []string{"", "host", "device"}[mi%3]),
					span: "tsdb.do_cold"}
				mi++
			case 'T':
				p := probes[ti%len(probes)]
				start, end := window(ti)
				r = req{path: fmt.Sprintf("/api/v1/top/hosts?devtype=%s&event=%s&n=%d&agg=%s&start=%g&end=%g",
					p.class, p.event, []int{5, 10}[rng.Intn(2)], []string{"avg", "max"}[rng.Intn(2)], start, end),
					span: "tsdb.topn_cold"}
				ti++
			case 'J':
				off := 0
				if jobs > 20 {
					off = rng.Intn(jobs/20) * 20
				}
				r = req{path: fmt.Sprintf("/api/v1/jobs?order_by=%s&offset=%d&limit=20", orders[ji%len(orders)], off),
					span: "reldb.query"}
				ji++
			default:
				r = req{path: fmt.Sprintf("/api/v1/top/jobs?field=%s&n=10&order=%s",
					fields[qi%len(fields)], []string{"top", "bottom"}[rng.Intn(2)]), span: "reldb.topn"}
				qi++
			}
			kinds++
		}
		r.first = !seen[r.path]
		seen[r.path] = true
		out = append(out, r)
	}
	return out
}

func (h *history) run(d time.Duration, tr *tracer) (*outcome, error) {
	s := h.stk
	s.tr = tr
	o := &outcome{layer: map[string]float64{}, renderIDs: map[int]bool{}}
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var bytes float64
	var wg sync.WaitGroup
	runtime.GC()
	p0, s0 := sampleProc(), tr.count()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < historyClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := newWebClient(s.webURL)
			defer wc.close()
			// Latency is taken over the first request for each URL: the
			// repeats are portal-cache hits by construction, and a median
			// over them reads a sub-millisecond path that swings with
			// scheduler wake-ups rather than with the code.
			var lat []float64
			var got float64
			var sent, failed int
			var err1 error
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := h.reqs[i%len(h.reqs)]
				sent++
				t0 := time.Now()
				sp := tr.begin("request", i, -1)
				body, err := wc.get(r.path, i, sp)
				tr.end(sp)
				if err != nil {
					lat = append(lat, math.Inf(1))
					failed++
					if err1 == nil {
						err1 = err
					}
					continue
				}
				if r.first {
					lat = append(lat, ms(time.Since(t0)))
				}
				got += float64(len(body))
				if tr != nil {
					sp := tr.begin(r.span, i, -1)
					_, err := s.direct(r.path)
					tr.end(sp)
					if err != nil && err1 == nil {
						err1 = err
					}
				}
			}
			mu.Lock()
			o.lat = append(o.lat, lat...)
			o.attempted += sent
			o.failed += failed
			bytes += got
			if firstErr == nil {
				firstErr = err1
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	o.proc, o.spans = sampleProc().sub(p0), tr.count()-s0
	o.ops = o.attempted - o.failed
	o.opsPerSec = float64(o.ops) / time.Since(start).Seconds()
	if firstErr != nil {
		return o, firstErr
	}
	if o.ops == 0 {
		return o, fmt.Errorf("no request completed")
	}
	for i := 0; i < o.attempted && i < len(h.reqs); i++ {
		if h.reqs[i].first {
			o.renderIDs[i] = true
		}
	}
	o.layer["portal.resp_bytes"] = bytes / float64(o.ops)
	o.layer["portal.cache_hit_ratio"] = s.portalHitRatio()
	idx := float64(s.counter("gostats_segstore_index_hits_total"))
	o.layer["segstore.index_fullscans"] = float64(s.counter("gostats_segstore_index_fullscans_total"))
	if hits, misses := float64(s.counter("gostats_segstore_blockcache_hits_total")),
		float64(s.counter("gostats_segstore_blockcache_misses_total")); hits+misses > 0 {
		o.layer["segstore.blockcache_hit_ratio"] = hits / (hits + misses)
	}
	if idx == 0 {
		return o, fmt.Errorf("no cold read used the segment index")
	}

	// The store is idle: a sample of distinct answers must equal direct
	// store calls, and what set-up loaded must be intact.
	var sample []string
	for _, r := range h.reqs {
		if r.first && len(sample) < 40 {
			sample = append(sample, r.path)
		}
	}
	if err := s.checkParity(sample); err != nil {
		return o, err
	}
	n := len(h.st.snaps)
	if err := s.checkTSDB(n); err != nil {
		return o, err
	}
	if err := s.checkArchive(n); err != nil {
		return o, err
	}
	if err := s.checkEquivalence(); err != nil {
		return o, err
	}
	archived, err := dirBytes(s.store.Root())
	if err != nil {
		return o, err
	}
	points := s.counter("gostats_segstore_appended_total")
	if err := s.sealCold(); err != nil {
		return o, err
	}
	stored, err := dirBytes(filepath.Join(s.dir, "tsdata"))
	if err != nil {
		return o, err
	}
	o.archivePerSnap = float64(archived) / float64(n)
	o.storePerPoint = float64(stored) / float64(points)
	return o, nil
}
