package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gostats/internal/broker"
	"gostats/internal/telemetry"
)

// live is daemon mode's steady state, an open loop on two sides:
// snapshots published at a fixed rate (well below backfill's capacity),
// and a dashboard client refreshing a fixed panel set at a fixed rate on
// one keep-alive connection, with writes beside reads on the shared
// tsdb stripes. Freshness (due time at the generator → the OnSnapshot
// tap, where the snapshot is archived and queryable) is its latency.
type live struct {
	cfg     config
	st      *stream
	stk     *stack
	preload int
}

// setup generates the stream, builds the composition and loads the
// first six simulated hours through it, so dashboard panels span the
// hot/cold boundary from the first refresh.
func (l *live) setup() error {
	st, err := genStream(l.cfg.seed, l.cfg.hosts, l.cfg.span)
	if err != nil {
		return err
	}
	l.st = st
	if l.stk, err = newStack(filepath.Join(l.cfg.workdir, "live"), st); err != nil {
		return err
	}
	if err := l.stk.startBroker(); err != nil {
		return err
	}
	if err := l.stk.startPortal(); err != nil {
		return err
	}
	l.preload = l.cfg.hosts * 36
	if l.preload > len(st.wire)/2 {
		l.preload = len(st.wire) / 2
	}
	pub, err := l.stk.newPublisher(preloadQueue, l.preload)
	if err != nil {
		return err
	}
	defer pub.c.Close()
	cons, err := l.stk.newOwnConsumer(preloadQueue)
	if err != nil {
		return err
	}
	for i := 0; i < l.preload; i++ {
		if err := pub.publish(l.stk, i, i, nil); err != nil {
			cons.close()
			return err
		}
	}
	if err := cons.consume(l.preload, nil); err != nil {
		cons.close()
		return err
	}
	return cons.close()
}

func (l *live) close() {
	if l.stk != nil {
		l.stk.close()
	}
}

// panels is dashboard refresh j at stream time now: current CPU gauges,
// the top five hosts over the last hour, one host's six-hour series
// (across the hot/cold boundary) and the longest jobs.
func (l *live) panels(j int, now float64) []req {
	h := l.st.hosts[j%len(l.st.hosts)]
	return []req{
		{path: "/api/v1/gauges?devtype=cpu&device=0&event=user", span: "tsdb.latest"},
		{path: fmt.Sprintf("/api/v1/top/hosts?n=5&agg=avg&devtype=cpu&event=user&start=%g&end=%g", now-3600, now),
			span: "tsdb.topn_hot"},
		{path: fmt.Sprintf("/api/v1/metrics?host=%s&devtype=cpu&event=user&agg=sum&step=600&start=%g&end=%g",
			h, now-6*3600, now), span: "tsdb.do_span"},
		{path: "/api/v1/top/jobs?field=runtime&n=10", span: "reldb.topn"},
	}
}

func (l *live) run(d time.Duration, tr *tracer) (*outcome, error) {
	stk := l.stk
	o := &outcome{layer: map[string]float64{}}
	n := int(liveRate * d.Seconds())
	if l.preload+n > len(l.st.wire) {
		n = len(l.st.wire) - l.preload
	}
	total := l.preload + n
	o.attempted = n
	// The measured snapshots go through the real listener runtime, or,
	// traced, through the benchmark's own consumer.
	var cons *ownConsumer
	var err error
	if tr == nil {
		err = stk.startListener()
	} else {
		cons, err = stk.newOwnConsumer(broker.StatsQueue)
	}
	if err != nil {
		return nil, err
	}
	stk.tr = tr
	pub, err := stk.newPublisher(broker.StatsQueue, n)
	if err != nil {
		if cons != nil {
			cons.close()
		}
		return nil, err
	}
	defer pub.c.Close()

	runtime.GC()
	p0, s0 := sampleProc(), tr.count()
	start := time.Now().Add(20 * time.Millisecond)
	consErr := make(chan error, 1)
	if cons != nil {
		go func() { consErr <- cons.consume(n, tr) }()
	}
	stop := make(chan struct{})
	var dash dashboard
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dash.run(l, start, stop, tr)
	}()
	late := make([]float64, n)
	var pubErr error
	pace(start, n, liveRate, func(i int, due time.Time) bool {
		late[i] = ms(time.Since(due))
		pubErr = pub.publish(stk, i, l.preload+i, tr)
		return pubErr == nil
	})
	if pubErr != nil {
		stk.srv.Close() // unblocks the consumer
	}
	if cons != nil {
		err = <-consErr
	} else {
		err = stk.waitTaps(total, 60*time.Second)
	}
	close(stop)
	wg.Wait()
	o.proc, o.spans = sampleProc().sub(p0), tr.count()-s0
	if err == nil {
		err = pubErr
	}
	if err == nil {
		err = dash.err
	}
	o.failed = dash.failed
	if err != nil {
		if cons != nil {
			cons.close()
		}
		o.failed += total - stk.tapped()
		return o, err
	}
	o.attempted += dash.requests

	for i := 0; i < n; i++ {
		o.lat = append(o.lat, ms(stk.tapAt[l.preload+i].Sub(dueAt(start, i, liveRate))))
	}
	o.ops = n
	o.opsPerSec = float64(n) / stk.tapAt[total-1].Sub(start).Seconds()
	o.layer["broker.deliver_ms"] = meanGap(pub.at, stk.decodeAt, l.preload)
	if v, err := quantile(late, 0.99); err == nil {
		o.layer["loadgen.late_p99_ms"] = v
	}
	if v, err := quantile(dash.lat, 0.5); err == nil {
		o.layer["live.dash_p50_ms"] = v
	}
	if v, err := quantile(dash.lat, 0.9); err == nil {
		o.layer["live.dash_p90_ms"] = v
	}
	o.layer["portal.resp_bytes"] = dash.bytes / float64(dash.requests)
	o.layer["portal.cache_hit_ratio"] = stk.portalHitRatio()

	// Writes are done: the last refresh's panels must equal direct store
	// calls, and the write path must have archived, stored and assembled
	// exactly the published stream.
	var paths []string
	for _, p := range l.panels(dash.refreshes, l.st.snaps[total-1].Time) {
		paths = append(paths, p.path)
	}
	if err := stk.checkParity(paths); err != nil {
		return o, err
	}
	if err := stk.finishIngest(l.preload, total, l.preload+stk.processed(cons), cons, true, o); err != nil {
		return o, err
	}
	return o, nil
}

// dashboard is the live workload's reader.
type dashboard struct {
	lat       []float64 // per refresh, from due time to the last body read
	requests  int
	refreshes int
	failed    int
	bytes     float64
	err       error
}

// run refreshes the panel set every 1/dashRate seconds until stop.
func (db *dashboard) run(l *live, start time.Time, stop chan struct{}, tr *tracer) {
	c := newWebClient(l.stk.webURL)
	defer c.close()
	id := 0
	pace(start, 1<<30, dashRate, func(j int, due time.Time) bool {
		select {
		case <-stop:
			return false
		default:
		}
		k := int(due.Sub(start).Seconds() * liveRate)
		if k >= len(l.st.snaps)-l.preload {
			k = len(l.st.snaps) - l.preload - 1
		}
		if k < 0 {
			k = 0
		}
		now := l.st.snaps[l.preload+k].Time
		for _, p := range l.panels(j, now) {
			id++
			db.requests++
			sp := tr.begin("request", id, -1)
			body, err := c.get(p.path, id, sp)
			tr.end(sp)
			if err != nil {
				db.failed++
				if db.err == nil {
					db.err = err
				}
				return false
			}
			db.bytes += float64(len(body))
			if tr != nil {
				sp := tr.begin(p.span, id, -1)
				_, err := l.stk.direct(p.path)
				tr.end(sp)
				if err != nil && db.err == nil {
					db.err = err
				}
			}
		}
		db.lat = append(db.lat, ms(time.Since(due)))
		db.refreshes = j + 1
		return true
	})
}

// portalHitRatio is the portal response cache's hits ÷ lookups.
func (s *stack) portalHitRatio() float64 {
	var hits, misses float64
	for name, v := range telemetry.ParseExposition(s.met.Exposition()) {
		switch {
		case strings.HasPrefix(name, "gostats_portal_cache_hits_total"):
			hits += v
		case strings.HasPrefix(name, "gostats_portal_cache_misses_total"):
			misses += v
		}
	}
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
