package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"gostats/internal/broker"
)

// backfill is the saturating replay: the whole pre-encoded stream is
// published on one broker connection as fast as the broker takes it and
// drained by the listener — spool or cron catch-up, capacity planning.
// Every write-path layer is on the critical path; nothing queries.
// Each round replays the stream into a fresh composition; rounds repeat
// until the measured time is used up and the median round is reported.
type backfill struct {
	cfg config
	st  *stream
	stk *stack // the next round's composition
}

func (b *backfill) setup() error {
	st, err := genStream(b.cfg.seed, b.cfg.hosts, b.cfg.span)
	if err != nil {
		return err
	}
	b.st = st
	b.stk, err = b.newRound()
	return err
}

func (b *backfill) newRound() (*stack, error) {
	stk, err := newStack(filepath.Join(b.cfg.workdir, "backfill"), b.st)
	if err != nil {
		return nil, err
	}
	if err := stk.startBroker(); err != nil {
		stk.close()
		return nil, err
	}
	return stk, nil
}

func (b *backfill) close() {
	if b.stk != nil {
		b.stk.close()
		b.stk = nil
	}
}

func (b *backfill) run(d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	n := len(b.st.wire)
	var listen []float64
	var measured time.Duration
	// Round 0 warms the heap and the page cache and runs the full output
	// checks; it is not measured.
	for round := 0; round < 2 || measured < d; round++ {
		if b.stk == nil {
			stk, err := b.newRound()
			if err != nil {
				return o, err
			}
			b.stk = stk
		}
		elapsed, err := b.round(b.stk, tr, round == 0, o)
		b.stk.close()
		b.stk = nil
		if err != nil {
			return o, err
		}
		if round == 0 {
			o.lat = o.lat[:0]
			continue
		}
		measured += elapsed
		o.ops += n
		listen = append(listen, o.listenerUs)
	}
	o.opsPerSec = float64(o.ops) / measured.Seconds()
	o.listenerUs = median(listen)
	return o, nil
}

// round publishes the whole stream into stk and waits for the last
// snapshot to reach the tap; it returns first publish → last tap.
func (b *backfill) round(stk *stack, tr *tracer, fullChecks bool, o *outcome) (time.Duration, error) {
	n := len(b.st.wire)
	o.attempted += n
	pub, err := stk.newPublisher(broker.StatsQueue, n)
	if err != nil {
		return 0, err
	}
	defer pub.c.Close()
	var cons *ownConsumer
	if tr == nil {
		err = stk.startListener()
	} else {
		cons, err = stk.newOwnConsumer(broker.StatsQueue)
	}
	if err != nil {
		return 0, err
	}
	var depth *depthSampler
	if tr != nil {
		depth = stk.sampleDepth()
	}
	runtime.GC() // every round starts from the same heap state
	p0, s0 := sampleProc(), tr.count()
	t0 := time.Now()
	pubErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := pub.publish(stk, i, i, tr); err != nil {
				stk.srv.Close() // unblocks the consumer
				pubErr <- err
				return
			}
		}
		pubErr <- nil
	}()
	if cons != nil {
		err = cons.consume(n, tr)
	} else {
		err = stk.waitTaps(n, 60*time.Second)
	}
	if perr := <-pubErr; err == nil {
		err = perr
	}
	if depth != nil {
		o.layer["broker.queue_depth_max"] = float64(depth.done())
	}
	if err != nil {
		if cons != nil {
			cons.close()
		}
		o.failed += n - stk.tapped()
		return 0, err
	}
	elapsed := stk.tapAt[n-1].Sub(t0)
	if !fullChecks {
		o.proc = o.proc.add(sampleProc().sub(p0))
		o.spans += tr.count() - s0
	}
	o.layer["broker.deliver_ms"] = meanGap(pub.at, stk.decodeAt, 0)
	if err := stk.finishIngest(0, n, stk.processed(cons), cons, fullChecks, o); err != nil {
		return 0, err
	}
	// Latency under saturation is queue length, so the latency samples
	// are each snapshot's service time inside the listener: out of the
	// codec → into the tap, with exactly one snapshot in flight.
	for i := 0; i < n; i++ {
		o.lat = append(o.lat, ms(stk.tapAt[i].Sub(stk.decodeAt[i])))
	}
	return elapsed, nil
}

// processed is how many messages the consumer in charge has handled.
func (s *stack) processed(cons *ownConsumer) int {
	if cons != nil {
		return cons.n
	}
	return s.lis.Processed()
}

// meanGap is the mean of to[first+i] − from[i] in milliseconds.
func meanGap(from, to []time.Time, first int) float64 {
	var sum time.Duration
	for i := range from {
		sum += to[first+i].Sub(from[i])
	}
	return ms(sum) / float64(len(from))
}

// finishIngest stops the write path after the first n stream messages,
// runs the output checks and records the mean listener time, byte
// counts and layer counts into o. Messages from first on were published
// in the measured window.
func (s *stack) finishIngest(first, n, processed int, cons *ownConsumer, fullChecks bool, o *outcome) error {
	if cons != nil {
		if err := cons.close(); err != nil {
			return err
		}
	}
	if err := s.checkDelivered(n, processed); err != nil {
		return err
	}
	if err := s.stopIngest(); err != nil {
		return err
	}
	var sum time.Duration
	for i := first; i < n; i++ {
		sum += s.tapAt[i].Sub(s.decodeAt[i])
	}
	o.listenerUs = us(sum) / float64(n-first)
	if fullChecks {
		for _, check := range []func() error{
			func() error { return s.checkTSDB(n) },
			func() error { return s.checkArchive(n) },
			s.checkEquivalence,
		} {
			if err := check(); err != nil {
				return err
			}
		}
	}
	archived, err := dirBytes(s.store.Root())
	if err != nil {
		return err
	}
	points := s.counter("gostats_segstore_appended_total")
	if err := s.sealCold(); err != nil {
		return err
	}
	stored, err := dirBytes(filepath.Join(s.dir, "tsdata"))
	if err != nil {
		return err
	}
	if points == 0 {
		return fmt.Errorf("no points reached the segment store")
	}
	o.archivePerSnap = float64(archived) / float64(n)
	o.storePerPoint = float64(stored) / float64(points)
	o.layer["codec.wire_bytes"] = float64(s.wireBytes) / float64(n)
	o.layer["tsdb.points_per_snap"] = float64(points) / float64(n)
	o.layer["etl.jobs_finalized"] = float64(s.rdb.Len())
	return nil
}
