package main

import (
	"fmt"
	"sync"
	"time"

	"gostats/internal/broker"
	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/rawfile"
	"gostats/internal/realtime"
)

// onDecoded records a message leaving the wire codec.
func (s *stack) onDecoded(wireBytes int) {
	now := time.Now()
	s.tapMu.Lock()
	s.decodeAt = append(s.decodeAt, now)
	s.wireBytes += int64(wireBytes)
	s.tapMu.Unlock()
}

// onTap records a snapshot entering the OnSnapshot tap (archived and
// queryable) and checks it is the next one of the stream: delivery is
// FIFO on one connection and the consumer is serial.
func (s *stack) onTap(snap model.Snapshot) {
	now := time.Now()
	s.tapMu.Lock()
	k := s.taps
	if s.tapErr == nil && (k >= len(s.st.snaps) || snap.Host != s.st.snaps[k].Host || snap.Time != s.st.snaps[k].Time) {
		s.tapErr = fmt.Errorf("tap %d delivered %s@%g out of stream order", k, snap.Host, snap.Time)
	}
	s.tapAt = append(s.tapAt, now)
	s.taps++
	s.tapCond.Broadcast()
	s.tapMu.Unlock()
}

// startListener connects a realtime.Listener to the broker, wired as
// listend wires it, with the assembler on its snapshot tap as
// simcluster wires it.
func (s *stack) startListener() error {
	cons, err := broker.DialConsumer(s.addr, broker.StatsQueue)
	if err != nil {
		return err
	}
	s.lis = &realtime.Listener{
		Cons:      cons,
		Monitor:   s.mon,
		Store:     s.store,
		Registry:  s.st.reg,
		Headers:   s.header,
		Ingest:    s.ing,
		Metrics:   s.met,
		OnDecoded: func(_ codec.Version, n int) { s.onDecoded(n) },
		OnSnapshot: func(snap model.Snapshot) {
			s.asm.Feed(snap)
			s.onTap(snap)
		},
	}
	s.lisDone = make(chan error, 1)
	go func() { s.lisDone <- s.lis.Run() }()
	return nil
}

// ownConsumer is the traced stand-in for Listener.Run: it consumes from
// the broker itself and calls the same public functions in listend's
// stage order, each inside its own span.
type ownConsumer struct {
	s    *stack
	cons *broker.Consumer
	arch *rawfile.Archiver
	n    int // messages consumed
}

func (s *stack) newOwnConsumer(queue string) (*ownConsumer, error) {
	cons, err := broker.DialConsumer(s.addr, queue)
	if err != nil {
		return nil, err
	}
	return &ownConsumer{s: s, cons: cons, arch: rawfile.NewArchiver(s.store, 0)}, nil
}

// consume processes the next n messages: deliver → decode → monitor →
// archive → ingest → assemble → ack, acking only after every layer
// accepted the snapshot, as Listener.Run does.
func (c *ownConsumer) consume(n int, tr *tracer) error {
	s := c.s
	for end := c.n + n; c.n < end; c.n++ {
		i := c.n
		root := tr.begin("snapshot", i, -1)
		sp := tr.begin("broker.deliver", i, root)
		body, err := c.cons.NextNoAck()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("consume message %d: %w", i, err)
		}
		sp = tr.begin("codec.decode", i, root)
		snap, _, err := broker.DecodeSnapshotWire(body, s.st.reg)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("decode message %d: %w", i, err)
		}
		s.onDecoded(len(body))
		sp = tr.begin("realtime.monitor", i, root)
		s.mon.Process(snap)
		tr.end(sp)
		sp = tr.begin("rawfile.append", i, root)
		err = c.arch.Append(snap.Host, s.header(snap.Host), snap)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("archive message %d: %w", i, err)
		}
		sp = tr.begin("tsdb.ingest", i, root)
		err = s.ing.Ingest(snap)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("ingest message %d: %w", i, err)
		}
		sp = tr.begin("etl.feed", i, root)
		s.asm.Feed(snap)
		tr.end(sp)
		s.onTap(snap)
		sp = tr.begin("broker.ack", i, root)
		err = c.cons.Ack()
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("ack message %d: %w", i, err)
		}
	}
	return nil
}

// close flushes the archive and drops the connection.
func (c *ownConsumer) close() error {
	err := c.arch.Close()
	c.cons.Close()
	return err
}

// preloadQueue carries the live workload's preloaded hours. The
// broker hands a message to a consumer that was waiting on the queue
// even after that consumer hung up, then requeues it behind later ones;
// a queue of its own keeps the preload consumer's stale wait away from
// the measured stream's order.
const preloadQueue = broker.StatsQueue + ".preload"

// publisher publishes pre-encoded messages on one broker connection.
type publisher struct {
	c     *broker.Client
	queue string
	// at[i] is when message i was handed to the connection.
	at []time.Time
}

func (s *stack) newPublisher(queue string, n int) (*publisher, error) {
	c, err := broker.Dial(s.addr)
	if err != nil {
		return nil, err
	}
	c.Codec = codec.V1Text
	return &publisher{c: c, queue: queue, at: make([]time.Time, n)}, nil
}

// publish sends stream message i, recorded as the k-th publish.
func (p *publisher) publish(s *stack, k, i int, tr *tracer) error {
	sp := tr.begin("broker.publish", i, -1)
	err := p.c.Publish(p.queue, s.st.wire[i])
	tr.end(sp)
	p.at[k] = time.Now()
	return err
}

// depthSampler records the broker's peak queue depth while it runs.
type depthSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  int
}

func (s *stack) sampleDepth() *depthSampler {
	d := &depthSampler{stop: make(chan struct{})}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				if q := s.srv.QueueDepth(broker.StatsQueue); q > d.max {
					d.max = q
				}
			}
		}
	}()
	return d
}

// done stops the sampler and returns the peak depth.
func (d *depthSampler) done() int {
	close(d.stop)
	d.wg.Wait()
	return d.max
}
