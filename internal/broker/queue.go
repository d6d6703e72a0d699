package broker

import (
	"slices"
	"sync"

	"gostats/internal/telemetry"
)

// queueMetrics are the telemetry series of one queue, bound at queue
// creation so the message path never takes a registry lookup.
type queueMetrics struct {
	depth       *telemetry.Gauge
	inflight    *telemetry.Gauge
	waiters     *telemetry.Gauge
	published   *telemetry.Counter
	delivered   *telemetry.Counter
	redelivered *telemetry.Counter
	acked       *telemetry.Counter
}

func newQueueMetrics(reg *telemetry.Registry, name string) *queueMetrics {
	return &queueMetrics{
		depth: reg.Gauge("gostats_broker_queue_depth",
			"Backlogged messages per queue (delivered but unacked ones are in gostats_broker_inflight).", "queue", name),
		inflight: reg.Gauge("gostats_broker_inflight",
			"Messages delivered to consumers and not yet acked or requeued, per queue.", "queue", name),
		waiters: reg.Gauge("gostats_broker_consumer_waiters",
			"Consumers blocked waiting for a message per queue. Zero with a non-zero queue depth means consumers cannot keep up.", "queue", name),
		published: reg.Counter("gostats_broker_published_total",
			"Messages accepted from producers per queue.", "queue", name),
		delivered: reg.Counter("gostats_broker_delivered_total",
			"Messages handed to consumers per queue (redeliveries included).", "queue", name),
		redelivered: reg.Counter("gostats_broker_redelivered_total",
			"Messages requeued after a consumer died, failed an ack or stopped acking holding them.", "queue", name),
		acked: reg.Counter("gostats_broker_acked_total",
			"Messages acknowledged by consumers per queue.", "queue", name),
	}
}

// item is one queued message: the encoded body plus the optional
// (host, seq) dedup identity a fabric publisher stamped on it.
type item struct {
	body []byte
	host string
	seq  uint64
}

// queue is an unbounded FIFO with blocking consumers. Delivery hand-off
// is waiter-based: a push while consumers wait bypasses the backlog and
// lands directly in the oldest waiter's channel.
type queue struct {
	mu      sync.Mutex
	items   []item
	waiters []chan item
	closed  bool

	published   uint64
	delivered   uint64
	redelivered uint64
	acked       uint64
	inflight    uint64

	met *queueMetrics // bound by Server.getQueue; nil falls back to nopQueueMetrics
}

// nopQueueMetrics absorbs updates from queues constructed without a
// server (unit tests); it binds to a throwaway registry.
var nopQueueMetrics = newQueueMetrics(telemetry.NewRegistry(), "")

// mets returns the queue's telemetry series, nil-safe.
func (q *queue) mets() *queueMetrics {
	if q.met == nil {
		return nopQueueMetrics
	}
	return q.met
}

// push enqueues one message (or hands it straight to a waiter). Pushing
// to a closed queue drops the message and reports false.
func (q *queue) push(b item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.published++
	q.mets().published.Inc()
	if !q.handOff(b) {
		q.items = append(q.items, b)
		q.mets().depth.Set(float64(len(q.items)))
	}
	return true
}

// handOff delivers b straight to the oldest waiting consumer, if there
// is one; q.mu must be held.
func (q *queue) handOff(b item) bool {
	if len(q.waiters) == 0 {
		return false
	}
	w := q.waiters[0]
	q.waiters[0] = nil
	q.waiters = q.waiters[1:]
	q.mets().waiters.Set(float64(len(q.waiters)))
	// A waiter channel has capacity 1 and is only ever written once; a
	// cancelled waiter is removed under the same lock, so if it is still
	// in the list it is live.
	w <- b
	q.delivered++
	q.mets().delivered.Inc()
	q.setInflight(q.inflight + 1)
	return true
}

// setInflight updates the in-flight count and its gauge; q.mu must be
// held.
func (q *queue) setInflight(n uint64) {
	q.inflight = n
	q.mets().inflight.Set(float64(n))
}

// requeue returns messages a consumer held unacked to the FRONT of the
// queue, in order (redelivery after it died, failed an ack or stopped
// acking). Waiting consumers are served first, oldest message first.
func (q *queue) requeue(items ...item) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.setInflight(q.inflight - uint64(len(items)))
	if q.closed {
		return
	}
	q.redelivered += uint64(len(items))
	q.mets().redelivered.Add(uint64(len(items)))
	q.putFront(items)
}

// putFront hands items to waiters, oldest first, and splices the rest in
// front of the backlog in one move; q.mu must be held.
func (q *queue) putFront(items []item) {
	for len(items) > 0 && q.handOff(items[0]) {
		items = items[1:]
	}
	q.items = slices.Insert(q.items, 0, items...)
	q.mets().depth.Set(float64(len(q.items)))
}

// ack records a consumer acknowledging n deliveries.
func (q *queue) ack(n int) {
	q.mu.Lock()
	q.acked += uint64(n)
	q.setInflight(q.inflight - uint64(n))
	q.mu.Unlock()
	q.mets().acked.Add(uint64(n))
}

// pop returns the next message immediately if one is queued; otherwise it
// registers and returns a waiter channel the caller must receive from.
// Exactly one of (msg, waiter) is non-nil unless the queue is closed, in
// which case both are nil and ok is false.
func (q *queue) pop() (msg item, waiter chan item, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return item{}, nil, false
	}
	if len(q.items) > 0 {
		m := q.items[0]
		q.items[0] = item{} // the backing array must not keep the body alive
		q.items = q.items[1:]
		q.delivered++
		q.mets().delivered.Inc()
		q.mets().depth.Set(float64(len(q.items)))
		q.setInflight(q.inflight + 1)
		return m, nil, true
	}
	w := make(chan item, 1)
	q.waiters = append(q.waiters, w)
	q.mets().waiters.Set(float64(len(q.waiters)))
	return item{}, w, true
}

// cancel removes a waiter registered by pop. If the waiter was already
// handed a message in the race window, the message is requeued so it is
// not lost.
func (q *queue) cancel(w chan item) {
	q.mu.Lock()
	for i, x := range q.waiters {
		if x == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			q.mets().waiters.Set(float64(len(q.waiters)))
			q.mu.Unlock()
			return
		}
	}
	q.mu.Unlock()
	// Not in the list: push may have delivered concurrently.
	select {
	case b := <-w:
		q.mu.Lock()
		q.delivered-- // the delivery never reached a consumer
		q.setInflight(q.inflight - 1)
		if !q.closed {
			q.putFront([]item{b})
		}
		q.mu.Unlock()
	default:
	}
}

// close marks the queue closed and releases all waiters with nil.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters {
		close(w)
	}
	q.waiters = nil
	q.mets().waiters.Set(0)
}

// depth reports the number of backlogged messages.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// counts reports the queue's lifetime counters.
func (q *queue) counts() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Published:   q.published,
		Delivered:   q.delivered,
		Redelivered: q.redelivered,
		Acked:       q.acked,
		InFlight:    q.inflight,
	}
}
