// Package lru is the one bounded cache: entries are weighed by a cost,
// the least recently used leave once the total exceeds a budget, and a
// missing key is loaded once however many callers ask for it at the
// same time. The portal's response pages, the segment store's decoded
// frames and open segment files, the raw archiver's open files and the
// rate limiter's client buckets all live in one.
package lru

import (
	"errors"
	"sync"
)

// errLoadPanicked is what callers waiting on a load receive when the
// load panicked instead of returning; the panic itself propagates to
// the caller that ran it.
var errLoadPanicked = errors.New("lru: load panicked")

// Cache maps keys to values whose total cost stays within a budget.
// The only entry ever allowed past the budget is the newest one: a
// value that costs more than the whole budget is still cached until the
// next insert, so the caller that loaded it can be served. Safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	budget  int64
	cost    func(V) int64
	onEvict func(K, V)

	mu    sync.Mutex
	used  int64
	items map[K]*entry[K, V]
	calls map[K]*call[V]
	// head is the sentinel of the recency list: head.next is the most
	// recently used entry, head.prev the least.
	head entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// call is one load in flight; done closes once val and err are set.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding values of total cost at most budget. A
// nil cost weighs every value 1. onEvict, when non-nil, receives every
// entry that leaves the cache by the budget or by Remove; it runs after
// the cache's lock is released, on the goroutine that evicted it.
func New[K comparable, V any](budget int64, cost func(V) int64, onEvict func(K, V)) *Cache[K, V] {
	if cost == nil {
		cost = func(V) int64 { return 1 }
	}
	c := &Cache[K, V]{
		budget: budget, cost: cost, onEvict: onEvict,
		items: make(map[K]*entry[K, V]),
		calls: make(map[K]*call[V]),
	}
	c.head.prev, c.head.next = &c.head, &c.head
	return c
}

// Get returns the value cached under k, or loads it. Concurrent Gets of
// one missing key run load once and share its result; a failed load is
// shared with those waiters but never cached, so the next Get retries.
// hit reports that this caller did not run load: the value was resident
// or another caller's load was shared.
func (c *Cache[K, V]) Get(k K, load func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.items[k]; ok {
		c.unlink(e)
		c.pushFront(e)
		v = e.val
		c.mu.Unlock()
		return v, true, nil
	}
	if cl, ok := c.calls[k]; ok {
		c.mu.Unlock()
		<-cl.done
		return cl.val, true, cl.err
	}
	cl := &call[V]{done: make(chan struct{}), err: errLoadPanicked}
	c.calls[k] = cl
	c.mu.Unlock()
	defer c.finish(k, cl)
	cl.val, cl.err = load()
	return cl.val, false, cl.err
}

// finish publishes a load's result to its waiters and, if it succeeded,
// inserts it as the most recently used entry.
func (c *Cache[K, V]) finish(k K, cl *call[V]) {
	var e *entry[K, V]
	if cl.err == nil {
		e = &entry[K, V]{key: k, val: cl.val, cost: c.cost(cl.val)}
	}
	c.mu.Lock()
	delete(c.calls, k)
	var evicted *entry[K, V]
	if e != nil {
		c.items[k] = e
		c.pushFront(e)
		c.used += e.cost
		evicted = c.evictLocked(e)
	}
	c.mu.Unlock()
	close(cl.done)
	for ; evicted != nil; evicted = evicted.next {
		if c.onEvict != nil {
			c.onEvict(evicted.key, evicted.val)
		}
	}
}

// evictLocked drops least recently used entries until the cache fits
// its budget or only keep is left, and returns them chained through
// next in eviction order.
func (c *Cache[K, V]) evictLocked(keep *entry[K, V]) *entry[K, V] {
	var first, last *entry[K, V]
	for c.used > c.budget && c.head.prev != keep {
		e := c.head.prev
		c.unlink(e)
		delete(c.items, e.key)
		c.used -= e.cost
		e.next = nil
		if last == nil {
			first = e
		} else {
			last.next = e
		}
		last = e
	}
	return first
}

// Remove drops k's entry, if resident, through onEvict. A load of k in
// flight is unaffected and caches its result when it returns.
func (c *Cache[K, V]) Remove(k K) {
	c.mu.Lock()
	e, ok := c.items[k]
	if ok {
		c.unlink(e)
		delete(c.items, k)
		c.used -= e.cost
	}
	c.mu.Unlock()
	if ok && c.onEvict != nil {
		c.onEvict(k, e.val)
	}
}

// Drain empties the cache, handing every entry to fn, least recently
// used first, instead of to onEvict.
func (c *Cache[K, V]) Drain(fn func(K, V)) {
	c.mu.Lock()
	lru := c.head.prev
	c.head.prev, c.head.next = &c.head, &c.head
	clear(c.items)
	c.used = 0
	c.mu.Unlock()
	for e := lru; e != &c.head; e = e.prev {
		fn(e.key, e.val)
	}
}

// Len reports the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.head, c.head.next
	e.next.prev = e
	c.head.next = e
}
