package lru

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// val is a cached value: its key, which load produced it, and its cost.
type val struct {
	key, load int
	cost      int64
}

// oracle is the reference model: a slice in recency order, most
// recently used first, evicting from the back.
type oracle struct {
	budget  int64
	items   []val
	used    int64
	evicted []val
}

func (o *oracle) find(k int) int {
	for i, v := range o.items {
		if v.key == k {
			return i
		}
	}
	return -1
}

func (o *oracle) get(k int, v val, fail bool) (val, bool, bool) {
	if i := o.find(k); i >= 0 {
		hit := o.items[i]
		o.items = append([]val{hit}, append(o.items[:i:i], o.items[i+1:]...)...)
		return hit, true, true
	}
	if fail {
		return val{}, false, false
	}
	o.items = append([]val{v}, o.items...)
	o.used += v.cost
	for o.used > o.budget && len(o.items) > 1 {
		last := o.items[len(o.items)-1]
		o.items = o.items[:len(o.items)-1]
		o.used -= last.cost
		o.evicted = append(o.evicted, last)
	}
	return v, false, true
}

func (o *oracle) remove(k int) {
	if i := o.find(k); i >= 0 {
		o.evicted = append(o.evicted, o.items[i])
		o.used -= o.items[i].cost
		o.items = append(o.items[:i], o.items[i+1:]...)
	}
}

var errLoad = errors.New("load failed")

// op is one step of a differential run: a Get of key (whose load, if
// it runs, fails or yields a value of the given cost) or a Remove.
type op struct {
	remove bool
	fail   bool
	key    int
	cost   int64
}

// runDifferential applies ops to a Cache and to the oracle and checks
// after every step that they agree on what each Get returned, on the
// resident entries in recency order, on the evictions in order, and on
// the budget.
func runDifferential(t *testing.T, budget int64, ops []op) {
	t.Helper()
	o := &oracle{budget: budget}
	var evicted []val
	var c *Cache[int, val]
	c = New(budget, func(v val) int64 { return v.cost }, func(k int, v val) {
		if k != v.key {
			t.Fatalf("onEvict(%d, %+v): key and value disagree", k, v)
		}
		c.Len() // onEvict runs outside the lock: calling back must not deadlock
		evicted = append(evicted, v)
	})
	loads := 0
	for i, p := range ops {
		if p.remove {
			c.Remove(p.key)
			o.remove(p.key)
		} else {
			fresh := val{key: p.key, load: loads + 1, cost: p.cost}
			ran := false
			got, hit, err := c.Get(p.key, func() (val, error) {
				ran = true
				loads++
				if p.fail {
					return val{}, errLoad
				}
				return fresh, nil
			})
			want, wantHit, ok := o.get(p.key, fresh, p.fail)
			if hit != wantHit || ran == hit || (err == nil) != ok || (ok && got != want) {
				t.Fatalf("op %d %+v: Get = %+v hit=%v err=%v; oracle %+v hit=%v ok=%v",
					i, p, got, hit, err, want, wantHit, ok)
			}
		}
		var resident []val
		for e := c.head.next; e != &c.head; e = e.next {
			resident = append(resident, e.val)
		}
		if !slices.Equal(resident, o.items) || c.used != o.used || c.Len() != len(o.items) {
			t.Fatalf("op %d %+v: resident %v used %d; oracle %v used %d", i, p, resident, c.used, o.items, o.used)
		}
		if !slices.Equal(evicted, o.evicted) {
			t.Fatalf("op %d %+v: evicted %v; oracle %v", i, p, evicted, o.evicted)
		}
		if c.used > budget && c.Len() != 1 {
			t.Fatalf("op %d: used %d over budget %d with %d entries", i, c.used, budget, c.Len())
		}
	}
}

func TestLRUMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := int64(1 + rng.Intn(40))
		keys := 2 + rng.Intn(30)
		ops := make([]op, 2000)
		for i := range ops {
			ops[i] = op{
				remove: rng.Intn(8) == 0,
				fail:   rng.Intn(10) == 0,
				key:    rng.Intn(keys),
				// Mostly small costs, sometimes one past the whole budget.
				cost: int64(rng.Intn(int(budget)/3 + 2)),
			}
			if rng.Intn(50) == 0 {
				ops[i].cost = budget + 1 + int64(rng.Intn(5))
			}
		}
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runDifferential(t, budget, ops) })
	}
}

// FuzzLRU decodes an operation stream from the input (first byte the
// budget, then three bytes per operation) and checks it against the
// oracle.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{8, 0, 1, 3, 0, 2, 5, 1, 1, 0, 0, 3, 9})
	f.Add([]byte{2, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 200, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		budget := int64(data[0] % 64)
		var ops []op
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			ops = append(ops, op{
				remove: b[0]%8 == 0,
				fail:   b[0]%8 == 1,
				key:    int(b[1] % 16),
				cost:   int64(b[2] % 80),
			})
		}
		runDifferential(t, budget, ops)
	})
}

// TestLRUSingleflight starts N concurrent Gets of one key: the load
// runs once and every caller receives its value.
func TestLRUSingleflight(t *testing.T) {
	const n = 32
	c := New[string, *int](4, nil, nil)
	var loads atomic.Int32
	var started, done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	results := make([]*int, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			started.Done()
			v, hit, err := c.Get("k", func() (*int, error) {
				loads.Add(1)
				started.Wait() // let the others pile up behind this load
				x := 42
				return &x, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], hits[i] = v, hit
		}(i)
	}
	done.Wait()
	if got := loads.Load(); got != 1 {
		t.Fatalf("load ran %d times, want 1", got)
	}
	misses := 0
	for i, v := range results {
		if v != results[0] || *v != 42 {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, v, results[0])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers report a miss, want exactly the one that loaded", misses)
	}
}

// TestLRUFailedLoadShared fails the first load while other callers
// wait on it: they all receive the error, nothing is cached, and the
// next caller loads again.
func TestLRUFailedLoadShared(t *testing.T) {
	const n = 32
	c := New[string, int](4, nil, nil)
	var loads atomic.Int32
	load := func(started *sync.WaitGroup) func() (int, error) {
		return func() (int, error) {
			if loads.Add(1) == 1 {
				started.Wait()
				return 0, errLoad
			}
			return 7, nil
		}
	}
	var started, done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	var failed atomic.Int32
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			started.Done()
			v, _, err := c.Get("k", load(&started))
			switch {
			case errors.Is(err, errLoad):
				failed.Add(1)
			case err != nil || v != 7:
				t.Errorf("Get = %d, %v", v, err)
			}
		}()
	}
	done.Wait()
	if failed.Load() == 0 {
		t.Fatal("no caller saw the failed load")
	}
	// Stragglers that arrived after the failure retried (once, shared);
	// if none did, this Get is the retry.
	if v, _, err := c.Get("k", load(&started)); err != nil || v != 7 {
		t.Fatalf("retry after a failed load: %d, %v", v, err)
	}
	if got := loads.Load(); got != 2 {
		t.Fatalf("load ran %d times, want the failed one and one retry", got)
	}
	if v, hit, _ := c.Get("k", load(&started)); !hit || v != 7 {
		t.Fatalf("retried value not cached: %d hit=%v", v, hit)
	}
}

// TestLRULoadPanic checks a panicking load releases its waiters with
// errLoadPanicked and caches nothing.
func TestLRULoadPanic(t *testing.T) {
	c := New[int, int](4, nil, nil)
	entered, release := make(chan struct{}), make(chan struct{})
	waiter := make(chan error)
	go func() {
		defer func() { recover() }()
		c.Get(1, func() (int, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	go func() {
		_, _, err := c.Get(1, func() (int, error) { return 0, errors.New("waiter loaded") })
		waiter <- err
	}()
	close(release)
	if err := <-waiter; !errors.Is(err, errLoadPanicked) && err.Error() != "waiter loaded" {
		t.Fatalf("waiter got %v", err)
	}
	if v, hit, err := c.Get(1, func() (int, error) { return 3, nil }); hit || err != nil || v != 3 {
		t.Fatalf("after a panicked load: %d hit=%v err=%v", v, hit, err)
	}
}

func TestLRUDrain(t *testing.T) {
	evicts := 0
	c := New[int, int](10, nil, func(int, int) { evicts++ })
	for k := 0; k < 5; k++ {
		c.Get(k, func() (int, error) { return k * 10, nil })
	}
	c.Get(0, nil) // resident: now the most recently used
	var order []int
	c.Drain(func(k, v int) {
		if v != k*10 {
			t.Errorf("Drain(%d, %d)", k, v)
		}
		order = append(order, k)
	})
	if fmt.Sprint(order) != "[1 2 3 4 0]" || c.Len() != 0 || c.used != 0 || evicts != 0 {
		t.Fatalf("Drain order %v, len %d, used %d, onEvict calls %d", order, c.Len(), c.used, evicts)
	}
	if _, hit, _ := c.Get(1, func() (int, error) { return 1, nil }); hit {
		t.Fatal("drained entry still served")
	}
}
