package main

import (
	"testing"
	"time"
)

// TestPaceChargesStallToLaterOperations drives a paced producer into a
// consumer that stalls once. Timed from due time, the operations queued
// behind the stall carry its cost; timed from when they were sent, as a
// closed-loop generator would, the stall all but disappears.
func TestPaceChargesStallToLaterOperations(t *testing.T) {
	const (
		n     = 400
		rate  = 2000.0 // one every 0.5 ms
		stall = 50 * time.Millisecond
	)
	type msg struct {
		i        int
		due, out time.Time
	}
	ch := make(chan msg, n)
	done := make(chan []time.Duration)
	go func() {
		fromDue := make([]time.Duration, n)
		for m := range ch {
			if m.i == 100 {
				time.Sleep(stall)
			}
			fromDue[m.i] = time.Since(m.due)
		}
		done <- fromDue
	}()
	start := time.Now()
	pace(start, n, rate, func(i int, due time.Time) bool {
		ch <- msg{i: i, due: due, out: time.Now()}
		return true
	})
	close(ch)
	fromDue := <-done

	// The message right after the stall waited almost all of it.
	if fromDue[101] < stall*8/10 {
		t.Fatalf("op after the stall: %s from due, want ≥ %s", fromDue[101], stall*8/10)
	}
	// ~stall×rate operations were due during the stall; all of them
	// must show a latency above half the stall's remaining time.
	late := 0
	for _, d := range fromDue {
		if d > 10*time.Millisecond {
			late++
		}
	}
	if late < 50 {
		t.Fatalf("%d operations charged ≥10ms, want ≥ 50 (coordinated omission)", late)
	}
	// The schedule itself did not slow down: the producer never waits
	// for the consumer.
	if el := time.Since(start); el > time.Duration(float64(n)/rate*float64(time.Second))+200*time.Millisecond {
		t.Fatalf("paced producer took %s for %d ops at %g/s", el, n, rate)
	}
}

func TestPaceStopsOnFalse(t *testing.T) {
	calls := 0
	pace(time.Now(), 100, 1e6, func(i int, _ time.Time) bool {
		calls++
		return i < 4
	})
	if calls != 5 {
		t.Fatalf("pace made %d calls after fn returned false at i=4, want 5", calls)
	}
}
