package main

import "time"

// pace calls fn(i, due) for i = 0, 1, … with due = start + i/rate,
// never before its due time, until fn returns false or n calls were
// made. The schedule never bends to a slow call: a call that finds
// itself late runs at once, and callers time it from due, not from when
// it ran, so a stall is charged to every operation it delayed
// (no coordinated omission).
func pace(start time.Time, n int, rate float64, fn func(i int, due time.Time) bool) {
	for i := 0; i < n; i++ {
		due := dueAt(start, i, rate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if !fn(i, due) {
			return
		}
	}
}

// dueAt is when operation i of a schedule at rate per second is due.
func dueAt(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// req is one HTTP request of a workload and the span name of the
// direct store call that answers it.
type req struct {
	path  string
	span  string
	first bool // first occurrence of path in the sequence
}
