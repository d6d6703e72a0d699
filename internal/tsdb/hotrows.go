// The RAM hot set: each stripe keeps its hosts' points as host rows,
// one row per snapshot time and one column per series, so the ingest
// path appends a row per snapshot, CommitCold drops whole rows, and Do
// gathers the columns a query matches out of them.
package tsdb

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// hostRows is one host's share of the hot set: its points as rows, one
// per (time, write), in time order. Row k holds the points of time
// times[k] that were written into it: its values are the row-major
// slice vals[k*stride:][:stride], one per column, each meaningful where
// its bit in the row's presence words has[k*words:][:words] is set. A
// column written twice at one time spills into a second row of that
// time, so a series' points, read down its column, come in time order
// and, within one time, in write order. Every row has the same stride;
// when the host's columns outgrow it, fit re-lays the rows wider before
// the next write.
//
// The rows before off are evicted: eviction only advances off, and the
// live rows move down to the front of the buffers when an append finds
// them full, so the buffers are reused and a row is copied about once
// per buffer's worth of appends.
//
// A column no live row holds goes back to the host when new series need
// columns: its series keeps no point in RAM and claims a column again
// on its next write. A host whose records come and go (a process table
// changes with every job) so stays as wide as the series it reported
// over the hot window, not every series it ever reported. Without a cold
// store nothing is evicted and so no column is freed: every row is as
// wide as every series its host ever reported, and a churning host's
// rows grow as rows × series, so a DB without AttachCold suits bounded
// runs (experiments, examples, tests), not a long-running daemon.
//
// gap[c] bounds from above the time of every row that lacks column c, so
// the rows after it hold c and a read copies them without testing
// presence. Rows are written whole in the steady state, so gap[c] stays
// behind the hot window unless the host's layout dropped c.
type hostRows struct {
	times  []float64
	vals   []float64
	has    []uint64
	gap    []float64
	owner  []*series // per column; nil for a freed one
	free   []int     // freed columns
	off    int       // first live row
	ncols  int       // columns handed out so far
	stride int       // columns laid out per row, >= ncols after fit
	words  int       // presence words per row
}

// series is one tag tuple's column in its host's rows; col is -1 while
// the series holds no column (before its first write, or after its
// column was freed).
type series struct {
	tags Tags
	host *hostRows
	col  int
}

// reserveRows is the row capacity fit lays a host out with at least:
// twice a 2 h hot window of 10-minute snapshots, so a host at the
// paper's cadence reaches its steady state without growing its rows
// again, and moves its live rows down about once per 20 appends.
const reserveRows = 32

// fit re-lays the rows if more columns were handed out than a row
// holds, widening rows by a quarter at least so a host that keeps
// adding a few columns is not re-laid on every write. Caller holds the
// stripe's write lock.
func (hr *hostRows) fit() {
	if hr.ncols <= hr.stride {
		return
	}
	stride := max(hr.ncols, hr.stride+hr.stride/4)
	words := (stride + 63) >> 6
	n := len(hr.times) - hr.off
	rows := max(2*n, reserveRows)
	times := make([]float64, n, rows)
	vals := make([]float64, n*stride, rows*stride)
	has := make([]uint64, n*words, rows*words)
	copy(times, hr.times[hr.off:])
	for k := range n {
		copy(vals[k*stride:], hr.vals[(hr.off+k)*hr.stride:][:hr.stride])
		copy(has[k*words:], hr.has[(hr.off+k)*hr.words:][:hr.words])
	}
	hr.times, hr.vals, hr.has, hr.off, hr.stride, hr.words = times, vals, has, 0, stride, words
}

func (hr *hostRows) holds(k, col int) bool {
	return hr.has[k*hr.words+col>>6]&(1<<(col&63)) != 0
}

func (hr *hostRows) set(k, col int, v float64) {
	hr.vals[k*hr.stride+col] = v
	hr.has[k*hr.words+col>>6] |= 1 << (col & 63)
}

// columns gives each of the need series of hs that have no column one,
// freeing the columns no live row holds first if the ones never handed
// out and freed before are too few. Every column handed out earlier has
// been written by then, so none is freed before its first point.
func (hr *hostRows) columns(hs []*handle, need int) {
	if len(hr.free)+hr.stride-hr.ncols < need {
		hr.reclaim()
	}
	for _, h := range hs {
		if h.s.col < 0 {
			hr.claim(h.s)
		}
	}
}

// reclaim frees every handed-out column that no live row holds.
func (hr *hostRows) reclaim() {
	held := make([]uint64, hr.words)
	for k := hr.off; k < len(hr.times); k++ {
		for w, word := range hr.has[k*hr.words:][:hr.words] {
			held[w] |= word
		}
	}
	for c, s := range hr.owner {
		if s != nil && held[c>>6]&(1<<(c&63)) == 0 {
			s.col, hr.owner[c] = -1, nil
			hr.free = append(hr.free, c)
		}
	}
}

// claim gives s a column, a freed one if any: absent from every live
// row, so its gap is the newest row.
func (hr *hostRows) claim(s *series) {
	var c int
	if n := len(hr.free); n > 0 {
		c, hr.free = hr.free[n-1], hr.free[:n-1]
		hr.owner[c] = s
	} else {
		c = hr.ncols
		hr.ncols++
		hr.owner = append(hr.owner, s)
		hr.gap = append(hr.gap, 0)
	}
	hr.gap[c] = math.Inf(-1)
	if n := len(hr.times); n > hr.off {
		hr.gap[c] = hr.times[n-1]
	}
	s.col = c
}

// noteGaps advances gap[c] to row k's time for each column c row k
// lacks.
func (hr *hostRows) noteGaps(k int) {
	t := hr.times[k]
	for w, word := range hr.has[k*hr.words : (k+1)*hr.words] {
		for missing := ^word; missing != 0; missing &= missing - 1 {
			c := w<<6 + bits.TrailingZeros64(missing)
			if c >= hr.ncols {
				break
			}
			hr.gap[c] = max(hr.gap[c], t)
		}
	}
}

// appendRow appends an empty row at time t and returns its index.
func (hr *hostRows) appendRow(t float64) int {
	if hr.off > 0 && (len(hr.times) == cap(hr.times) || len(hr.vals)+hr.stride > cap(hr.vals)) {
		hr.times = hr.times[:copy(hr.times, hr.times[hr.off:])]
		hr.vals = hr.vals[:copy(hr.vals, hr.vals[hr.off*hr.stride:])]
		hr.has = hr.has[:copy(hr.has, hr.has[hr.off*hr.words:])]
		hr.off = 0
	}
	hr.times = append(hr.times, t)
	hr.vals = slices.Grow(hr.vals, hr.stride)[:len(hr.vals)+hr.stride]
	clear(hr.vals[len(hr.vals)-hr.stride:])
	hr.has = slices.Grow(hr.has, hr.words)[:len(hr.has)+hr.words]
	clear(hr.has[len(hr.has)-hr.words:])
	return len(hr.times) - 1
}

// evictBefore drops the rows with time < t, a prefix of the
// time-sorted live rows.
func (hr *hostRows) evictBefore(t float64) {
	k, _ := slices.BinarySearch(hr.times[hr.off:], t)
	hr.off += k
}

// put writes one point at or before the host's last row time: into the
// last row of time t if that row lacks the column, else into a new row
// after every row of time <= t. Either way the point follows every
// point of its series at times <= t and precedes every later one.
func (hr *hostRows) put(col int, t, v float64) {
	live := hr.times[hr.off:]
	k := hr.off + sort.Search(len(live), func(k int) bool { return live[k] > t })
	if k > hr.off && hr.times[k-1] == t && !hr.holds(k-1, col) {
		hr.set(k-1, col, v)
		return
	}
	hr.times = slices.Insert(hr.times, k, t)
	hr.vals = slices.Insert(hr.vals, k*hr.stride, make([]float64, hr.stride)...)
	hr.has = slices.Insert(hr.has, k*hr.words, make([]uint64, hr.words)...)
	hr.set(k, col, v)
	hr.noteGaps(k)
}

// window returns the index range [i, j) of the live rows with times in
// [start, end] (end <= 0 means +inf).
func (hr *hostRows) window(start, end float64) (i, j int) {
	i, _ = slices.BinarySearch(hr.times[hr.off:], start)
	i += hr.off
	j = len(hr.times)
	if end > 0 && j > 0 && hr.times[j-1] > end {
		j = i + sort.Search(j-i, func(k int) bool { return hr.times[i+k] > end })
	}
	return i, max(i, j)
}

// gather is Do's scratch for the hot half of a query: the gathered
// columns' values in vs and, index for index, their times in ts.
type gather struct {
	ts, vs []float64
	hr     *hostRows
	i, j   int // the window's rows in hr
}

var gatherPool = sync.Pool{New: func() interface{} { return new(gather) }}

// host moves the gather to hr's rows with times in [start, end].
func (g *gather) host(hr *hostRows, start, end float64) {
	g.hr = hr
	g.i, g.j = hr.window(start, end)
}

// column gathers column col over the window into ts[lo:hi] and
// vs[lo:hi]. The rows up to the column's gap are tested for presence;
// the rest hold it and are copied.
func (g *gather) column(col int) (lo, hi int) {
	hr, i, j := g.hr, g.i, g.j
	w := i
	if gap := hr.gap[col]; i < j && hr.times[i] <= gap {
		w = i + sort.Search(j-i, func(k int) bool { return hr.times[i+k] > gap })
	}
	lo = len(g.vs)
	bit := uint64(1) << (col & 63)
	for k := i; k < w; k++ {
		if hr.has[k*hr.words+col>>6]&bit != 0 {
			g.ts = append(g.ts, hr.times[k])
			g.vs = append(g.vs, hr.vals[k*hr.stride+col])
		}
	}
	g.ts = append(g.ts, hr.times[w:j]...)
	if w < j {
		n := len(g.vs)
		g.vs = slices.Grow(g.vs, j-w)[:n+j-w]
		out, vals, vi := g.vs[n:], hr.vals[w*hr.stride+col:], 0
		for k := range out {
			out[k] = vals[vi]
			vi += hr.stride
		}
	}
	return lo, len(g.vs)
}
