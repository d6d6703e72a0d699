package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestOnlineBasics(t *testing.T) {
	var o Online
	if o.N() != 0 || o.Mean() != 0 || o.Var() != 0 {
		t.Fatalf("zero value not empty: %+v", o)
	}
	o.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if o.N() != 8 {
		t.Errorf("N = %d, want 8", o.N())
	}
	if !almostEq(o.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", o.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almostEq(o.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %g, want %g", o.Var(), 32.0/7.0)
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", o.Min(), o.Max())
	}
}

func TestOnlineSingleSample(t *testing.T) {
	var o Online
	o.Add(42)
	if o.Var() != 0 {
		t.Errorf("variance of single sample should be 0, got %g", o.Var())
	}
	if o.Min() != 42 || o.Max() != 42 {
		t.Errorf("Min/Max = %g/%g", o.Min(), o.Max())
	}
}

func TestOnlineMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	var whole Online
	whole.AddAll(xs)
	var a, b Online
	a.AddAll(xs[:317])
	b.AddAll(xs[317:])
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if !almostEq(a.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("merged Mean = %g, want %g", a.Mean(), whole.Mean())
	}
	if !almostEq(a.Var(), whole.Var(), 1e-9) {
		t.Errorf("merged Var = %g, want %g", a.Var(), whole.Var())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged Min/Max = %g/%g, want %g/%g", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
}

func TestOnlineMergeEmptySides(t *testing.T) {
	var empty, full Online
	full.AddAll([]float64{1, 2, 3})
	cp := full
	cp.Merge(&empty)
	if cp.N() != 3 || cp.Mean() != 2 {
		t.Errorf("merge with empty changed stats: %+v", cp)
	}
	var dst Online
	dst.Merge(&full)
	if dst.N() != 3 || dst.Mean() != 2 {
		t.Errorf("merge into empty wrong: %+v", dst)
	}
}

func TestMeanMaxMinErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMeanMaxMinValues(t *testing.T) {
	xs := []float64{3, -1, 4, 1.5}
	if m, _ := Mean(xs); !almostEq(m, 1.875, 1e-12) {
		t.Errorf("Mean = %g", m)
	}
	if m, _ := Max(xs); m != 4 {
		t.Errorf("Max = %g", m)
	}
	if m, _ := Min(xs); m != -1 {
		t.Errorf("Min = %g", m)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Errorf("r = %g, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("r = %g, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not reported")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("too-short input not reported")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("zero variance not reported")
	}
}

func TestPearsonNearZeroForIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 20000)
	ys := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.05 {
		t.Errorf("independent samples correlate too strongly: r = %g", r)
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(-5)   // clamps to bin 0
	h.Add(100)  // clamps to last bin
	h.Add(5)    // bin 2
	h.Add(10.0) // exactly hi -> last bin
	if h.Total() != 4 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[2] != 1 || h.Counts[4] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
}

func TestHistogramNaN(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(math.NaN())
	if h.Total() != 1 || h.Counts[0] != 1 {
		t.Errorf("NaN handling wrong: %v", h.Counts)
	}
}

func TestAutoHistogramSpansData(t *testing.T) {
	xs := []float64{1, 2, 3, 9}
	h := AutoHistogram(xs, 4)
	if h.Lo != 1 || h.Hi != 9 {
		t.Errorf("range = [%g,%g]", h.Lo, h.Hi)
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d", h.Total())
	}
	// Constant data must not panic and must produce a usable range.
	h2 := AutoHistogram([]float64{5, 5, 5}, 3)
	if h2.Total() != 3 {
		t.Errorf("constant-data Total = %d", h2.Total())
	}
	h3 := AutoHistogram(nil, 3)
	if h3.Total() != 0 {
		t.Errorf("empty Total = %d", h3.Total())
	}
}

func TestHistogramEdgesAndRender(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	edges := h.BinEdges()
	want := []float64{0, 1, 2, 3, 4}
	for i := range want {
		if !almostEq(edges[i], want[i], 1e-12) {
			t.Errorf("edges[%d] = %g, want %g", i, edges[i], want[i])
		}
	}
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.6)
	out := h.Render("test", 10)
	if out == "" {
		t.Error("empty render")
	}
	if h.MaxCount() != 2 {
		t.Errorf("MaxCount = %d", h.MaxCount())
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nbins=0", func() { NewHistogram(0, 1, 0) })
	mustPanic("hi<=lo", func() { NewHistogram(1, 1, 4) })
}

// Property: merging any split of a sample list equals processing the whole.
func TestQuickOnlineMergeProperty(t *testing.T) {
	f := func(raw []float64, splitSeed uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		split := int(splitSeed) % len(xs)
		var whole, a, b Online
		whole.AddAll(xs)
		a.AddAll(xs[:split])
		b.AddAll(xs[split:])
		a.Merge(&b)
		scale := math.Max(1, math.Abs(whole.Mean()))
		return a.N() == whole.N() &&
			almostEq(a.Mean(), whole.Mean(), 1e-6*scale) &&
			almostEq(a.Var(), whole.Var(), 1e-4*math.Max(1, whole.Var()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is symmetric and bounded in [-1, 1].
func TestQuickPearsonBoundsAndSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64() + 0.3*xs[i]
		}
		r1, err1 := Pearson(xs, ys)
		r2, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			// Degenerate draw (zero variance); acceptable.
			return err1 != nil && err2 != nil
		}
		return almostEq(r1, r2, 1e-9) && r1 >= -1-1e-9 && r1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: histogram totals always equal number of Adds.
func TestQuickHistogramTotal(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHistogram(-100, 100, 17)
		for _, x := range raw {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
		}
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == h.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
