package obs

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// lcg is a tiny deterministic generator for test sample streams.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(uint32(*l>>33)) / float64(1<<32)
}

// rankError returns how far (in ranks) the reported quantile value v is
// from the target rank ceil(q*n) in the sorted sample. Zero when v's rank
// interval covers the target.
func rankError(sorted []float64, v, q float64) float64 {
	n := len(sorted)
	r := math.Ceil(q * float64(n))
	if r < 1 {
		r = 1
	}
	lo := sort.SearchFloat64s(sorted, v)                            // samples strictly below v
	hi := sort.Search(n, func(i int) bool { return sorted[i] > v }) // samples <= v
	if float64(lo+1) > r {
		return float64(lo+1) - r
	}
	if float64(hi) < r {
		return r - float64(hi)
	}
	return 0
}

var quantileProbes = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}

// TestSketchMergeEquivalence merges two compressed sketches and checks every
// probe quantile against the exact sample union within 2*eps*n ranks — the
// bound the windowed percentiles rely on.
func TestSketchMergeEquivalence(t *testing.T) {
	const eps = 0.01
	const perSketch = 1500 // well past compressEvery = 50, so compression is active
	a, b := NewSketch(eps), NewSketch(eps)
	var all []float64
	g := lcg(1)
	for i := 0; i < perSketch; i++ {
		v := g.next()
		a.Add(v)
		all = append(all, v)
	}
	for i := 0; i < perSketch; i++ {
		v := g.next() * 10 // disjoint-ish range so the merge interleaves
		b.Add(v)
		all = append(all, v)
	}
	m := a.Merge(b)
	if m.Count() != int64(len(all)) {
		t.Fatalf("merged count = %d, want %d", m.Count(), len(all))
	}
	if a.Count() != perSketch || b.Count() != perSketch {
		t.Fatal("merge mutated its inputs")
	}
	sort.Float64s(all)
	budget := 2 * eps * float64(len(all))
	for _, q := range quantileProbes {
		v := m.Quantile(q)
		if e := rankError(all, v, q); e > budget {
			t.Errorf("q=%g: value %g off by %.1f ranks (budget %.1f)", q, v, e, budget)
		}
	}
}

// TestSketchMergeEmpty checks the identity cases.
func TestSketchMergeEmpty(t *testing.T) {
	a, b := NewSketch(0.01), NewSketch(0.05)
	a.Add(3)
	m := a.Merge(b)
	if m.Count() != 1 || m.Quantile(0.5) != 3 {
		t.Fatalf("merge with empty = count %d, p50 %g", m.Count(), m.Quantile(0.5))
	}
	if m.Eps() != 0.05 {
		t.Fatalf("merged eps = %g, want max of inputs 0.05", m.Eps())
	}
	if e := NewSketch(0.01).Merge(NewSketch(0.01)); e.Count() != 0 || e.Quantile(0.5) != 0 {
		t.Fatal("empty merge not empty")
	}
}

// TestWindowedSketchEquivalence streams samples across many windows and
// checks the windowed quantile against the exact quantile of exactly the
// samples in the live windows, within 2*eps*n ranks.
func TestWindowedSketchEquivalence(t *testing.T) {
	const eps = 0.01
	width, windows := sim.Time(1.0), 3
	w := NewWindowedSketch(eps, width, windows)
	g := lcg(7)
	byWindow := make(map[int64][]float64)
	const perWindow = 400
	var at sim.Time
	for win := int64(0); win < 6; win++ {
		for i := 0; i < perWindow; i++ {
			at = sim.Time(win)*width + sim.Time(float64(i)/perWindow)*width
			v := g.next() * float64(win+1) // shift the distribution per window
			w.Add(at, v)
			byWindow[win] = append(byWindow[win], v)
		}
	}
	// At the end of window 5 the live windows are 3, 4, 5.
	var live []float64
	for _, win := range []int64{3, 4, 5} {
		live = append(live, byWindow[win]...)
	}
	if got, want := w.Count(at), int64(len(live)); got != want {
		t.Fatalf("live count = %d, want %d (expired windows leaked in)", got, want)
	}
	sort.Float64s(live)
	budget := 2 * eps * float64(len(live))
	for _, q := range quantileProbes {
		v := w.Quantile(at, q)
		if e := rankError(live, v, q); e > budget {
			t.Errorf("q=%g: value %g off by %.1f ranks (budget %.1f)", q, v, e, budget)
		}
	}
}

// TestWindowedSketchExpiry checks that old windows fall out of the query as
// time advances, even with no new inserts.
func TestWindowedSketchExpiry(t *testing.T) {
	w := NewWindowedSketch(0.01, sim.Time(1.0), 2)
	w.Add(0.5, 100) // window 0
	w.Add(1.5, 200) // window 1
	if got := w.Count(1.5); got != 2 {
		t.Fatalf("count at 1.5 = %d, want 2", got)
	}
	if p := w.Quantile(1.5, 1.0); p != 200 {
		t.Fatalf("max at 1.5 = %g, want 200", p)
	}
	// At t=2.x the live windows are 1 and 2; window 0's sample is gone.
	if got := w.Count(2.5); got != 1 {
		t.Fatalf("count at 2.5 = %d, want 1", got)
	}
	if p := w.Quantile(2.5, 0.0); p != 200 {
		t.Fatalf("min at 2.5 = %g, want 200 (window 0 should have expired)", p)
	}
	// At t=3.x everything has expired.
	if got := w.Count(3.5); got != 0 {
		t.Fatalf("count at 3.5 = %d, want 0", got)
	}
	// A new insert reuses the expired slot without resurrecting old samples.
	w.Add(3.5, 300)
	if got := w.Count(3.5); got != 1 {
		t.Fatalf("count after slot reuse = %d, want 1", got)
	}
}

// TestWindowedSketchDeterministic checks byte-level reproducibility of the
// merged summary for a fixed insertion schedule.
func TestWindowedSketchDeterministic(t *testing.T) {
	build := func() []byte {
		w := NewWindowedSketch(0.01, sim.Time(0.5), 4)
		g := lcg(42)
		for i := 0; i < 3000; i++ {
			w.Add(sim.Time(float64(i)*1e-3), g.next())
		}
		return w.Merged(sim.Time(2.999)).Encode()
	}
	a, b := build(), string(build())
	if string(a) != b {
		t.Fatal("merged windowed sketch not deterministic")
	}
}
