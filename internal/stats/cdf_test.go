package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(0) != 0 || c.Len() != 0 || c.Mean() != 0 {
		t.Fatal("empty CDF should report zeros")
	}
}

func TestCDFAt(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 2, 3} {
		c.Add(v)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.9, 0.75}, {3, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFAddN(t *testing.T) {
	var a, b CDF
	a.AddN(5, 3)
	b.Add(5)
	b.Add(5)
	b.Add(5)
	if a.Len() != b.Len() || a.At(5) != b.At(5) {
		t.Fatal("AddN(v,3) differs from three Add(v)")
	}
}

func TestCDFQuantile(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.Quantile(0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := c.Quantile(0.01); got != 1 {
		t.Errorf("q0.01 = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want 100", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want min", got)
	}
}

func TestCDFMinMaxMean(t *testing.T) {
	var c CDF
	for _, v := range []float64{4, 1, 7} {
		c.Add(v)
	}
	if c.Min() != 1 || c.Max() != 7 {
		t.Fatalf("min/max = %v/%v", c.Min(), c.Max())
	}
	if got := c.Mean(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
}

func TestCDFSteps(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 1, 2, 5} {
		c.Add(v)
	}
	steps := c.Steps()
	want := []Point{{1, 0.5}, {2, 0.75}, {5, 1}}
	if len(steps) != len(want) {
		t.Fatalf("got %d steps, want %d", len(steps), len(want))
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Errorf("step %d = %+v, want %+v", i, steps[i], want[i])
		}
	}
}

func TestCDFCurve(t *testing.T) {
	var c CDF
	c.Add(10)
	c.Add(20)
	pts := c.Curve([]float64{5, 10, 25})
	if pts[0].F != 0 || pts[1].F != 0.5 || pts[2].F != 1 {
		t.Fatalf("curve = %+v", pts)
	}
}

func TestLogTicks(t *testing.T) {
	ticks := LogTicks(0, 2)
	want := []float64{1, 2, 5, 10, 20, 50, 100}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if math.Abs(ticks[i]-want[i]) > 1e-9 {
			t.Fatalf("tick %d = %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestLogTicksNegativeExponents(t *testing.T) {
	ticks := LogTicks(-2, 0)
	if math.Abs(ticks[0]-0.01) > 1e-12 {
		t.Fatalf("first tick = %v, want 0.01", ticks[0])
	}
	if ticks[len(ticks)-1] != 1 {
		t.Fatalf("last tick = %v, want 1", ticks[len(ticks)-1])
	}
}

func TestFormatCurveContainsValues(t *testing.T) {
	s := FormatCurve("bytes", []Point{{100, 0.5}})
	if len(s) == 0 {
		t.Fatal("empty format output")
	}
}

// Property: a CDF is monotone non-decreasing and bounded by [0,1].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(vals []float64, probes []float64) bool {
		var c CDF
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			c.Add(v)
		}
		sort.Float64s(probes)
		prev := -1.0
		for _, x := range probes {
			if math.IsNaN(x) {
				continue
			}
			f := c.At(x)
			if f < 0 || f > 1 || f < prev {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF(max) == 1 for any non-empty sample set.
func TestQuickCDFReachesOne(t *testing.T) {
	f := func(vals []float64) bool {
		var c CDF
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			c.Add(v)
		}
		if c.Len() == 0 {
			return true
		}
		return c.At(c.Max()) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile and At are approximate inverses.
func TestQuickQuantileInverse(t *testing.T) {
	f := func(raw []uint16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var c CDF
		for _, v := range raw {
			c.Add(float64(v))
		}
		q := (float64(qRaw%100) + 1) / 100
		v := c.Quantile(q)
		return c.At(v) >= q-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileNaN(t *testing.T) {
	var c CDF
	c.Add(1)
	c.Add(2)
	if got := c.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Quantile(NaN) = %v, want NaN", got)
	}
	var empty CDF
	if got := empty.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("empty Quantile(NaN) = %v, want NaN", got)
	}
}

// quantileByScan is the O(n) reference: sort the weighted samples and
// walk the cumulative count until it reaches ceil(q * total).
func quantileByScan(samples []wsample, q float64) float64 {
	sorted := append([]wsample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].v < sorted[j].v })
	var total int64
	for _, s := range sorted {
		total += s.n
	}
	if q <= 0 {
		return sorted[0].v
	}
	if q >= 1 {
		return sorted[len(sorted)-1].v
	}
	var run int64
	for _, s := range sorted {
		run += s.n
		if float64(run) >= q*float64(total) {
			return s.v
		}
	}
	return sorted[len(sorted)-1].v
}

// Property: Quantile matches a direct rank scan over randomized
// weighted (value, count) sample sets, for every probe q, with no
// rounding fudge in either direction.
func TestQuickQuantileMatchesRankScan(t *testing.T) {
	f := func(raw []uint16, counts []uint8, qRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var c CDF
		var samples []wsample
		for i, v := range raw {
			n := 1
			if i < len(counts) {
				n = int(counts[i]%7) + 1
			}
			c.AddN(float64(v), n)
			samples = append(samples, wsample{v: float64(v), n: int64(n)})
		}
		q := float64(qRaw) / float64(math.MaxUint16)
		return c.Quantile(q) == quantileByScan(samples, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCDFOnlyNaN pins what a CDF of NaN samples alone answers: every
// NaN counts at or below every x, every quantile and both extremes are
// NaN, and Steps has one point per Add. Past a thousand samples the
// CDF has compacted several times.
func TestCDFOnlyNaN(t *testing.T) {
	nan := math.NaN()
	for _, n := range []int{1, 5, 1000} {
		var c CDF
		for i := 0; i < n; i++ {
			c.Add(nan)
		}
		if c.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, c.Len())
		}
		for _, x := range []float64{math.Inf(-1), -1, 0, 1e300, math.Inf(1), nan} {
			if got := c.At(x); got != 1 {
				t.Errorf("n=%d: At(%v) = %v, want 1", n, x, got)
			}
		}
		for _, q := range []float64{-1, 0, 0.2, 0.5, 1, 2, nan} {
			if got := c.Quantile(q); !math.IsNaN(got) {
				t.Errorf("n=%d: Quantile(%v) = %v, want NaN", n, q, got)
			}
		}
		if !math.IsNaN(c.Min()) || !math.IsNaN(c.Max()) || !math.IsNaN(c.Mean()) {
			t.Errorf("n=%d: Min, Max, Mean = %v, %v, %v; want NaN", n, c.Min(), c.Max(), c.Mean())
		}
		steps := c.Steps()
		if len(steps) != n {
			t.Fatalf("n=%d: %d steps, want one per sample", n, len(steps))
		}
		for i, p := range steps {
			if !math.IsNaN(p.X) || p.F != float64(i+1)/float64(n) {
				t.Fatalf("n=%d: step %d = %+v, want {NaN %v}", n, i, p, float64(i+1)/float64(n))
			}
		}
	}
}

// finitePool draws a value pool for the differential tests: a few
// to a few thousand distinct finite values, with the infinities, both
// zeros, fractions and large magnitudes among them.
func finitePool(rng *rand.Rand) []float64 {
	pool := make([]float64, 1+rng.IntN([]int{3, 40, 3000}[rng.IntN(3)]))
	for i := range pool {
		switch rng.IntN(8) {
		case 0:
			pool[i] = float64(rng.IntN(5)) * 512
		case 1:
			pool[i] = []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1)}[rng.IntN(4)]
		case 2:
			pool[i] = rng.NormFloat64() * 1e12
		default:
			pool[i] = float64(rng.Int64N(1<<20)) - 1000 + rng.Float64()*float64(rng.IntN(2))
		}
	}
	return pool
}

// feed adds v once, as a run of repeats, or through AddN with a
// count that may be zero or negative.
func feed(rng *rand.Rand, v float64, add func(v float64), addN func(v float64, n int)) {
	switch rng.IntN(6) {
	case 0:
		addN(v, rng.IntN(1000)-2)
	case 1:
		for k := rng.IntN(50); k > 0; k-- {
			add(v)
		}
	default:
		add(v)
	}
}

// compareCDF checks every answer of c against ref: Len, At, Quantile,
// Min, Max and Steps exactly, Mean to within 1e-12 of the samples'
// mean magnitude (the sums now run over coalesced counts).
func compareCDF(c *CDF, ref *refCDF, pool []float64, rng *rand.Rand) error {
	if c.Len() != ref.Len() {
		return fmt.Errorf("Len = %d, reference %d", c.Len(), ref.Len())
	}
	probes := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, -1e300, 1e300}
	for i := 0; i < 20; i++ {
		v := pool[rng.IntN(len(pool))]
		probes = append(probes, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
	}
	for _, x := range probes {
		if got, want := c.At(x), ref.At(x); got != want {
			return fmt.Errorf("At(%v) = %v, reference %v", x, got, want)
		}
	}
	qs := []float64{-0.5, 0, 1, 1.5, math.NaN(), 1e-9, 1 - 1e-9}
	for i := 0; i < 20; i++ {
		qs = append(qs, rng.Float64())
	}
	if n := ref.Len(); n > 0 {
		for i := 0; i < 10; i++ {
			qs = append(qs, float64(rng.IntN(n+1))/float64(n))
		}
	}
	for _, q := range qs {
		got, want := c.Quantile(q), ref.Quantile(q)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			return fmt.Errorf("Quantile(%v) = %v, reference %v", q, got, want)
		}
	}
	if c.Min() != ref.Min() || c.Max() != ref.Max() {
		return fmt.Errorf("Min, Max = %v, %v; reference %v, %v", c.Min(), c.Max(), ref.Min(), ref.Max())
	}
	got, want := c.Steps(), ref.Steps()
	if len(got) != len(want) {
		return fmt.Errorf("%d steps, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("step %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	var scale float64
	for _, e := range ref.entries {
		scale += math.Abs(e.v) * float64(e.n)
	}
	if ref.total > 0 {
		scale /= float64(ref.total)
	}
	if gm, wm := c.Mean(), ref.Mean(); gm != wm && !(math.IsNaN(gm) && math.IsNaN(wm)) &&
		(math.IsInf(scale, 0) || math.Abs(gm-wm) > 1e-12*scale) {
		return fmt.Errorf("Mean = %v, reference %v", gm, wm)
	}
	return nil
}

// TestCDFMatchesReference is the differential against the CDF that
// coalesced only at query time: random finite samples, Add and AddN
// mixed, repeats and runs, and queries between additions.
func TestCDFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	for i := 0; i < 3000; i++ {
		var c CDF
		var ref refCDF
		pool := finitePool(rng)
		for j, n := 0, rng.IntN(3000); j < n; j++ {
			v := pool[rng.IntN(len(pool))]
			feed(rng, v, func(v float64) { c.Add(v); ref.Add(v) },
				func(v float64, n int) { c.AddN(v, n); ref.AddN(v, n) })
			if rng.IntN(500) == 0 {
				if err := compareCDF(&c, &ref, pool, rng); err != nil {
					t.Fatalf("CDF %d after %d additions: %v", i, j, err)
				}
			}
		}
		if err := compareCDF(&c, &ref, pool, rng); err != nil {
			t.Fatalf("CDF %d: %v", i, err)
		}
	}
}

// TestCDFNaNRule checks the documented NaN rule on random mixes of NaN
// and finite samples: NaN ranks below every number and equals no
// sample, and the answers do not depend on the order samples arrive.
func TestCDFNaNRule(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 2))
	nan := math.NaN()
	for i := 0; i < 1000; i++ {
		pool := finitePool(rng)
		var samples []wsample
		var nanEntries, nanW, total int64
		for j, n := 0, 1+rng.IntN(2000); j < n; j++ {
			s := wsample{v: pool[rng.IntN(len(pool))], n: int64(1 + rng.IntN(3))}
			if rng.IntN(200) == 0 {
				s.v = nan
				nanEntries++
				nanW += s.n
			}
			samples = append(samples, s)
			total += s.n
		}
		// The oracle: every sample in one list, NaN first.
		sorted := slices.Clone(samples)
		slices.SortStableFunc(sorted, func(a, b wsample) int { return cmp.Compare(a.v, b.v) })
		atOracle := func(x float64) float64 {
			var k int64
			for _, s := range sorted {
				if math.IsNaN(s.v) || s.v <= x {
					k += s.n
				}
			}
			return float64(k) / float64(total)
		}
		quantileOracle := func(q float64) float64 {
			var run int64
			for _, s := range sorted {
				if run += s.n; float64(run) >= q*float64(total) {
					return s.v
				}
			}
			return sorted[len(sorted)-1].v
		}
		for order := 0; order < 2; order++ {
			var c CDF
			for _, s := range samples {
				c.AddN(s.v, int(s.n))
			}
			for k := 0; k < 20; k++ {
				x := pool[rng.IntN(len(pool))]
				if got, want := c.At(x), atOracle(x); got != want {
					t.Fatalf("mix %d order %d: At(%v) = %v, want %v", i, order, x, got, want)
				}
				q := rng.Float64()
				if got, want := c.Quantile(q), quantileOracle(q); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("mix %d order %d: Quantile(%v) = %v, want %v", i, order, q, got, want)
				}
			}
			if got, want := c.Min(), sorted[0].v; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("mix %d: Min = %v, want %v", i, got, want)
			}
			if got, want := c.Max(), sorted[len(sorted)-1].v; got != want {
				t.Fatalf("mix %d: Max = %v, want %v", i, got, want)
			}
			steps := c.Steps()
			for k, p := range steps[:nanEntries] {
				if !math.IsNaN(p.X) {
					t.Fatalf("mix %d: step %d = %+v, want NaN", i, k, p)
				}
			}
			if nanEntries > 0 && steps[nanEntries-1].F != float64(nanW)/float64(total) {
				t.Fatalf("mix %d: NaN steps end at %v, want %v", i, steps[nanEntries-1].F, float64(nanW)/float64(total))
			}
			for _, p := range steps[nanEntries:] {
				if math.IsNaN(p.X) || p.F != atOracle(p.X) {
					t.Fatalf("mix %d: step %+v, want F %v", i, p, atOracle(p.X))
				}
			}
			rng.Shuffle(len(samples), func(a, b int) { samples[a], samples[b] = samples[b], samples[a] })
		}
	}
}
