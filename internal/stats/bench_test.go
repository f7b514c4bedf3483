package stats

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkCDFAddN measures bulk weighted insertion, the analysis
// layer's pattern for byte-weighted request-size CDFs (thousands of
// bytes of weight per distinct size).
func BenchmarkCDFAddN(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var c CDF
		for s := 0; s < 64; s++ {
			c.AddN(float64(1+s%7)*512, 1000)
		}
		if c.Len() != 64000 {
			b.Fatalf("len = %d", c.Len())
		}
	}
}

// BenchmarkCDFAdd measures single-sample insertion.
func BenchmarkCDFAdd(b *testing.B) {
	var c CDF
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(float64(i % 4096))
	}
}

// BenchmarkCDFQuantile measures query cost on a freshly-dirtied CDF
// (sort + search), the Analyze/Format pattern.
func BenchmarkCDFQuantile(b *testing.B) {
	var c CDF
	for i := 0; i < 4096; i++ {
		c.AddN(float64(i*37%1000), 1+i%5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(float64(i % 1000)) // dirty the sort
		if v := c.Quantile(0.5); v < 0 {
			b.Fatal(v)
		}
	}
}

// BenchmarkCDFAt measures repeated queries on a clean (sorted) CDF.
func BenchmarkCDFAt(b *testing.B) {
	var c CDF
	for i := 0; i < 4096; i++ {
		c.AddN(float64(i*37%1000), 1+i%5)
	}
	c.Quantile(0.5) // force the sort once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.At(float64(i % 1000))
	}
}

// cdfSamples is the sample stream of the two CDF insertion
// benchmarks below.
var cdfSamples struct {
	distinct, sizes []float64
}

// requestSizeStream returns 176,944 samples over 1,343 distinct
// values, shaped like the NAS study's read sizes (seed 1, scale 0.1):
// Zipf-skewed sizes, in runs as a node reads a file in one size.
func requestSizeStream() []float64 {
	rng := rand.New(rand.NewPCG(1, 177))
	zipf := rand.NewZipf(rng, 1.1, 20, 1342)
	out := make([]float64, 0, 176944)
	for len(out) < cap(out) {
		v := float64(512 * (1 + zipf.Uint64()))
		for run := 1 + rng.IntN(16); run > 0 && len(out) < cap(out); run-- {
			out = append(out, v)
		}
	}
	return out
}

// benchmarkCDFFill adds every sample to a fresh CDF and takes one
// quantile, per op.
func benchmarkCDFFill(b *testing.B, samples []float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c CDF
		for _, v := range samples {
			c.Add(v)
		}
		if c.Quantile(0.5) <= 0 {
			b.Fatal("no median")
		}
	}
}

// BenchmarkCDFAddDistinct fills a CDF with 176,944 samples that are
// all distinct, in random order: coalescing finds nothing to merge,
// so every compaction is a sort that frees no memory.
func BenchmarkCDFAddDistinct(b *testing.B) {
	if cdfSamples.distinct == nil {
		rng := rand.New(rand.NewPCG(1, 178))
		cdfSamples.distinct = make([]float64, 176944)
		for i, p := range rng.Perm(len(cdfSamples.distinct)) {
			cdfSamples.distinct[i] = float64(1 + p)
		}
	}
	benchmarkCDFFill(b, cdfSamples.distinct)
}

// BenchmarkCDFAddRequestSizes fills a CDF with a request-size stream
// shaped like the NAS study's: 1,343 distinct sizes over 176,944
// samples.
func BenchmarkCDFAddRequestSizes(b *testing.B) {
	if cdfSamples.sizes == nil {
		cdfSamples.sizes = requestSizeStream()
	}
	benchmarkCDFFill(b, cdfSamples.sizes)
}
