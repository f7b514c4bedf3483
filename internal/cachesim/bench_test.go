package cachesim

import (
	"testing"

	"repro/internal/trace"
)

// smokeEvents loads the checked-in smoke trace (seed 42, scale 0.01).
func smokeEvents(b *testing.B) ([]trace.Event, trace.Header) {
	rd, err := trace.OpenReader("../../testdata/traces/smoke.trc")
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	events, err := rd.AllEvents()
	if err != nil {
		b.Fatal(err)
	}
	return events, rd.Header()
}

// BenchmarkIONodeCache runs one Figure 9 configuration per policy over
// the checked-in smoke trace (seed 42, scale 0.01): the largest buffer
// count of the default sweep, 25000 buffers spread over the trace's
// I/O nodes. accesses/s is the block-access rate the cache layer
// sustains, the unit the benchmark's cachesim.accesses_per_s reports.
func BenchmarkIONodeCache(b *testing.B) {
	events, h := smokeEvents(b)
	blockBytes, ioNodes := h.BlockSize(), int(h.IONodes)
	for _, p := range AllPolicies() {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			var accesses int64
			for i := 0; i < b.N; i++ {
				accesses += IONodeCache(events, blockBytes, ioNodes, 25000, p).Accesses
			}
			b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}

// BenchmarkIONodeSweep runs one policy's whole default Figure 9 ladder
// (scenario.DefaultFig9Buffers, which this package cannot import) at 10
// I/O nodes over the smoke trace in a single pass. accesses/s counts
// the block accesses of every ladder point.
func BenchmarkIONodeSweep(b *testing.B) {
	events, h := smokeEvents(b)
	ladder := []int{125, 250, 500, 1000, 2000, 4000, 8000, 12000, 16000, 20000, 25000}
	for _, p := range AllPolicies() {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			var accesses int64
			for i := 0; i < b.N; i++ {
				for _, r := range IONodeSweep(events, h.BlockSize(), 10, ladder, p) {
					accesses += r.Accesses
				}
			}
			b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}
