package cachesim

import (
	"testing"

	"repro/internal/trace"
)

// BenchmarkIONodeCache runs one Figure 9 configuration per policy over
// the checked-in smoke trace (seed 42, scale 0.01): the largest buffer
// count of the default sweep, 25000 buffers spread over the trace's
// I/O nodes. accesses/s is the block-access rate the cache layer
// sustains, the unit the benchmark's cachesim.accesses_per_s reports.
func BenchmarkIONodeCache(b *testing.B) {
	rd, err := trace.OpenReader("../../testdata/traces/smoke.trc")
	if err != nil {
		b.Fatal(err)
	}
	events, err := rd.AllEvents()
	rd.Close()
	if err != nil {
		b.Fatal(err)
	}
	blockBytes := int64(rd.Header().BlockBytes)
	ioNodes := int(rd.Header().IONodes)
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
