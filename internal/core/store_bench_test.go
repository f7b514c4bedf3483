package core

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSweepStoreClaim measures the work-stealing scheduler's
// per-spec overhead: one claim (O_EXCL lease create), one outcome
// commit (temp-file + rename), and one lease release. This is the
// store tax a spec pays on top of its simulation; at tens of
// microseconds against studies that run for seconds, claim overhead
// never governs sweep throughput.
func BenchmarkSweepStoreClaim(b *testing.B) {
	dir := b.TempDir()
	store := StoreConfig{Dir: dir}
	out := StudyOutcome{Spec: StudySpec{Label: "bench"}, Done: true, ReportText: "bench report"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := fmt.Sprintf("%032x", i)
		claimed, _, err := tryClaim(dir, fp, "bench#0", time.Minute)
		if err != nil || !claimed {
			b.Fatalf("claim %d: claimed=%v err=%v", i, claimed, err)
		}
		if err := persistOutcome(store, fp, &out); err != nil {
			b.Fatal(err)
		}
		releaseLease(dir, fp)
	}
}
