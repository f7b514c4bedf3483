package core

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
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

// BenchmarkSweepStoreDrain measures one whole drain of 64 instant
// specs into a fresh run directory, at one and at four workers: the
// manifest, the stale sweep, every spec's stat, claim, commit and
// release, and the worker stats, with no simulation in the way.
func BenchmarkSweepStoreDrain(b *testing.B) {
	seeds := make([]uint64, 64)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	specs := CrossSpecs(seeds, []float64{0.01})
	labels, fps := specKeys("", specs)
	costs := specCosts(specs)
	exec := func(_, i int) (StudyOutcome, error) {
		return StudyOutcome{Spec: specs[i], Done: true}, nil
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			root := b.TempDir()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				store := StoreConfig{Dir: filepath.Join(root, strconv.Itoa(i)), WorkerID: "bench", LeaseTTL: time.Minute}
				run, err := runStore(context.Background(), workers, store, labels, fps, costs, exec)
				if err != nil {
					b.Fatal(err)
				}
				if len(run.Ran) != len(specs) {
					b.Fatalf("drain ran %d specs, want %d", len(run.Ran), len(specs))
				}
			}
		})
	}
}
