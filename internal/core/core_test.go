package core

import (
	"bytes"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func smallStudy(t *testing.T, seed uint64) *Result {
	t.Helper()
	return RunStudy(DefaultConfig(seed, 0.02))
}

func TestRunStudyProducesAllOutputs(t *testing.T) {
	res := smallStudy(t, 42)
	if res.Trace == nil || res.Report == nil {
		t.Fatal("missing outputs")
	}
	if len(res.Events) == 0 {
		t.Fatal("no events")
	}
	if res.TraceRecords <= 0 || res.TraceMessages <= 0 || res.DiskOps <= 0 {
		t.Fatalf("instrumentation stats: %d %d %d",
			res.TraceRecords, res.TraceMessages, res.DiskOps)
	}
	if res.Horizon <= 0 {
		t.Fatal("no horizon")
	}
	if res.BlockBytes() != 4096 {
		t.Fatalf("block bytes = %d", res.BlockBytes())
	}
}

func TestStudyHeaderDescribesMachine(t *testing.T) {
	res := smallStudy(t, 42)
	h := res.Header
	if h.ComputeNodes != 128 || h.IONodes != 10 || h.BlockBytes != 4096 {
		t.Fatalf("header = %+v", h)
	}
	if h.Seed != 42 {
		t.Fatalf("seed = %d", h.Seed)
	}
}

func TestStudyTraceSerializes(t *testing.T) {
	res := smallStudy(t, 7)
	var buf bytes.Buffer
	if _, err := res.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumBlocks() != len(res.Trace.Blocks) {
		t.Fatal("trace round trip lost blocks")
	}
	// The postprocessed event streams must match too.
	a := trace.Postprocess(res.Trace)
	b, err := back.AllEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("postprocess: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs after round trip", i)
		}
	}
}

func TestStudyDeterministicAcrossRuns(t *testing.T) {
	a := smallStudy(t, 5)
	b := smallStudy(t, 5)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs between identical runs", i)
		}
	}
}

func TestDefaultConfigClampsScale(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	if cfg.Scale < 0.01 {
		t.Fatalf("scale = %v", cfg.Scale)
	}
}

func TestRunFig8ReturnsThreeSizes(t *testing.T) {
	res := smallStudy(t, 42)
	frs := RunFig8(res.Events, res.BlockBytes())
	if len(frs) != 3 {
		t.Fatalf("fig 8 configs = %d", len(frs))
	}
	want := []int{1, 10, 50}
	for i, fr := range frs {
		if fr.Buffers != want[i] {
			t.Fatalf("buffers[%d] = %d", i, fr.Buffers)
		}
		if len(fr.Jobs) == 0 {
			t.Fatal("no jobs in compute-node cache simulation")
		}
	}
	// More buffers can never hurt any job.
	for i := range frs[0].Jobs {
		if frs[2].Jobs[i].Hits < frs[0].Jobs[i].Hits {
			t.Fatal("50 buffers worse than 1 buffer for a job")
		}
	}
}

func TestFig9SweepShapes(t *testing.T) {
	res := smallStudy(t, 42)
	results := Fig9Sweep(res.Events, res.BlockBytes(), 10, cachesim.LRU, DefaultFig9Buffers())
	if len(results) != len(DefaultFig9Buffers()) {
		t.Fatalf("sweep points = %d", len(results))
	}
	// Hit rate is non-decreasing in cache size (same policy, same trace).
	for i := 1; i < len(results); i++ {
		if results[i].Rate() < results[i-1].Rate()-1e-9 {
			t.Fatalf("hit rate fell from %v to %v as cache grew",
				results[i-1].Rate(), results[i].Rate())
		}
	}
	// The biggest cache must meaningfully beat the smallest.
	if results[len(results)-1].Rate() <= results[0].Rate() {
		t.Fatal("cache size had no effect")
	}
}

func TestFig9SweepClampsTinyBufferCounts(t *testing.T) {
	res := smallStudy(t, 42)
	results := Fig9Sweep(res.Events, res.BlockBytes(), 20, cachesim.LRU, []int{1})
	if results[0].TotalBuffers < 20 {
		t.Fatalf("buffer count %d below I/O node count", results[0].TotalBuffers)
	}
}

func TestRunCombinedPreservesInterprocessHits(t *testing.T) {
	res := smallStudy(t, 42)
	comb := RunCombined(res.Events, res.BlockBytes())
	if comb.IONodeAlone.Accesses == 0 || comb.IONodeFiltered.Accesses == 0 {
		t.Fatal("combined simulation saw no traffic")
	}
	if comb.ComputeHits <= 0 {
		t.Fatal("compute-node layer absorbed nothing")
	}
	// Filtering must reduce I/O-node traffic but keep a solid hit rate
	// (the interprocess locality the paper highlights).
	if comb.IONodeFiltered.Accesses >= comb.IONodeAlone.Accesses {
		t.Fatal("filtering did not reduce I/O-node traffic")
	}
	if comb.IONodeFiltered.Rate() < comb.IONodeAlone.Rate()-0.5 {
		t.Fatalf("interprocess locality lost: %v -> %v",
			comb.IONodeAlone.Rate(), comb.IONodeFiltered.Rate())
	}
}

func TestWorkloadOverride(t *testing.T) {
	cfg := DefaultConfig(1, 0.02)
	wp := cfg.Workload
	if wp != nil {
		t.Fatal("default config should not preset workload")
	}
	// An override with only status jobs produces no CFS events.
	custom := DefaultConfig(1, 0.02)
	customWl := workloadOnlyStatus()
	custom.Workload = &customWl
	res := RunStudy(custom)
	for _, ev := range res.Events {
		if ev.IsData() {
			t.Fatal("status-only workload produced data events")
		}
	}
}

// workloadOnlyStatus returns a workload of nothing but status checks.
func workloadOnlyStatus() workload.Params {
	p := workload.Default(1)
	p.StatusCheckJobs = 50
	p.SystemUtilJobs = 0
	p.SingleReaderJobs = 0
	p.CFDSimJobs = 0
	p.RestartRunJobs = 0
	p.ParamStudyJobs = 0
	p.CheckpointJobs = 0
	p.RowPaddedJobs = 0
	p.ScratchJobs = 0
	p.BulkDumpJobs = 0
	p.LegacySharedJobs = 0
	p.UntracedParallJobs = 0
	p.Scale = 1
	return p
}
