package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/cfs"
	"repro/internal/machine"
	"repro/internal/sim"
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

// TestDiskBlocksFitBlockTables: the file system keeps disk-block
// numbers in 32 bits, so cfs.New refuses a drive of 2^31 blocks and
// takes one of 2^31-1; every machine preset, and the NAS machine with
// the drive growth of a full-scale study, fits. Building a file system
// only sizes its drives, so no block is allocated.
func TestDiskBlocksFitBlockTables(t *testing.T) {
	build := func(fc cfs.Config) (err any) {
		defer func() { err = recover() }()
		cfs.New(sim.New(), fc, nil)
		return nil
	}
	fc := cfs.DefaultConfig()
	fc.IONodes = 1
	fc.IONode.Disk.CapacityBytes = math.MaxInt32 * int64(fc.IONode.Disk.BlockBytes)
	if err := build(fc); err != nil {
		t.Fatalf("a drive of 2^31-1 blocks refused: %v", err)
	}
	fc.IONode.Disk.CapacityBytes += int64(fc.IONode.Disk.BlockBytes)
	if err := build(fc); err == nil || !strings.Contains(fmt.Sprint(err), "2147483648 blocks") {
		t.Fatalf("a drive of 2^31 blocks: panic %v, want one naming its block count", err)
	}
	for _, name := range machine.PresetNames() {
		mc, err := machine.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := build(mc.FS); err != nil {
			t.Errorf("preset %s: %v", name, err)
		}
	}
	_, mc := studyParams(DefaultConfig(1, 1))
	if grown, nas := mc.FS.IONode.Disk.CapacityBytes, machine.NASConfig(1).FS.IONode.Disk.CapacityBytes; grown <= nas {
		t.Fatalf("scale 1 drive %d bytes, not grown past the NAS drive's %d", grown, nas)
	}
	if err := build(mc.FS); err != nil {
		t.Errorf("scale 1: %v", err)
	}
}

// TestCheckScale: command lines take finite scales in (0, 1]; smaller
// positive ones are clamped later, not refused.
func TestCheckScale(t *testing.T) {
	for _, ok := range []float64{1e-9, MinScale, 0.5, 1} {
		if err := CheckScale(ok); err != nil {
			t.Errorf("CheckScale(%v): %v", ok, err)
		}
	}
	for _, bad := range []float64{0, -0.5, 1.0000001, 736, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckScale(bad); err == nil || !strings.Contains(err.Error(), "out of range (0, 1]") {
			t.Errorf("CheckScale(%v) = %v, want out of range", bad, err)
		}
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
