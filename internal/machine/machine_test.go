package machine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cfs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func testConfig() Config {
	cfg := NASConfig(42)
	return cfg
}

func TestDriftClock(t *testing.T) {
	k := sim.New()
	c := NewDriftClock(k, 1000, 100) // +1 ms offset, +100 ppm
	if c.Now() != 1000 {
		t.Fatalf("at t=0: %v", c.Now())
	}
	k.RunUntil(10 * sim.Second)
	want := sim.Time(1000) + sim.Time(float64(10*sim.Second)*1.0001)
	if got := c.Now(); got != want {
		t.Fatalf("at t=10s: %v, want %v", got, want)
	}
	if c.Offset() != 1000 || c.DriftPPM() != 100 {
		t.Fatal("accessors wrong")
	}
}

func TestRandomDriftClockBounds(t *testing.T) {
	k := sim.New()
	rng := stats.NewRNG(7)
	for i := 0; i < 100; i++ {
		c := RandomDriftClock(k, rng, 100*sim.Millisecond, 100)
		if c.Offset() < -100*sim.Millisecond || c.Offset() > 100*sim.Millisecond {
			t.Fatalf("offset %v out of bounds", c.Offset())
		}
		if c.DriftPPM() < -100 || c.DriftPPM() > 100 {
			t.Fatalf("drift %v out of bounds", c.DriftPPM())
		}
	}
}

func TestMachineConstruction(t *testing.T) {
	k := sim.New()
	m := New(k, testConfig())
	if m.FS() == nil || m.Network() == nil || m.Kernel() != k {
		t.Fatal("accessors broken")
	}
	if m.Network().Nodes() != 128 {
		t.Fatalf("nodes = %d", m.Network().Nodes())
	}
	if m.Clock(0) == m.Clock(1) {
		t.Fatal("nodes share a clock")
	}
}

func TestSingleJobRunsOnAllNodes(t *testing.T) {
	k := sim.New()
	m := New(k, testConfig())
	ranks := make(map[int]bool)
	nodes := make(map[int]bool)
	m.Submit(JobSpec{
		Nodes:  8,
		Traced: true,
		Body: func(ctx *NodeCtx) {
			ranks[ctx.Rank] = true
			nodes[ctx.Node] = true
			if ctx.JobNodes != 8 {
				t.Errorf("JobNodes = %d", ctx.JobNodes)
			}
			ctx.P.Sleep(sim.Second)
		},
	})
	k.Run()
	if len(ranks) != 8 || len(nodes) != 8 {
		t.Fatalf("ranks=%d nodes=%d", len(ranks), len(nodes))
	}
	recs := m.JobRecords()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].End-recs[0].Start < sim.Second {
		t.Fatalf("job duration %v", recs[0].End-recs[0].Start)
	}
}

func TestJobsQueueWhenMachineFull(t *testing.T) {
	k := sim.New()
	m := New(k, testConfig())
	var secondStart sim.Time
	m.Submit(JobSpec{Nodes: 128, Body: func(ctx *NodeCtx) { ctx.P.Sleep(10 * sim.Second) }})
	m.Submit(JobSpec{Nodes: 64, Body: func(ctx *NodeCtx) {
		if ctx.Rank == 0 {
			secondStart = ctx.P.Now()
		}
	}})
	if m.RunningJobs() != 1 || m.QueuedJobs() != 1 {
		t.Fatalf("running=%d queued=%d", m.RunningJobs(), m.QueuedJobs())
	}
	k.Run()
	if secondStart < 10*sim.Second {
		t.Fatalf("second job started at %v before first finished", secondStart)
	}
}

func TestBackfillSmallJobPassesBigOne(t *testing.T) {
	k := sim.New()
	m := New(k, testConfig())
	var smallStart sim.Time
	m.Submit(JobSpec{Nodes: 64, Body: func(ctx *NodeCtx) { ctx.P.Sleep(20 * sim.Second) }})
	m.Submit(JobSpec{Nodes: 128, Body: nil})               // must wait for the 64
	m.Submit(JobSpec{Nodes: 32, Body: func(ctx *NodeCtx) { // fits now
		if ctx.Rank == 0 {
			smallStart = ctx.P.Now()
		}
	}})
	k.Run()
	if smallStart >= 20*sim.Second {
		t.Fatalf("32-node job did not backfill; started at %v", smallStart)
	}
}

func TestTracedJobProducesEvents(t *testing.T) {
	k := sim.New()
	m := New(k, testConfig())
	m.Submit(JobSpec{
		Nodes:  4,
		Traced: true,
		Body: func(ctx *NodeCtx) {
			h, err := ctx.CFS.Open(ctx.P, "/out/x", cfs.OWrOnly|cfs.OCreate, cfs.Mode0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 5; i++ {
				h.Write(ctx.P, 2000)
			}
			h.Close(ctx.P)
		},
	})
	k.Run()
	tr := m.FinishTracing()
	events := trace.Postprocess(tr)
	var opens, writes, closes, starts, ends int
	for _, ev := range events {
		switch ev.Type {
		case trace.EvOpen:
			opens++
		case trace.EvWrite:
			writes++
		case trace.EvClose:
			closes++
		case trace.EvJobStart:
			starts++
		case trace.EvJobEnd:
			ends++
		}
	}
	if opens != 4 || closes != 4 || writes != 20 {
		t.Fatalf("opens=%d closes=%d writes=%d", opens, closes, writes)
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("job events: %d starts %d ends", starts, ends)
	}
}

func TestUntracedJobLeavesNoCFSEvents(t *testing.T) {
	k := sim.New()
	m := New(k, testConfig())
	m.Submit(JobSpec{
		Nodes:  2,
		Traced: false,
		Body: func(ctx *NodeCtx) {
			h, _ := ctx.CFS.Open(ctx.P, "/quiet", cfs.OWrOnly|cfs.OCreate, cfs.Mode0)
			h.Write(ctx.P, 1000)
			h.Close(ctx.P)
		},
	})
	k.Run()
	tr := m.FinishTracing()
	for _, ev := range trace.Postprocess(tr) {
		if ev.IsData() || ev.Type == trace.EvOpen || ev.Type == trace.EvClose {
			t.Fatalf("untraced job produced CFS event %v", ev)
		}
		if ev.Type == trace.EvJobStart && ev.Flags&trace.FlagInstrumented != 0 {
			t.Fatal("untraced job marked instrumented")
		}
	}
}

func TestTraceTimestampsCorrected(t *testing.T) {
	// Two nodes of a job write alternately with real time between
	// them; after postprocessing, each node's events must be in
	// near-true order even though local clocks are offset.
	k := sim.New()
	m := New(k, testConfig())
	m.Submit(JobSpec{
		Nodes:  2,
		Traced: true,
		Body: func(ctx *NodeCtx) {
			h, _ := ctx.CFS.Open(ctx.P, "/f", cfs.OWrOnly|cfs.OCreate, cfs.Mode0)
			for i := 0; i < 30; i++ {
				ctx.P.Sleep(sim.Second)
				h.Write(ctx.P, 100)
			}
			h.Close(ctx.P)
		},
	})
	k.Run()
	tr := m.FinishTracing()
	corrected := trace.Postprocess(tr)
	// With <=100 ms offsets and writes 1 s apart per node, the global
	// corrected order must interleave both nodes rather than batching
	// one node entirely before the other.
	var nodeSeq []uint16
	for _, ev := range corrected {
		if ev.Type == trace.EvWrite {
			nodeSeq = append(nodeSeq, ev.Node)
		}
	}
	switches := 0
	for i := 1; i < len(nodeSeq); i++ {
		if nodeSeq[i] != nodeSeq[i-1] {
			switches++
		}
	}
	if switches < 20 {
		t.Fatalf("corrected order interleaves poorly: %d switches in %d writes",
			switches, len(nodeSeq))
	}
}

func TestTraceBufferingReducesMessages(t *testing.T) {
	k := sim.New()
	m := New(k, testConfig())
	m.Submit(JobSpec{
		Nodes:  1,
		Traced: true,
		Body: func(ctx *NodeCtx) {
			h, _ := ctx.CFS.Open(ctx.P, "/f", cfs.OWrOnly|cfs.OCreate, cfs.Mode0)
			for i := 0; i < 1000; i++ {
				h.Write(ctx.P, 100)
			}
			h.Close(ctx.P)
		},
	})
	k.Run()
	m.FinishTracing()
	records, messages := m.TraceRecords(), m.TraceMessages()
	if records < 1000 {
		t.Fatalf("records = %d", records)
	}
	if float64(messages) > 0.1*float64(records) {
		t.Fatalf("buffering shipped %d messages for %d records", messages, records)
	}
}

func TestFinishTracingTwiceIsStable(t *testing.T) {
	k := sim.New()
	m := New(k, testConfig())
	m.Submit(JobSpec{Nodes: 1, Traced: true, Body: func(ctx *NodeCtx) {
		h, _ := ctx.CFS.Open(ctx.P, "/f", cfs.OWrOnly|cfs.OCreate, cfs.Mode0)
		h.Write(ctx.P, 10)
		h.Close(ctx.P)
	}})
	k.Run()
	t1 := m.FinishTracing()
	t2 := m.FinishTracing()
	if len(t1.Blocks) != len(t2.Blocks) {
		t.Fatal("FinishTracing not idempotent")
	}
}

func TestSubmitAfterFinishPanics(t *testing.T) {
	for name, build := range map[string]func(*sim.Kernel, Config) *Machine{
		"traced":   New,
		"untraced": NewUntraced,
	} {
		t.Run(name, func(t *testing.T) {
			k := sim.New()
			m := build(k, testConfig())
			k.Run()
			m.FinishTracing()
			defer func() {
				if recover() == nil {
					t.Fatal("submit after finish did not panic")
				}
			}()
			m.Submit(JobSpec{Nodes: 1})
		})
	}
}

// submitMix schedules a small job set on m that exercises the queue,
// the allocator, and every I/O node: traced and untraced jobs of every
// size, the larger ones queueing behind each other, each node reading
// a shared preloaded file and writing its own.
func submitMix(m *Machine) {
	if err := m.Preload("/in", 1<<20); err != nil {
		panic(err)
	}
	for i := 0; i < 16; i++ {
		m.SubmitAt(sim.Time(i)*50*sim.Millisecond, JobSpec{
			Nodes:  1 << (i % 8),
			Traced: i%3 != 0,
			Body: func(ctx *NodeCtx) {
				if h, err := ctx.CFS.Open(ctx.P, "/in", cfs.ORdOnly, cfs.Mode0); err == nil {
					h.ReadAt(ctx.P, int64(ctx.Rank)*8192, 8192)
					h.Close(ctx.P)
				}
				name := fmt.Sprintf("/out/%d.%d", ctx.JobID, ctx.Rank)
				if h, err := ctx.CFS.Open(ctx.P, name, cfs.OWrOnly|cfs.OCreate, cfs.Mode0); err == nil {
					for j := 0; j < 10; j++ {
						h.Write(ctx.P, 1000)
					}
					h.Close(ctx.P)
				}
			},
		})
	}
}

func TestUntracedMachineMatchesTraced(t *testing.T) {
	kt, ku := sim.New(), sim.New()
	traced, untraced := New(kt, testConfig()), NewUntraced(ku, testConfig())
	submitMix(traced)
	submitMix(untraced)
	kt.Run()
	ku.Run()
	if tr := traced.FinishTracing(); tr == nil || traced.TraceRecords() == 0 {
		t.Fatal("traced machine collected no trace")
	}
	if tr := untraced.FinishTracing(); tr != nil {
		t.Fatalf("untraced FinishTracing returned a trace with %d blocks", len(tr.Blocks))
	}
	if n, m := untraced.TraceRecords(), untraced.TraceMessages(); n != 0 || m != 0 {
		t.Fatalf("untraced machine recorded %d events in %d messages", n, m)
	}
	if !reflect.DeepEqual(untraced.JobRecords(), traced.JobRecords()) {
		t.Fatalf("job records differ:\nuntraced %+v\ntraced   %+v", untraced.JobRecords(), traced.JobRecords())
	}
	if len(traced.JobRecords()) != 16 {
		t.Fatalf("%d jobs ran, want 16", len(traced.JobRecords()))
	}
	if !reflect.DeepEqual(untraced.IONodeQueueStats(), traced.IONodeQueueStats()) {
		t.Fatalf("I/O queue stats differ:\nuntraced %+v\ntraced   %+v", untraced.IONodeQueueStats(), traced.IONodeQueueStats())
	}
	if u, tr := untraced.FS().TotalDiskOps(), traced.FS().TotalDiskOps(); u != tr || u == 0 {
		t.Fatalf("disk ops: untraced %d, traced %d", u, tr)
	}
	if ku.Now() != kt.Now() {
		t.Fatalf("final time: untraced %v, traced %v", ku.Now(), kt.Now())
	}
}

func TestDeterministicTraces(t *testing.T) {
	runOnce := func() int64 {
		k := sim.New()
		m := New(k, testConfig())
		for i := 0; i < 5; i++ {
			m.SubmitAt(sim.Time(i)*sim.Second, JobSpec{
				Nodes:  4,
				Traced: true,
				Body: func(ctx *NodeCtx) {
					h, _ := ctx.CFS.Open(ctx.P, "/d", cfs.ORdWr|cfs.OCreate, cfs.Mode0)
					h.WriteAt(ctx.P, int64(ctx.Rank)*1000, 1000)
					h.Close(ctx.P)
				},
			})
		}
		k.Run()
		tr := m.FinishTracing()
		var sig int64
		for _, ev := range trace.Postprocess(tr) {
			sig = sig*31 + ev.Time + int64(ev.Type) + ev.Offset
		}
		return sig
	}
	if runOnce() != runOnce() {
		t.Fatal("two identical runs produced different traces")
	}
}

func TestStridedAppEndToEnd(t *testing.T) {
	// An application using the strided extension (the paper's Section 5
	// proposal) produces strided trace records that survive collection
	// and postprocessing.
	k := sim.New()
	m := New(k, testConfig())
	if _, err := m.FS().Preload("/matrix", 1<<20); err != nil {
		t.Fatal(err)
	}
	m.Submit(JobSpec{
		Nodes:  4,
		Traced: true,
		Body: func(ctx *NodeCtx) {
			h, err := ctx.CFS.Open(ctx.P, "/matrix", cfs.ORdOnly, cfs.Mode0)
			if err != nil {
				t.Error(err)
				return
			}
			// Each node reads its column of a 4-column matrix in one
			// strided request.
			off := int64(ctx.Rank) * 1024
			if _, err := h.ReadStrided(ctx.P, off, 1024, 4096, 64); err != nil {
				t.Error(err)
			}
			h.Close(ctx.P)
		},
	})
	k.Run()
	tr := m.FinishTracing()
	events := trace.Postprocess(tr)
	strided := 0
	for _, ev := range events {
		if ev.Type == trace.EvReadStrided {
			strided++
			if ev.Size != 1024 || ev.Stride != 4096 || ev.Count != 64 {
				t.Fatalf("strided record = %+v", ev)
			}
		}
	}
	if strided != 4 {
		t.Fatalf("strided records = %d, want 4", strided)
	}
}
