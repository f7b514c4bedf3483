package trace_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestStudyMergeMatchesReference runs whole studies of three corpus
// mixes -- the calibrated NAS mix, read-mostly and checkpoint-heavy --
// and compares both merge block sources with the reference sort on
// each collected trace: Postprocess and PostprocessRaw over the
// in-memory blocks, and a Reader over their .trc encoding, which the
// trace's own Reader must match. The collected blocks must come out
// of it untouched.
func TestStudyMergeMatchesReference(t *testing.T) {
	mixes := []*core.Config{{}} // the NAS mix
	for _, name := range []string{"read-mostly", "checkpoint-heavy"} {
		spec, err := scenario.Load("../../testdata/scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.ScenarioSpecs(spec)[0].Config
		mixes = append(mixes, &cfg)
	}
	scales := []float64{0.01, 0.03, 0.05}
	for m, mix := range mixes {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := *mix
			cfg.Seed, cfg.Scale = seed, scales[seed-1]
			res := core.RunStudy(cfg)
			label := fmt.Sprintf("mix %d seed %d", m, seed)
			var collected []trace.Block
			for _, b := range res.Trace.Blocks {
				b.Events = append([]trace.Event(nil), b.Events...)
				collected = append(collected, b)
			}
			want := trace.ReferencePostprocess(res.Trace, true)
			same(t, res.Events, want, label+": RunStudy")
			same(t, trace.Postprocess(res.Trace), want, label+": Postprocess")
			same(t, trace.PostprocessRaw(res.Trace), trace.ReferencePostprocess(res.Trace, false), label+": PostprocessRaw")

			var buf bytes.Buffer
			if _, err := res.Trace.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			all, err := rd.AllEvents()
			if err != nil {
				t.Fatal(err)
			}
			same(t, all, want, label+": Reader")
			if err := trace.CompareTraceReader(res.Trace); err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			// Postprocessing left every block exactly as collected.
			for i, b := range collected {
				got := res.Trace.Blocks[i]
				if got.Node != b.Node || got.SendLocal != b.SendLocal || got.RecvCollector != b.RecvCollector {
					t.Fatalf("%s: block %d header changed", label, i)
				}
				same(t, got.Events, b.Events, fmt.Sprintf("%s: block %d", label, i))
			}
		}
	}
}

func same(t *testing.T, got, want []trace.Event, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d differs:\ngot  %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}
