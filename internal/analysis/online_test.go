package analysis

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// hostileStream returns a random event stream that breaks the rules a
// simulated study keeps: closes without opens, deletes of files never
// opened, repeated job starts and ends without starts, strided events
// with Count 0, negative offsets and sizes, requests that saturate at
// MaxInt64, out-of-range I/O modes, sometimes one file on 128 nodes,
// and sometimes more distinct sizes and gaps per file than a valueSet
// holds inline.
func hostileStream(rng *rand.Rand) []trace.Event {
	files := make([]uint64, 1+rng.IntN(6))
	for i := range files {
		files[i] = []uint64{uint64(i), rng.Uint64(), math.MaxUint64 - uint64(i)}[rng.IntN(3)]
	}
	nodes := 1 + rng.IntN(8)
	if rng.IntN(6) == 0 {
		files, nodes = files[:1], 128
	}
	sizes := make([]int64, 1+rng.IntN([]int{2, 5, 40}[rng.IntN(3)]))
	for i := range sizes {
		sizes[i] = 1 + rng.Int64N(1<<16)
	}
	jobs := 1 + rng.IntN(5)
	ends := map[[2]uint64]int64{} // each (file, node) pair's last request end
	var events []trace.Event
	var t int64
	for i, n := 0, rng.IntN(600); i < n; i++ {
		t += rng.Int64N(3) * 1000
		ev := trace.Event{
			Time: t,
			Job:  uint32(rng.IntN(jobs)),
			Node: uint16(rng.IntN(nodes)),
			File: files[rng.IntN(len(files))],
		}
		switch k := rng.IntN(24); {
		case k == 0:
			ev.Type = trace.EvJobStart
			ev.Size = []int64{0, 1, 2, 16, 128}[rng.IntN(5)]
		case k == 1:
			ev.Type = trace.EvJobEnd
		case k <= 4:
			ev.Type = trace.EvOpen
			ev.Mode = uint8(rng.IntN(6))
			if rng.IntN(3) == 0 {
				ev.Flags = trace.FlagCreate
			}
		case k <= 6:
			ev.Type = trace.EvClose
			ev.Size = rng.Int64N(1<<20) - 10
		case k == 7:
			ev.Type = trace.EvDelete
		case k == 8:
			ev.Type = trace.EvSeek
		default:
			ev.Type = []trace.EventType{trace.EvRead, trace.EvWrite, trace.EvReadStrided, trace.EvWriteStrided}[rng.IntN(4)]
			ev.Size = sizes[rng.IntN(len(sizes))]
			switch rng.IntN(12) {
			case 0:
				ev.Size = 0
			case 1:
				ev.Size = -1 - rng.Int64N(100)
			case 2:
				ev.Size = math.MaxInt64
			}
			ev.Offset = rng.Int64N(1 << 18)
			switch rng.IntN(10) {
			case 0:
				ev.Offset = -rng.Int64N(1 << 12)
			case 1:
				ev.Offset = math.MaxInt64 - rng.Int64N(1<<12)
			case 2, 3:
				ev.Offset = int64(rng.IntN(64)) * 4096
			case 4, 5, 6:
				ev.Offset = ends[[2]uint64{ev.File, uint64(ev.Node)}] // consecutive
			}
			if ev.IsStrided() {
				ev.Count = uint32(rng.IntN(5))
				ev.Stride = rng.Int64N(1<<14) - 100
				ev.Size %= 1 << 12
			}
			ends[[2]uint64{ev.File, uint64(ev.Node)}] = ev.Offset + ev.Size
		}
		events = append(events, ev)
	}
	return events
}

// dumpReport renders every field of a Report: CDFs by their sample
// count and full step curve, histograms by their keys and counts, and
// everything else with %#v (maps print in key order).
func dumpReport(r *Report) string {
	var b strings.Builder
	cdf := func(c *stats.CDF) string {
		if c == nil {
			return "nil"
		}
		return fmt.Sprintf("len %d steps %v", c.Len(), c.Steps())
	}
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(&b, "%s: ", v.Type().Field(i).Name)
		switch x := v.Field(i).Interface().(type) {
		case *stats.CDF:
			b.WriteString(cdf(x))
		case map[FileClass]*stats.CDF:
			fmt.Fprintf(&b, "%d classes", len(x))
			for c := Untouched; c < numClasses; c++ {
				fmt.Fprintf(&b, "; %v %s", c, cdf(x[c]))
			}
		case *stats.Hist:
			for _, k := range x.Keys() {
				fmt.Fprintf(&b, "%d:%d ", k, x.Count(k))
			}
			fmt.Fprintf(&b, "total %d", x.Total())
		default:
			fmt.Fprintf(&b, "%#v", x)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestOnlineMatchesReference is the differential against refOnline,
// the analyzer before its state went dense: every Report field and
// the formatted report must match on hostile streams, analyzed fresh
// and on a Scratch reused across the streams.
func TestOnlineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 3))
	pooled := &Scratch{}
	for i := 0; i < 2000; i++ {
		events := hostileStream(rng)
		h := header()
		h.BlockBytes = []uint32{0, 1, 7, 4096}[rng.IntN(4)]
		horizon := sim.Time(0)
		if rng.IntN(2) == 0 {
			horizon = sim.Time(rng.Int64N(1 << 20))
		}
		ref := newRefOnline(h)
		for j := range events {
			ref.Observe(&events[j])
		}
		want := ref.Finish(horizon)
		for _, s := range []*Scratch{nil, pooled} {
			o := OnlineInto(s, h)
			for j := range events {
				o.Observe(&events[j])
			}
			got := o.Finish(horizon)
			if g, w := dumpReport(got), dumpReport(want); g != w {
				t.Fatalf("stream %d (pooled %v): report differs\ngot:\n%s\nreference:\n%s", i, s != nil, g, w)
			}
			if got.Format() != want.Format() {
				t.Fatalf("stream %d (pooled %v): Format differs", i, s != nil)
			}
		}
	}
}
