package disk

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestGeometry(t *testing.T) {
	d := New(CDC760MB())
	wantBlocks := int64(760<<20) / 4096
	if d.Blocks() != wantBlocks {
		t.Fatalf("blocks = %d, want %d", d.Blocks(), wantBlocks)
	}
	if d.Config().BlockBytes != 4096 {
		t.Fatalf("block bytes = %d", d.Config().BlockBytes)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := []Config{
		{CapacityBytes: 0, BlockBytes: 4096, Cylinders: 10, BytesPerSecond: 1},
		{CapacityBytes: 1 << 20, BlockBytes: 0, Cylinders: 10, BytesPerSecond: 1},
		{CapacityBytes: 1 << 20, BlockBytes: 4096, Cylinders: 0, BytesPerSecond: 1},
		{CapacityBytes: 1 << 20, BlockBytes: 4096, Cylinders: 10, BytesPerSecond: 0},
		{CapacityBytes: 1 << 20, BlockBytes: 4096, Cylinders: 10, BytesPerSecond: math.NaN()},
		{CapacityBytes: 1 << 20, BlockBytes: 4096, Cylinders: 10, BytesPerSecond: math.Inf(1)},
		{CapacityBytes: 1 << 20, BlockBytes: 4096, Cylinders: 10, BytesPerSecond: math.Inf(-1)},
		{Kind: "flash", CapacityBytes: 1 << 20, BlockBytes: 4096, BytesPerSecond: math.NaN()},
		{Kind: "flash", CapacityBytes: 1 << 20, BlockBytes: 4096, BytesPerSecond: math.Inf(1)},
		{CapacityBytes: 1 << 20, BlockBytes: 4096, Cylinders: 10, BytesPerSecond: 1, MinSeek: -30 * sim.Millisecond},
		{CapacityBytes: 1 << 20, BlockBytes: 4096, Cylinders: 10, BytesPerSecond: 1, MaxSeek: -30 * sim.Millisecond},
		{CapacityBytes: 1 << 20, BlockBytes: 4096, Cylinders: 10, BytesPerSecond: 1, RotationPeriod: -40 * sim.Millisecond},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// TestSingleCylinderSeekFinite is the regression test for the
// seekTime divide-by-zero: a one-cylinder drive has a zero-length
// stroke, so normalizing the seek distance by Cylinders-1 used to
// compute dist/0 and poison every downstream service time with NaN.
// The stroke clamp bounds any seek on degenerate geometry by the
// full-stroke cost instead.
func TestSingleCylinderSeekFinite(t *testing.T) {
	cfg := CDC760MB()
	cfg.CapacityBytes = 1 << 20
	cfg.Cylinders = 1
	d := New(cfg)
	if got := d.seekTime(0, 0); got != 0 {
		t.Fatalf("seekTime(0,0) = %v, want 0", got)
	}
	// cylinderOf can never produce two distinct cylinders on this
	// geometry, but seekTime itself must still be total: a nonzero
	// distance over the clamped stroke costs exactly the full-stroke
	// seek, not Inf or NaN.
	if got := d.seekTime(1, 0); got != cfg.MaxSeek {
		t.Fatalf("seekTime(1,0) = %v, want MaxSeek %v", got, cfg.MaxSeek)
	}
	var total sim.Time
	for i := 0; i < 32; i++ {
		block := (int64(i) * 37) % d.Blocks()
		st := d.ServiceTime(block, 1, false)
		if st <= 0 {
			t.Fatalf("ServiceTime(%d) = %v, want finite positive", block, st)
		}
		total += st
	}
	if total <= 0 || total > sim.Time(32)*(cfg.MaxSeek+cfg.RotationPeriod+sim.Second) {
		t.Fatalf("accumulated single-cylinder service time %v out of bounds", total)
	}
}

func TestSequentialCheaperThanRandom(t *testing.T) {
	seqDisk := New(CDC760MB())
	var seq sim.Time
	for b := int64(0); b < 100; b++ {
		seq += seqDisk.ServiceTime(b, 1, false)
	}
	rndDisk := New(CDC760MB())
	var rnd sim.Time
	for i := 0; i < 100; i++ {
		// Jump across the disk in big strides.
		block := (int64(i) * 104729) % rndDisk.Blocks()
		rnd += rndDisk.ServiceTime(block, 1, false)
	}
	if seq*2 >= rnd {
		t.Fatalf("sequential %v not much cheaper than random %v", seq, rnd)
	}
}

func TestSequentialFollowOnSkipsRotation(t *testing.T) {
	d := New(CDC760MB())
	first := d.ServiceTime(0, 1, false)
	second := d.ServiceTime(1, 1, false)
	if second >= first {
		t.Fatalf("follow-on %v should be cheaper than cold %v", second, first)
	}
}

func TestLargerTransfersTakeLonger(t *testing.T) {
	a := New(CDC760MB())
	small := a.ServiceTime(0, 1, false)
	b := New(CDC760MB())
	large := b.ServiceTime(0, 64, false)
	if large <= small {
		t.Fatalf("64-block %v <= 1-block %v", large, small)
	}
}

func TestCountersTrackOps(t *testing.T) {
	d := New(CDC760MB())
	d.ServiceTime(0, 1, false)
	d.ServiceTime(1, 1, true)
	d.ServiceTime(2, 1, true)
	if d.Reads() != 1 || d.Writes() != 2 {
		t.Fatalf("reads=%d writes=%d", d.Reads(), d.Writes())
	}
	if d.BusyTime() <= 0 {
		t.Fatal("busy time not accumulated")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := New(CDC760MB())
	for _, tc := range []struct {
		block int64
		count int
	}{
		{-1, 1},
		{d.Blocks(), 1},
		{d.Blocks() - 1, 2},
		{0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("block=%d count=%d did not panic", tc.block, tc.count)
				}
			}()
			d.ServiceTime(tc.block, tc.count, false)
		}()
	}
}

func TestFullStrokeSeekCostsMost(t *testing.T) {
	d := New(CDC760MB())
	d.ServiceTime(0, 1, false)
	farTime := d.ServiceTime(d.Blocks()-1, 1, false)
	d2 := New(CDC760MB())
	d2.ServiceTime(0, 1, false)
	nearTime := d2.ServiceTime(d2.Blocks()/100, 1, false)
	if farTime <= nearTime {
		t.Fatalf("full-stroke %v <= short seek %v", farTime, nearTime)
	}
}

// Property: service time is always positive and bounded by a sane
// ceiling (seek + rotation + transfer of the whole request).
func TestQuickServiceTimeBounds(t *testing.T) {
	cfg := CDC760MB()
	d := New(cfg)
	f := func(blockRaw uint32, countRaw uint8) bool {
		count := int(countRaw%64) + 1
		block := int64(blockRaw) % (d.Blocks() - int64(count))
		got := d.ServiceTime(block, count, false)
		if got <= 0 {
			return false
		}
		bytes := float64(count) * float64(cfg.BlockBytes)
		ceiling := cfg.MaxSeek + cfg.RotationPeriod +
			sim.Time(bytes/cfg.BytesPerSecond*float64(sim.Second)) + sim.Millisecond
		return got <= ceiling
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: op counters equal the number of calls.
func TestQuickCountersConsistent(t *testing.T) {
	f := func(ops []bool) bool {
		d := New(CDC760MB())
		for _, w := range ops {
			d.ServiceTime(0, 1, w)
		}
		return d.Reads()+d.Writes() == int64(len(ops))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRandomAccessMoments cross-checks the closed-form moments (the
// 8/15 and 1/3 uniform-|x-y| constants) against a Monte-Carlo sample
// of the same service model: seek between two uniform cylinder
// fractions, half a revolution, one block at media rate.
func TestRandomAccessMoments(t *testing.T) {
	cfg := CDC760MB()
	mean, second := cfg.RandomAccessMoments()
	if second <= mean*mean {
		t.Fatalf("second moment %v <= mean^2 %v: no variance", second, mean*mean)
	}

	minS := cfg.MinSeek.ToSeconds()
	deltaS := (cfg.MaxSeek - cfg.MinSeek).ToSeconds()
	fixed := cfg.RotationPeriod.ToSeconds()/2 + float64(cfg.BlockBytes)/cfg.BytesPerSecond
	// Deterministic low-discrepancy sample over the unit square.
	const n = 2000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := (float64(i) + 0.5) / n
			y := (float64(j) + 0.5) / n
			d := x - y
			if d < 0 {
				d = -d
			}
			s := minS + deltaS*sqrt(d) + fixed
			sum += s
			sumSq += s * s
		}
	}
	gotMean := sum / (n * n)
	gotSecond := sumSq / (n * n)
	if rel := abs(gotMean-mean) / mean; rel > 1e-3 {
		t.Errorf("mean: closed form %v vs sampled %v (rel %v)", mean, gotMean, rel)
	}
	if rel := abs(gotSecond-second) / second; rel > 1e-3 {
		t.Errorf("second moment: closed form %v vs sampled %v (rel %v)", second, gotSecond, rel)
	}
}

func sqrt(x float64) float64 { return math.Sqrt(x) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
