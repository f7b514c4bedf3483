package disk

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// This file keeps the drive code from before the two drive kinds were
// one type -- the Model interface, the rotating drive and the flash
// drive, each with its own range checks, counters and wear arithmetic
// -- as the oracle for TestDiskMatchesReference. It is reference
// code: do not change it to match the Disk type.

// refModel is the drive surface both reference drives implement.
type refModel interface {
	ServiceTime(block int64, count int, isWrite bool) sim.Time
	Blocks() int64
	Reads() int64
	Writes() int64
	BusyTime() sim.Time
	SetWear(Wear)
	WearExtra() sim.Time
	ServiceMoments() (mean, second float64)
	Config() Config
}

// refNew builds the reference drive cfg.Kind selects.
func refNew(cfg Config) refModel {
	switch strings.ToLower(cfg.Kind) {
	case "", "rotating":
		return refNewRotating(cfg)
	case "flash":
		return refNewFlash(cfg)
	}
	panic(fmt.Sprintf("disk: unknown model kind %q", cfg.Kind))
}

// refDisk is the reference rotating drive.
type refDisk struct {
	cfg       Config
	headCyl   int
	nextBlock int64 // block following the last transfer; -1 when cold
	blocks    int64
	blocksPer int64 // blocks per cylinder
	reads     int64
	writes    int64
	busy      sim.Time // accumulated service time
	wear      *Wear    // nil on a healthy drive
	wearExtra sim.Time // service time added by wear
}

func (d *refDisk) SetWear(w Wear) { d.wear = &w }

func (d *refDisk) WearExtra() sim.Time { return d.wearExtra }

func refNewRotating(cfg Config) *refDisk {
	if cfg.BlockBytes <= 0 || cfg.CapacityBytes <= 0 || cfg.Cylinders <= 0 {
		panic("disk: invalid geometry")
	}
	if cfg.BytesPerSecond <= 0 {
		panic("disk: invalid transfer rate")
	}
	blocks := cfg.CapacityBytes / int64(cfg.BlockBytes)
	per := blocks / int64(cfg.Cylinders)
	if per == 0 {
		per = 1
	}
	return &refDisk{cfg: cfg, blocks: blocks, blocksPer: per, nextBlock: -1}
}

func (d *refDisk) Config() Config     { return d.cfg }
func (d *refDisk) Blocks() int64      { return d.blocks }
func (d *refDisk) Reads() int64       { return d.reads }
func (d *refDisk) Writes() int64      { return d.writes }
func (d *refDisk) BusyTime() sim.Time { return d.busy }

func (d *refDisk) cylinderOf(block int64) int {
	c := int(block / d.blocksPer)
	if c >= d.cfg.Cylinders {
		c = d.cfg.Cylinders - 1
	}
	return c
}

func (d *refDisk) seekTime(from, to int) sim.Time {
	if from == to {
		return 0
	}
	dist := float64(from - to)
	if dist < 0 {
		dist = -dist
	}
	stroke := float64(d.cfg.Cylinders - 1)
	if stroke < 1 {
		stroke = 1
	}
	frac := math.Sqrt(dist / stroke)
	return d.cfg.MinSeek + sim.Time(frac*float64(d.cfg.MaxSeek-d.cfg.MinSeek))
}

func (d *refDisk) ServiceTime(block int64, count int, isWrite bool) sim.Time {
	if count <= 0 {
		panic(fmt.Sprintf("disk: non-positive block count %d", count))
	}
	if block < 0 || block+int64(count) > d.blocks {
		panic(fmt.Sprintf("disk: blocks [%d,%d) out of range [0,%d)", block, block+int64(count), d.blocks))
	}
	target := d.cylinderOf(block)
	seek := d.seekTime(d.headCyl, target)
	var rot sim.Time
	if block != d.nextBlock {
		rot = d.cfg.RotationPeriod / 2
	}
	bytes := int64(count) * int64(d.cfg.BlockBytes)
	transfer := sim.Time(float64(bytes) / d.cfg.BytesPerSecond * float64(sim.Second))
	d.headCyl = d.cylinderOf(block + int64(count) - 1)
	d.nextBlock = block + int64(count)
	if isWrite {
		d.writes++
	} else {
		d.reads++
	}
	total := seek + rot + transfer
	if d.wear != nil {
		worn := d.wornTime(seek, transfer) + rot
		d.wearExtra += worn - total
		total = worn
	}
	d.busy += total
	return total
}

func (d *refDisk) wornTime(seek, transfer sim.Time) sim.Time {
	ramp := 1.0
	if d.wear.RampPerHour > 0 && d.wear.Now != nil {
		ramp += d.wear.RampPerHour * d.wear.Now().ToSeconds() / 3600
	}
	sm, tm := d.wear.SeekMul, d.wear.TransferMul
	if sm < 1 {
		sm = 1
	}
	if tm < 1 {
		tm = 1
	}
	return sim.Time(float64(seek)*sm*ramp) + sim.Time(float64(transfer)*tm*ramp)
}

func (d *refDisk) ServiceMoments() (mean, second float64) {
	return d.cfg.RandomAccessMoments()
}

// refFlash is the reference flash drive.
type refFlash struct {
	cfg    Config
	blocks int64

	reads     int64
	writes    int64
	busy      sim.Time
	wear      *Wear
	wearExtra sim.Time
}

func refNewFlash(cfg Config) *refFlash {
	if cfg.BlockBytes <= 0 || cfg.CapacityBytes <= 0 {
		panic("disk: invalid flash geometry")
	}
	if cfg.BytesPerSecond <= 0 {
		panic("disk: invalid transfer rate")
	}
	if cfg.AccessLatency < 0 {
		panic("disk: negative access latency")
	}
	return &refFlash{cfg: cfg, blocks: cfg.CapacityBytes / int64(cfg.BlockBytes)}
}

func (f *refFlash) Config() Config     { return f.cfg }
func (f *refFlash) Blocks() int64      { return f.blocks }
func (f *refFlash) Reads() int64       { return f.reads }
func (f *refFlash) Writes() int64      { return f.writes }
func (f *refFlash) BusyTime() sim.Time { return f.busy }

func (f *refFlash) SetWear(w Wear) { f.wear = &w }

func (f *refFlash) WearExtra() sim.Time { return f.wearExtra }

func (f *refFlash) ServiceTime(block int64, count int, isWrite bool) sim.Time {
	if count <= 0 {
		panic(fmt.Sprintf("disk: non-positive block count %d", count))
	}
	if block < 0 || block+int64(count) > f.blocks {
		panic(fmt.Sprintf("disk: blocks [%d,%d) out of range [0,%d)", block, block+int64(count), f.blocks))
	}
	if isWrite {
		f.writes++
	} else {
		f.reads++
	}
	access := f.cfg.AccessLatency
	bytes := int64(count) * int64(f.cfg.BlockBytes)
	transfer := sim.Time(float64(bytes) / f.cfg.BytesPerSecond * float64(sim.Second))
	total := access + transfer
	if f.wear != nil {
		ramp := 1.0
		if f.wear.RampPerHour > 0 && f.wear.Now != nil {
			ramp += f.wear.RampPerHour * f.wear.Now().ToSeconds() / 3600
		}
		am, tm := f.wear.SeekMul, f.wear.TransferMul
		if am < 1 {
			am = 1
		}
		if tm < 1 {
			tm = 1
		}
		worn := sim.Time(float64(access)*am*ramp) + sim.Time(float64(transfer)*tm*ramp)
		f.wearExtra += worn - total
		total = worn
	}
	f.busy += total
	return total
}

func (f *refFlash) ServiceMoments() (mean, second float64) {
	mean = f.cfg.AccessLatency.ToSeconds() + float64(f.cfg.BlockBytes)/f.cfg.BytesPerSecond
	return mean, mean * mean
}

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// randomDrive returns a random configuration of either kind, in every
// spelling New accepts: rotating drives from one cylinder up and with
// more cylinders than blocks among them, flash drives with zero access
// latency among them. One configuration in eight has a field New must
// refuse, or an unknown kind.
func randomDrive(rng *rand.Rand) Config {
	kinds := []string{"", "rotating", "Rotating", "flash", "FLASH"}
	cfg := Config{
		Kind:           kinds[rng.IntN(len(kinds))],
		BlockBytes:     512 << rng.IntN(5),
		Cylinders:      1 + rng.IntN(3000),
		MinSeek:        sim.Time(rng.IntN(5000)) * sim.Microsecond,
		RotationPeriod: sim.Time(rng.IntN(20000)) * sim.Microsecond,
		BytesPerSecond: math.Pow(10, 5+5*rng.Float64()),
		AccessLatency:  sim.Time(rng.IntN(3)*rng.IntN(200)) * sim.Microsecond,
	}
	cfg.MaxSeek = cfg.MinSeek + sim.Time(rng.IntN(30000))*sim.Microsecond
	blocks := 1 + rng.Int64N([]int64{16, 4096, 1 << 20}[rng.IntN(3)])
	cfg.CapacityBytes = blocks*int64(cfg.BlockBytes) + rng.Int64N(int64(cfg.BlockBytes))
	if rng.IntN(8) == 0 {
		switch rng.IntN(6) {
		case 0:
			cfg.CapacityBytes = -rng.Int64N(2)
		case 1:
			cfg.BlockBytes = -rng.IntN(2)
		case 2:
			cfg.Cylinders = -rng.IntN(2)
		case 3:
			cfg.BytesPerSecond = -rng.Float64()
		case 4:
			cfg.AccessLatency = -1 - sim.Time(rng.IntN(100))
		default:
			cfg.Kind = "tape"
		}
	}
	return cfg
}

// randomWear returns a wear model with multipliers from 0.5 to 3 (below
// 1 counts as 1) and, mostly, a ramp read off clock; sometimes a ramp
// with no clock, which must not ramp.
func randomWear(rng *rand.Rand, clock func() sim.Time) Wear {
	w := Wear{
		SeekMul:     0.5 + 2.5*rng.Float64(),
		TransferMul: 0.5 + 2.5*rng.Float64(),
		Now:         clock,
	}
	if rng.IntN(4) != 0 {
		w.RampPerHour = 2 * rng.Float64()
	}
	if rng.IntN(8) == 0 {
		w.Now = nil
	}
	return w
}

// driveState is everything the differential test reads off a drive
// besides its service times.
type driveState struct {
	Reads, Writes      int64
	Busy, WearExtra    sim.Time
	Blocks             int64
	Config             Config
	Mean, SecondMoment float64
}

func stateOf(d refModel) driveState {
	s := driveState{Reads: d.Reads(), Writes: d.Writes(), Busy: d.BusyTime(),
		WearExtra: d.WearExtra(), Blocks: d.Blocks(), Config: d.Config()}
	s.Mean, s.SecondMoment = d.ServiceMoments()
	return s
}

// TestDiskMatchesReference drives the one Disk type beside the two
// drive models it replaced, on random configurations of both kinds,
// healthy and worn: every configuration New must refuse panics the
// same way, and every request stream -- sequential runs, random
// blocks, writes, multi-block counts and a few out-of-range requests,
// with the wear clock advancing between them -- gives the same service
// times, panics, counters, wear, geometry, configuration and service
// moments.
func TestDiskMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	for c := 0; c < 3000; c++ {
		cfg := randomDrive(rng)
		var got *Disk
		var want refModel
		gotPanic := recovered(func() { got = New(cfg) })
		wantPanic := recovered(func() { want = refNew(cfg) })
		if !reflect.DeepEqual(gotPanic, wantPanic) {
			t.Fatalf("%+v: New panicked with %v, reference with %v", cfg, gotPanic, wantPanic)
		}
		if gotPanic != nil {
			continue
		}
		var now sim.Time
		clock := func() sim.Time { return now }
		if rng.IntN(2) == 0 {
			w := randomWear(rng, clock)
			got.SetWear(w)
			want.SetWear(w)
		}
		blocks := want.Blocks()
		next := int64(0)
		for r := 0; r < 200; r++ {
			block, count := rng.Int64N(blocks), 1+rng.IntN(16)
			switch rng.IntN(8) {
			case 0, 1, 2:
				block = next // a sequential run
			case 3:
				count = -rng.IntN(2)
			case 4:
				block = -1 + rng.Int64N(2)*(blocks+1) // -1 or just past the end
			}
			if block >= 0 && block+int64(count) > blocks && rng.IntN(4) != 0 {
				count = int(blocks - block)
			}
			write := rng.IntN(3) == 0
			now += sim.Time(rng.Int64N(int64(2 * sim.Hour)))
			var gotT, wantT sim.Time
			gotPanic := recovered(func() { gotT = got.ServiceTime(block, count, write) })
			wantPanic := recovered(func() { wantT = want.ServiceTime(block, count, write) })
			if !reflect.DeepEqual(gotPanic, wantPanic) || gotT != wantT {
				t.Fatalf("%+v request %d (block %d, count %d, write %v): got %v (panic %v), want %v (panic %v)",
					cfg, r, block, count, write, gotT, gotPanic, wantT, wantPanic)
			}
			if gotPanic == nil {
				next = block + int64(count)
				if next >= blocks {
					next = 0
				}
			}
			if g, w := stateOf(got), stateOf(want); g != w {
				t.Fatalf("%+v after request %d:\ngot  %+v\nwant %+v", cfg, r, g, w)
			}
		}
	}
}
