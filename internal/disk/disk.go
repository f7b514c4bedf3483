// Package disk models the timing of an I/O node's drive: the single
// 760 MB SCSI disk each iPSC/860 I/O node owned, or a flash drive for
// the modern machine presets. One Disk type serves both kinds
// (Config.Kind); only positioning differs.
//
// A rotating drive is deterministic and position-aware: a request pays
// a seek cost proportional to the square root of the cylinder distance
// (a standard approximation of arm acceleration), an average
// rotational latency, and a transfer cost at the media rate. Requests
// to the cylinder under the head pay no seek. A flash drive has no
// mechanics: a request pays a fixed access latency plus the transfer,
// wherever it lands. Either drive is a serial resource: the CFS I/O
// node queues requests behind a busy-until horizon, so one request is
// in service at a time.
package disk

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Config describes a drive's geometry and speeds. The mechanical
// fields (cylinders, seeks, rotation) apply to the rotating drive;
// AccessLatency to the flash drive.
type Config struct {
	CapacityBytes  int64    // total capacity
	BlockBytes     int      // file-system block size (4096 on CFS)
	Cylinders      int      // number of cylinders
	MinSeek        sim.Time // single-track seek
	MaxSeek        sim.Time // full-stroke seek
	RotationPeriod sim.Time // one revolution
	BytesPerSecond float64  // media transfer rate
	// Kind selects the drive: "" or "rotating" for the position-aware
	// mechanical drive, "flash" for a seekless drive paying a fixed
	// access latency per request (see New).
	Kind string
	// AccessLatency is the flash drive's fixed per-request latency,
	// covering controller and protocol overhead.
	AccessLatency sim.Time
}

// CDC760MB returns parameters approximating the ~760 MB SCSI drives on
// the NAS iPSC/860 I/O nodes: ~16.7 ms revolution (3600 RPM), 2 ms
// track-to-track, 25 ms full stroke, ~1.5 MB/s media rate.
func CDC760MB() Config {
	return Config{
		CapacityBytes:  760 << 20,
		BlockBytes:     4096,
		Cylinders:      1632,
		MinSeek:        2 * sim.Millisecond,
		MaxSeek:        25 * sim.Millisecond,
		RotationPeriod: sim.Time(16667 * sim.Microsecond),
		BytesPerSecond: 1.5e6,
	}
}

// NVMe returns parameters for a modern NVMe-class flash drive: 1 TB,
// ~20 us access latency and 3 GB/s sustained media rate. No seek, no
// rotation; a request pays the fixed access latency plus transfer.
func NVMe() Config {
	return Config{
		Kind:           "flash",
		CapacityBytes:  1 << 40,
		BlockBytes:     4096,
		AccessLatency:  20 * sim.Microsecond,
		BytesPerSecond: 3e9,
	}
}

// drives is the named-drive registry (the drives a scenario's machines
// axis can select), in the stable order DriveNames reports.
var drives = [...]struct {
	name  string
	build func() Config
}{
	{"cdc760", CDC760MB},
	{"nvme", NVMe},
}

// DriveNames returns the named-drive registry in stable order.
func DriveNames() []string {
	out := make([]string, len(drives))
	for i, e := range drives {
		out[i] = e.name
	}
	return out
}

// Drive resolves a registry name (case-insensitive) to its drive
// configuration.
func Drive(name string) (Config, error) {
	key := strings.ToLower(name)
	for _, e := range drives {
		if e.name == key {
			return e.build(), nil
		}
	}
	return Config{}, fmt.Errorf("disk: unknown drive %q (known: %s)",
		name, strings.Join(DriveNames(), ", "))
}

// Wear degrades the drive: the positioning cost (a rotating drive's
// seek, a flash drive's access latency, which grows with the
// controller's error-correction and read-retry overhead as cells age)
// and the transfer cost are multiplied by the given factors, both
// additionally scaled by a progressive ramp of (1 + RampPerHour *
// simulated hours), read off the Now clock. Rotational latency is
// unaffected (the spindle keeps its speed; the arm and the head
// electronics age). Multipliers below 1 are treated as 1.
type Wear struct {
	SeekMul     float64
	TransferMul float64
	RampPerHour float64
	Now         func() sim.Time // simulation clock for the ramp
}

// Disk models one drive of either kind. A rotating drive tracks head
// position so that sequential block streams are much cheaper than
// random ones, which is what makes request coalescing (the point of
// the paper's caching discussion) matter. A flash drive costs the same
// for every request of a given size: it has no head position for the
// request stream to exploit, which is exactly what moves the system
// bottleneck off the drive (see PERFORMANCE.md).
type Disk struct {
	cfg       Config
	flash     bool
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

// New builds the drive cfg.Kind selects: "" or "rotating" is the
// position-aware rotating drive, with the head parked at cylinder 0;
// "flash" the seekless flash drive. It panics on unknown kinds,
// invalid geometry and timing that would make a service time negative
// or meaningless (a transfer rate that is not finite and positive, a
// negative seek, rotation or access time), like every hardware-model
// constructor here; registry names are validated earlier via Drive.
func New(cfg Config) *Disk {
	d := &Disk{cfg: cfg, nextBlock: -1}
	switch strings.ToLower(cfg.Kind) {
	case "", "rotating":
		if cfg.BlockBytes <= 0 || cfg.CapacityBytes <= 0 || cfg.Cylinders <= 0 {
			panic("disk: invalid geometry")
		}
		if cfg.MinSeek < 0 || cfg.MaxSeek < 0 || cfg.RotationPeriod < 0 {
			panic("disk: negative seek or rotation time")
		}
	case "flash":
		if cfg.BlockBytes <= 0 || cfg.CapacityBytes <= 0 {
			panic("disk: invalid flash geometry")
		}
		d.flash = true
	default:
		panic(fmt.Sprintf("disk: unknown model kind %q", cfg.Kind))
	}
	if !(cfg.BytesPerSecond > 0) || math.IsInf(cfg.BytesPerSecond, 1) {
		panic("disk: invalid transfer rate")
	}
	if d.flash && cfg.AccessLatency < 0 {
		panic("disk: negative access latency")
	}
	d.blocks = cfg.CapacityBytes / int64(cfg.BlockBytes)
	if !d.flash {
		d.blocksPer = d.blocks / int64(cfg.Cylinders)
		if d.blocksPer == 0 {
			d.blocksPer = 1
		}
	}
	return d
}

// Config returns the drive's configuration.
func (d *Disk) Config() Config { return d.cfg }

// Blocks returns the number of addressable blocks.
func (d *Disk) Blocks() int64 { return d.blocks }

// Reads and Writes report operation counts; BusyTime the summed
// service time.
func (d *Disk) Reads() int64       { return d.reads }
func (d *Disk) Writes() int64      { return d.writes }
func (d *Disk) BusyTime() sim.Time { return d.busy }

// SetWear installs a wear model on the drive. Call it before the
// simulation starts.
func (d *Disk) SetWear(w Wear) { d.wear = &w }

// WearExtra reports the total service time added by wear.
func (d *Disk) WearExtra() sim.Time { return d.wearExtra }

// cylinderOf maps a block number to its cylinder.
func (d *Disk) cylinderOf(block int64) int {
	c := int(block / d.blocksPer)
	if c >= d.cfg.Cylinders {
		c = d.cfg.Cylinders - 1
	}
	return c
}

// seekTime returns the arm movement cost between cylinders.
func (d *Disk) seekTime(from, to int) sim.Time {
	if from == to {
		return 0
	}
	dist := float64(from - to)
	if dist < 0 {
		dist = -dist
	}
	// A single-cylinder drive has no seek distance to normalize by;
	// clamping the stroke length keeps the fraction finite (from == to
	// is caught above, but degenerate geometry must never yield NaN).
	stroke := float64(d.cfg.Cylinders - 1)
	if stroke < 1 {
		stroke = 1
	}
	frac := math.Sqrt(dist / stroke)
	return d.cfg.MinSeek + sim.Time(frac*float64(d.cfg.MaxSeek-d.cfg.MinSeek))
}

// ServiceTime returns the modeled time to transfer count blocks
// starting at block. A rotating drive pays a seek, plus half a
// revolution unless the access follows the last one, and moves its
// head there; a flash drive pays its access latency. It panics on
// out-of-range requests: callers (the CFS I/O node) own allocation and
// must never issue a bad block address.
func (d *Disk) ServiceTime(block int64, count int, isWrite bool) sim.Time {
	if count <= 0 {
		panic(fmt.Sprintf("disk: non-positive block count %d", count))
	}
	if block < 0 || block+int64(count) > d.blocks {
		panic(fmt.Sprintf("disk: blocks [%d,%d) out of range [0,%d)", block, block+int64(count), d.blocks))
	}
	// position is the seek or the access latency, the part wear
	// scales; rot is never worn.
	var position, rot sim.Time
	if d.flash {
		position = d.cfg.AccessLatency
	} else {
		position = d.seekTime(d.headCyl, d.cylinderOf(block))
		if block != d.nextBlock {
			// Any non-sequential access pays half a revolution on
			// average; a purely sequential follow-on request catches
			// the platter in position.
			rot = d.cfg.RotationPeriod / 2
		}
		d.headCyl = d.cylinderOf(block + int64(count) - 1)
		d.nextBlock = block + int64(count)
	}
	bytes := int64(count) * int64(d.cfg.BlockBytes)
	transfer := sim.Time(float64(bytes) / d.cfg.BytesPerSecond * float64(sim.Second))
	if isWrite {
		d.writes++
	} else {
		d.reads++
	}
	total := position + rot + transfer
	if w := d.wear; w != nil {
		ramp := 1.0
		if w.RampPerHour > 0 && w.Now != nil {
			ramp += w.RampPerHour * w.Now().ToSeconds() / 3600
		}
		sm, tm := w.SeekMul, w.TransferMul
		if sm < 1 {
			sm = 1
		}
		if tm < 1 {
			tm = 1
		}
		worn := sim.Time(float64(position)*sm*ramp) + sim.Time(float64(transfer)*tm*ramp) + rot
		d.wearExtra += worn - total
		total = worn
	}
	d.busy += total
	return total
}

// ServiceMoments returns the first and second moments (in seconds) of
// a single-block access's service time, which the analytical twin's
// M/G/1 model is fed with: a rotating drive's closed-form
// random-access distribution (RandomAccessMoments), or a flash drive's
// deterministic cost, whose second moment is the squared mean.
func (d *Disk) ServiceMoments() (mean, second float64) {
	if !d.flash {
		return d.cfg.RandomAccessMoments()
	}
	mean = d.cfg.AccessLatency.ToSeconds() + float64(d.cfg.BlockBytes)/d.cfg.BytesPerSecond
	return mean, mean * mean
}

// RandomAccessMoments returns the first and second moments (in
// seconds) of a rotating drive's service time for a single-block
// access at a uniformly random block from a uniformly random head
// position: the closed-form service distribution an M/G/1 model of the
// drive is fed with. With from and to cylinders independent uniform on
// [0, 1), the seek fraction sqrt(|from-to|) has E = 8/15 and
// E[.^2] = 1/3, and a random block is almost surely non-sequential, so
// rotation contributes a deterministic half revolution.
func (c Config) RandomAccessMoments() (mean, second float64) {
	minS := c.MinSeek.ToSeconds()
	deltaS := (c.MaxSeek - c.MinSeek).ToSeconds()
	meanSeek := minS + deltaS*8.0/15.0
	secondSeek := minS*minS + 2*minS*deltaS*8.0/15.0 + deltaS*deltaS/3.0
	fixed := c.RotationPeriod.ToSeconds()/2 + float64(c.BlockBytes)/c.BytesPerSecond
	mean = meanSeek + fixed
	second = secondSeek + 2*meanSeek*fixed + fixed*fixed
	return mean, second
}
