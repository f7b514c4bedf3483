package disk

import (
	"testing"

	"repro/internal/sim"
)

var serviceSink sim.Time

// BenchmarkServiceTime prices one-block requests on the NAS rotating
// drive and the NVMe flash drive, healthy and under a ramped wear
// model read off a fixed clock: a sequential stream (every request
// follows the last, no seek or rotation on the rotating drive) and
// random blocks (a stride that crosses the whole drive).
func BenchmarkServiceTime(b *testing.B) {
	for _, drive := range []struct {
		name string
		cfg  Config
	}{{"rotating", CDC760MB()}, {"flash", NVMe()}} {
		for _, state := range []string{"healthy", "worn"} {
			for _, pattern := range []string{"sequential", "random"} {
				d := New(drive.cfg)
				if state == "worn" {
					d.SetWear(Wear{SeekMul: 3, TransferMul: 1.5, RampPerHour: 0.1,
						Now: func() sim.Time { return 10 * sim.Hour }})
				}
				stride := int64(1)
				if pattern == "random" {
					stride = 104729 // coprime to both block counts: every block in turn
				}
				blocks := d.Blocks()
				b.Run(drive.name+"/"+state+"/"+pattern, func(b *testing.B) {
					var sum sim.Time
					block := int64(0)
					for i := 0; i < b.N; i++ {
						sum += d.ServiceTime(block, 1, i&3 == 0)
						block = (block + stride) % blocks
					}
					serviceSink = sum
				})
			}
		}
	}
}
