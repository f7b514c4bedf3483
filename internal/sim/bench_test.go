package sim

import "testing"

// BenchmarkKernelAt measures raw event scheduling + dispatch throughput:
// each iteration schedules one future-time event; the queue is drained
// in batches so heap push and pop costs are both on the path.
func BenchmarkKernelAt(b *testing.B) {
	k := New()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.After(Time(i%16)+1, fn)
		if k.Pending() >= 1024 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkKernelRunUntil measures dispatch of an already-built queue,
// the pattern of a simulation's main loop.
func BenchmarkKernelRunUntil(b *testing.B) {
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 4096 {
		b.StopTimer()
		k := New()
		n := 4096
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			k.At(Time(j), fn)
		}
		b.StartTimer()
		k.RunUntil(Time(n))
	}
}

// BenchmarkKernelSameInstant measures the After(0, ...) path used by
// Wake, Sleep(0) and Spawn: events scheduled for the current instant
// from inside a running event.
func BenchmarkKernelSameInstant(b *testing.B) {
	k := New()
	b.ReportAllocs()
	var fn func()
	n := 0
	fn = func() {
		if n < b.N {
			n++
			k.After(0, fn)
		}
	}
	k.After(0, fn)
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSleepWake measures one full process handoff: the process
// sleeps (a coroutine switch back to the kernel), the kernel dispatches
// the wakeup, and the process resumes (a switch back in).
func BenchmarkProcSleepWake(b *testing.B) {
	k := New()
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSuspendWake measures the Suspend/Wake rendezvous used by
// wait groups and shared-pointer turn-taking.
func BenchmarkProcSuspendWake(b *testing.B) {
	k := New()
	var target *Proc
	target = k.Spawn("suspender", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Suspend()
		}
	})
	k.Spawn("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			target.Wake()
			p.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSpawn measures process creation and teardown.
func BenchmarkSpawn(b *testing.B) {
	k := New()
	body := func(p *Proc) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Spawn("worker", body)
		if k.Pending() >= 256 {
			k.Run()
		}
	}
	k.Run()
}
