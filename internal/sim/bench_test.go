package sim

import "testing"

// BenchmarkKernelAt measures raw event scheduling + dispatch throughput:
// each iteration schedules one event 1-16 us ahead; the queue is
// drained in batches of 1,024 so push and pop costs are both on the
// path.
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

// BenchmarkKernelStudyMix measures the kernel on a fixed-seed schedule
// shaped like a traced NAS study at scale 0.1, where the queue holds
// about 220 events: 300 job arrivals 10 s or more ahead (each replaced
// by another when it fires), and 100 clients, each of which loops
// through a request arrival 10 us-1 ms ahead, a response 1-100 ms
// ahead, a same-instant wake-up, and one time in 16 a sleep of 1-10 s.
// One op is one dispatched event.
func BenchmarkKernelStudyMix(b *testing.B) {
	const arrivals, clients = 300, 100
	k := New()
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func(lo, hi Time) Time { // xorshift64*, uniform in [lo, hi)
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return lo + Time((x*0x2545f4914f6cdd1d)>>33)%(hi-lo)
	}
	n := 0
	count := func() {
		if n++; n == b.N {
			k.Stop()
		}
	}
	var arrive func()
	arrive = func() {
		count()
		k.After(rnd(arrivals*10*Second, arrivals*20*Second), arrive)
	}
	for i := 0; i < arrivals; i++ {
		k.After(rnd(10*Second, arrivals*20*Second), arrive)
	}
	for i := 0; i < clients; i++ {
		var send, finish, wake func()
		send = func() { count(); k.After(rnd(Millisecond, 100*Millisecond), finish) }
		finish = func() { count(); k.After(0, wake) }
		wake = func() {
			count()
			if rnd(0, 16) == 0 {
				k.After(rnd(Second, 10*Second), send)
			} else {
				k.After(rnd(10*Microsecond, Millisecond), send)
			}
		}
		k.After(rnd(0, Millisecond), send)
	}
	b.ReportAllocs()
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
