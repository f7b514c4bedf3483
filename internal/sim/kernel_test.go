package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	k := New()
	if k.Now() != 0 {
		t.Fatalf("initial clock = %v", k.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("final time = %v", k.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestAfterAccumulates(t *testing.T) {
	k := New()
	var times []Time
	k.After(10, func() {
		times = append(times, k.Now())
		k.After(5, func() { times = append(times, k.Now()) })
	})
	k.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	k := New()
	ran := 0
	k.At(10, func() { ran++ })
	k.At(20, func() { ran++ })
	k.RunUntil(15)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if k.Now() != 15 {
		t.Fatalf("clock = %v, want 15", k.Now())
	}
	k.Run()
	if ran != 2 {
		t.Fatalf("second run executed %d total", ran)
	}
}

// A Stop inside RunUntil must not move the clock past an event still
// due by the limit: the next Run would dispatch it in the clock's past.
func TestRunUntilAfterStopKeepsPendingEvent(t *testing.T) {
	k := New()
	k.At(5, func() { k.Stop() })
	var ranAt Time = -1
	k.At(7, func() { ranAt = k.Now() })
	k.RunUntil(10)
	if k.Now() != 5 || k.Pending() != 1 {
		t.Fatalf("after Stop: clock = %v, pending = %d; want 5, 1", k.Now(), k.Pending())
	}
	k.Run()
	if ranAt != 7 || k.Now() != 7 {
		t.Fatalf("pending event ran at %v, clock %v; want 7", ranAt, k.Now())
	}

	// The same with the pending event at the Stop's own instant.
	k = New()
	k.At(5, func() { k.Stop() })
	k.At(5, func() {})
	k.RunUntil(10)
	if k.Now() != 5 || k.Pending() != 1 {
		t.Fatalf("after same-instant Stop: clock = %v, pending = %d; want 5, 1", k.Now(), k.Pending())
	}

	// With nothing due by the limit, the clock still jumps to it.
	k = New()
	k.At(5, func() { k.Stop() })
	k.At(12, func() {})
	k.RunUntil(10)
	if k.Now() != 10 || k.Pending() != 1 {
		t.Fatalf("clock = %v, pending = %d; want 10, 1", k.Now(), k.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := New()
	k.RunUntil(100)
	if k.Now() != 100 {
		t.Fatalf("clock = %v", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := New()
	ran := 0
	k.At(1, func() { ran++; k.Stop() })
	k.At(2, func() { ran++ })
	k.Run()
	if ran != 1 {
		t.Fatalf("Stop did not halt the loop; ran=%d", ran)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d", k.Pending())
	}
}

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := (2 * Second).ToSeconds(); got != 2 {
		t.Fatalf("ToSeconds = %v", got)
	}
	if Hour != 3600*Second {
		t.Fatal("Hour constant wrong")
	}
	if s := (1 * Second).String(); s != "1.000000s" {
		t.Fatalf("String = %q", s)
	}
}

// Property: however events are scheduled, they execute in
// non-decreasing time order and the clock never runs backwards.
func TestQuickEventTimeMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New()
		var seen []Time
		for _, d := range delays {
			k.At(Time(d), func() { seen = append(seen, k.Now()) })
		}
		k.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Reset keeps every bucket's storage and releases every closure, the
// dispatched ones included.
func TestResetReleasesClosures(t *testing.T) {
	k := New()
	for i := 0; i < 100; i++ {
		k.At(Time(i%7)*Millisecond, func() {})
		k.At(Time(i)*Second, func() {})
	}
	k.RunUntil(3 * Second)
	var caps [len(k.q.b)]int
	for i, b := range k.q.b {
		caps[i] = cap(b)
	}
	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 {
		t.Fatalf("after Reset: clock = %v, pending = %d", k.Now(), k.Pending())
	}
	for i, b := range k.q.b {
		if len(b) != 0 || cap(b) != caps[i] {
			t.Fatalf("bucket %d: len %d cap %d, want 0 and %d", i, len(b), cap(b), caps[i])
		}
		for j, e := range b[:cap(b)] {
			if e.fn != nil {
				t.Fatalf("bucket %d slot %d still holds a closure", i, j)
			}
		}
	}
}

// kernelAPI is the surface Kernel and the reference kernel share.
type kernelAPI interface {
	At(t Time, fn func())
	RunUntil(limit Time)
	Run()
	Stop()
	Pending() int
	Reset()
	Now() Time
}

// step is one observation of a script: a dispatch (seq > 0, numbered
// in scheduling order) or the end of a top-level operation (seq 0).
type step struct {
	t       Time
	seq     uint64
	pending int
}

// script drives a kernel with random operations. Every choice comes
// from rng, so two kernels that dispatch in the same order see the same
// script.
type script struct {
	k      kernelAPI
	rng    *rand.Rand
	seq    uint64
	budget int    // events the script may still schedule
	stopOK bool   // whether a dispatched event may call Stop
	ties   []Time // recently scheduled times, for exact ties
	log    []step
}

// at draws an event time no earlier than now: the same instant, 1 us,
// an exact tie with an earlier event, 10 us-100 ms, 10 s or more, or
// near 1<<62, where Run stops.
func (s *script) at() Time {
	now := s.k.Now()
	switch r := s.rng.Intn(20); {
	case r < 3:
		return now
	case r < 5:
		return now + 1
	case r < 8:
		if len(s.ties) > 0 {
			if t := s.ties[s.rng.Intn(len(s.ties))]; t >= now {
				return t
			}
		}
		return now + Time(s.rng.Intn(3))
	case r < 12:
		return now + 10 + Time(s.rng.Int63n(int64(Millisecond)))
	case r < 15:
		return now + 10 + Time(s.rng.Int63n(int64(100*Millisecond)))
	case r < 18:
		return now + 10*Second + Time(s.rng.Int63n(int64(Hour)))
	default:
		return max(now, 1<<62-3+Time(s.rng.Intn(6)))
	}
}

func (s *script) schedule() {
	if s.budget == 0 {
		return
	}
	s.budget--
	t := s.at()
	if len(s.ties) < 16 {
		s.ties = append(s.ties, t)
	} else {
		s.ties[s.rng.Intn(16)] = t
	}
	s.seq++
	seq := s.seq
	s.k.At(t, func() { s.fire(seq) })
}

func (s *script) fire(seq uint64) {
	s.log = append(s.log, step{s.k.Now(), seq, s.k.Pending()})
	if s.stopOK && s.rng.Intn(25) == 0 {
		s.k.Stop()
	}
	for n := s.rng.Intn(5); n > 2; n-- {
		s.schedule()
	}
	if s.rng.Intn(3) == 0 {
		s.schedule()
	}
}

// run executes ops random top-level operations.
func (s *script) run(ops int) []step {
	for i := 0; i < ops; i++ {
		switch r := s.rng.Intn(20); {
		case r < 8:
			for n := 1 + s.rng.Intn(8); n > 0; n-- {
				s.schedule()
			}
		case r < 13:
			// A finite limit, then events between it and the next
			// pending one. The reference kernel moves its clock past
			// pending events after Stop, so Stop stays off here.
			s.k.RunUntil(s.at())
			for n := s.rng.Intn(4); n > 0; n-- {
				s.schedule()
			}
		case r < 19:
			s.stopOK = true
			s.k.Run()
			s.stopOK = false
		default:
			s.k.Reset()
			s.seq = 0
			s.ties = s.ties[:0]
		}
		s.log = append(s.log, step{s.k.Now(), 0, s.k.Pending()})
	}
	return s.log
}

// TestKernelMatchesReference runs the radix-heap kernel and the old
// heap-and-FIFO kernel (reference_test.go) on identical random scripts:
// both must dispatch the same (time, scheduling order) sequence, with
// equal clocks and pending counts after every dispatch and operation.
// The kernels are reused across scripts, so Reset is covered too.
func TestKernelMatchesReference(t *testing.T) {
	got, want := New(), &refKernel{}
	dispatched := 0
	for seed := int64(1); seed <= 300; seed++ {
		got.Reset()
		want.Reset()
		a := (&script{k: got, rng: rand.New(rand.NewSource(seed)), budget: 3000}).run(200)
		b := (&script{k: want, rng: rand.New(rand.NewSource(seed)), budget: 3000}).run(200)
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("seed %d, step %d: kernel %+v, reference %+v", seed, i, a[i], b[i])
			}
			if a[i].seq > 0 {
				dispatched++
			}
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: kernel took %d steps, reference %d", seed, len(a), len(b))
		}
	}
	if dispatched < 100_000 {
		t.Fatalf("only %d dispatches compared", dispatched)
	}
}
