package sim

import (
	"runtime"
	"strings"
	"testing"
)

func TestProcSleep(t *testing.T) {
	k := New()
	var wake Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(50)
		wake = p.Now()
	})
	k.Run()
	if wake != 50 {
		t.Fatalf("woke at %v", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	k.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestProcDeterminism(t *testing.T) {
	run := func() []string {
		k := New()
		var order []string
		for _, name := range []string{"x", "y", "z"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					p.Sleep(7)
				}
			})
		}
		k.Run()
		return order
	}
	a := strings.Join(run(), ",")
	b := strings.Join(run(), ",")
	if a != b {
		t.Fatalf("nondeterministic interleaving:\n%s\n%s", a, b)
	}
}

// TestProcYield: Sleep(0) yields, letting every other event already
// scheduled for the current instant run before the process continues.
func TestProcYield(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("first", func(p *Proc) {
		order = append(order, "first-before")
		p.Sleep(0)
		order = append(order, "first-after")
	})
	k.Spawn("second", func(p *Proc) {
		order = append(order, "second")
	})
	k.Run()
	want := "first-before,second,first-after"
	if strings.Join(order, ",") != want {
		t.Fatalf("order = %v", order)
	}
}

func TestSuspendWake(t *testing.T) {
	k := New()
	var target *Proc
	var resumedAt Time
	target = k.Spawn("target", func(p *Proc) {
		p.Suspend()
		resumedAt = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(100)
		target.Wake()
	})
	k.Run()
	if resumedAt != 100 {
		t.Fatalf("resumed at %v", resumedAt)
	}
	if !target.Done() {
		t.Fatal("target did not finish")
	}
}

func TestWakeNonSuspendedPanics(t *testing.T) {
	k := New()
	var target *Proc
	target = k.Spawn("target", func(p *Proc) { p.Sleep(1000) })
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(10)
		defer func() {
			if recover() == nil {
				t.Error("waking a sleeping (not suspended) process did not panic")
			}
		}()
		target.Wake()
	})
	defer func() { recover() }() // the waker's panic propagates out of Run
	k.Run()
}

func TestProcPanicPropagates(t *testing.T) {
	k := New()
	k.Spawn("bomb", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("process panic was swallowed")
		}
		if !strings.Contains(r.(string), "bomb") || !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic value = %v", r)
		}
	}()
	k.Run()
}

func TestProcName(t *testing.T) {
	k := New()
	p := k.Spawn("worker-7", func(p *Proc) {})
	if p.Name() != "worker-7" {
		t.Fatalf("name = %q", p.Name())
	}
	if p.Kernel() != k {
		t.Fatal("kernel accessor wrong")
	}
	k.Run()
}

func TestWaitGroup(t *testing.T) {
	k := New()
	var wg WaitGroup
	var finishedAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(Time(i * 10))
			wg.Done()
		})
	}
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		finishedAt = p.Now()
	})
	k.Run()
	if finishedAt != 30 {
		t.Fatalf("waiter finished at %v, want 30", finishedAt)
	}
}

func TestWaitGroupZeroCountNoBlock(t *testing.T) {
	k := New()
	done := false
	var wg WaitGroup
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("Wait with zero count blocked")
	}
}

func TestWakeFromEvent(t *testing.T) {
	k := New()
	var resumedAt Time
	target := k.Spawn("target", func(p *Proc) {
		p.Suspend()
		resumedAt = p.Now()
	})
	k.After(40, target.Wake) // a plain event, not a process
	k.Run()
	if resumedAt != 40 || !target.Done() {
		t.Fatalf("resumed at %v, done=%v; want 40, true", resumedAt, target.Done())
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := New()
	var order []string
	var child *Proc
	k.Spawn("parent", func(p *Proc) {
		order = append(order, "parent0")
		child = k.Spawn("child", func(c *Proc) {
			order = append(order, "child"+c.Now().String())
			c.Sleep(5)
			order = append(order, "child"+c.Now().String())
		})
		p.Sleep(10)
		order = append(order, "parent"+p.Now().String())
	})
	k.Run()
	want := "parent0,child0.000000s,child0.000005s,parent0.000010s"
	if strings.Join(order, ",") != want {
		t.Fatalf("order = %v, want %s", order, want)
	}
	if !child.Done() {
		t.Fatal("child did not finish")
	}
}

func TestManyProcsStress(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	const n = 500
	completed := 0
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(Time(1 + (i+j)%7))
			}
			completed++
		})
	}
	k.Run()
	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	// A finished body releases its coroutine as it returns. (The count
	// may dip below base: the previous test's goroutine can still be
	// exiting when base is read.)
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after Run, %d before", got, base)
	}
}
