package sched

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
)

func newSched(t *testing.T, e sim.Engine, cores []int) *Scheduler {
	t.Helper()
	m, err := hw.NewMachine(hw.Topology{Cores: 8, NUMANodes: 2}, hw.DefaultCostModel())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	s, err := New(e, m, cores, stats.NewRegistry())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewRequiresCores(t *testing.T) {
	e := sim.NewEngine()
	m, _ := hw.NewMachine(hw.Topology{Cores: 4, NUMANodes: 1}, hw.DefaultCostModel())
	if _, err := New(e, m, nil, nil); err == nil {
		t.Fatal("scheduler with no cores accepted")
	}
}

func TestAcquireHandsOutDistinctCores(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	s := newSched(t, e, []int{0, 1, 2})
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *sim.Proc) {
			core := s.Acquire(p)
			if seen[core] {
				t.Errorf("core %d handed out twice", core)
			}
			seen[core] = true
			p.Sleep(time.Millisecond)
			s.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != 3 {
		t.Fatalf("used %d cores, want 3", len(seen))
	}
}

func TestAcquireBlocksWhenSaturated(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	s := newSched(t, e, []int{0})
	var firstDone, secondStart sim.Time
	e.Spawn("first", func(p *sim.Proc) {
		s.Acquire(p)
		p.Sleep(time.Millisecond)
		firstDone = p.Now()
		s.Release(p)
	})
	e.Spawn("second", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		s.Acquire(p)
		secondStart = p.Now()
		s.Release(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if secondStart < firstDone {
		t.Fatalf("second task got a core at %v before first released at %v", secondStart, firstDone)
	}
}

func TestRunSlicesAtQuantum(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	s := newSched(t, e, []int{0})
	var aDone, bDone sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		s.Acquire(p)
		s.Run(p, 500*time.Microsecond)
		aDone = p.Now()
		s.Release(p)
	})
	e.Spawn("b", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		s.Acquire(p)
		s.Run(p, 100*time.Microsecond)
		bDone = p.Now()
		s.Release(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With preemption, b (short) must finish well before a (long).
	if bDone >= aDone {
		t.Fatalf("short task finished at %v, after long task at %v — no preemption", bDone, aDone)
	}
}

func TestRunWithoutContentionDoesNotPreempt(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	reg := stats.NewRegistry()
	m, _ := hw.NewMachine(hw.Topology{Cores: 8, NUMANodes: 2}, hw.DefaultCostModel())
	s, _ := New(e, m, []int{0, 1}, reg)
	e.Spawn("solo", func(p *sim.Proc) {
		s.Acquire(p)
		s.Run(p, time.Millisecond)
		s.Release(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := reg.Counter("sched.preemptions").Value(); got != 0 {
		t.Fatalf("preemptions = %d with idle cores, want 0", got)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	s := newSched(t, e, []int{0})
	e.Spawn("bad", func(p *sim.Proc) { s.Release(p) })
	if err := e.Run(); err == nil {
		t.Fatal("Release without Acquire did not fail")
	}
}

func TestLoadAndQueuedAccounting(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	s := newSched(t, e, []int{0})
	release := sim.NewCond()
	released := false
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *sim.Proc) {
			s.Acquire(p)
			if !released {
				release.Wait(p)
			}
			s.Release(p)
		})
	}
	e.Spawn("checker", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		if len(s.runq) != 2 {
			t.Errorf("Queued = %d, want 2", len(s.runq))
		}
		if len(s.running) != 1 {
			t.Errorf("RunningTasks = %d, want 1", len(s.running))
		}
		released = true
		release.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(s.runq) != 0 || len(s.running) != 0 {
		t.Fatalf("Queued = %d, RunningTasks = %d after drain, want 0", len(s.runq), len(s.running))
	}
}

// TestFIFOOrderUnderSaturation: with more tasks than cores, queued tasks get
// cores in the order they asked, one core or several.
func TestFIFOOrderUnderSaturation(t *testing.T) {
	for _, cores := range [][]int{{0}, {0, 1, 2}} {
		e := sim.NewEngine()
		s := newSched(t, e, cores)
		var order []int
		for i := 0; i < 4*len(cores); i++ {
			e.Spawn("w", func(p *sim.Proc) {
				p.Sleep(time.Duration(i) * time.Nanosecond)
				s.Acquire(p)
				order = append(order, i)
				p.Sleep(10 * time.Microsecond)
				s.Release(p)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("%d cores: Run: %v", len(cores), err)
		}
		e.Close()
		for i, v := range order {
			if v != i {
				t.Fatalf("%d cores: dispatch order %v, want FIFO", len(cores), order)
			}
		}
	}
}

// TestWaitMeasuredFromEnqueue: sched.wait is the time a task spent queued,
// from its Acquire to the Release that handed it the core — not the context
// switch it then pays.
func TestWaitMeasuredFromEnqueue(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	reg := stats.NewRegistry()
	m, _ := hw.NewMachine(hw.Topology{Cores: 8, NUMANodes: 2}, hw.DefaultCostModel())
	s, _ := New(e, m, []int{0}, reg)
	e.Spawn("holder", func(p *sim.Proc) {
		s.Acquire(p)
		p.Sleep(10 * time.Microsecond)
		s.Release(p)
	})
	e.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		s.Acquire(p)
		s.Release(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := reg.Histogram("sched.wait")
	if h.Count() != 1 || h.Max() != 9*time.Microsecond {
		t.Fatalf("sched.wait: %d samples, max %v; want one of 9µs", h.Count(), h.Max())
	}
	if got := reg.Counter("sched.runq.max").Value(); got != 1 {
		t.Fatalf("sched.runq.max = %d, want 1", got)
	}
}

// TestResetWithWaitersQueued: a reboot kills every task, the one holding the
// core and the ones queued for it, and Reset discards both; the next task
// gets a core at once.
func TestResetWithWaitersQueued(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	s := newSched(t, e, []int{0})
	var hosted []*sim.Proc
	for i := 0; i < 3; i++ {
		hosted = append(hosted, e.Spawn("w", func(p *sim.Proc) {
			s.Acquire(p)
			p.Sleep(time.Second)
			s.Release(p)
		}))
	}
	var got int
	var at, gotAt sim.Time
	e.Spawn("reboot", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		if len(s.runq) != 2 || len(s.running) != 1 {
			t.Errorf("before the reboot: %d queued, %d running; want 2 and 1", len(s.runq), len(s.running))
		}
		for _, h := range hosted {
			h.Kill()
		}
		s.Reset()
		if len(s.runq) != 0 || len(s.running) != 0 {
			t.Errorf("after Reset: %d queued, %d running; want none", len(s.runq), len(s.running))
		}
		at = p.Now()
		e.Spawn("fresh", func(p *sim.Proc) {
			got, gotAt = s.Acquire(p), p.Now()
			s.Release(p)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 || gotAt != at {
		t.Fatalf("after Reset a task got core %d at %v, want core 0 at once (%v)", got, gotAt, at)
	}
	if len(s.runq) != 0 || len(s.running) != 0 {
		t.Fatalf("at the end: %d queued, %d running; want none", len(s.runq), len(s.running))
	}
}

// TestAcquireReleaseSteadyStateAllocs pins a contended Acquire/Release cycle
// at no allocation once warm: the run queue holds the procs themselves and
// keeps its array, the woken task's wait start stays on its stack, and the
// metrics are cached handles.
func TestAcquireReleaseSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	s := newSched(t, e, []int{0, 1})
	const tasks, tick = 5, time.Microsecond
	for i := 0; i < tasks; i++ {
		e.Spawn("w", func(p *sim.Proc) {
			for {
				s.Acquire(p)
				p.Sleep(tick)
				s.Release(p)
			}
		})
	}
	if err := e.RunFor(1000 * tick); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	switches := func() uint64 { return s.metrics.Counter("sched.switches").Value() }
	before := switches()
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunFor(100 * tick); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if switches() == before {
		t.Fatal("scenario broken: no task waited for a core")
	}
	// Measured 0 (a queued acquire allocated its waiter record, and the
	// queue's array moved along as it was popped from the front).
	if allocs != 0 {
		t.Fatalf("%.0f allocations per 100 ticks of contended Acquire/Release, want 0", allocs)
	}
}
