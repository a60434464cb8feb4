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
		if s.Queued() != 2 {
			t.Errorf("Queued = %d, want 2", s.Queued())
		}
		if s.RunningTasks() != 1 {
			t.Errorf("RunningTasks = %d, want 1", s.RunningTasks())
		}
		released = true
		release.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Queued() != 0 || s.RunningTasks() != 0 {
		t.Fatalf("Queued = %d, RunningTasks = %d after drain, want 0", s.Queued(), s.RunningTasks())
	}
}

func TestFIFOOrderUnderSaturation(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	s := newSched(t, e, []int{0})
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("w", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Nanosecond)
			s.Acquire(p)
			order = append(order, i)
			p.Sleep(10 * time.Microsecond)
			s.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("dispatch order %v, want FIFO", order)
		}
	}
}
