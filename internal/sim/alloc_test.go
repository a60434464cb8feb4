package sim

import (
	"testing"
	"time"
)

// TestScheduleDispatchZeroAllocs pins the engine's schedule→dispatch path at
// zero allocations per event in steady state. The free list is warmed by a
// first round; after that, scheduling an event, popping it off the heap, and
// running its callback must not touch the heap allocator at all — this is
// the contract the hotalloc analyzer enforces statically and ROADMAP item 5
// demands for many-kernel sweeps.
func TestScheduleDispatchZeroAllocs(t *testing.T) {
	e := NewEngine()
	tick := func() {}
	// Warm the free list and the event heap's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, tick)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.Schedule(time.Duration(i)*time.Microsecond, tick)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule→dispatch steady state allocates %v allocs/op, want 0", allocs)
	}
}

// TestRunUntilZeroAllocs covers the bounded run path: the until bound is a
// plain value, not a predicate closure, so repeated RunUntil calls must also
// be allocation-free in steady state.
func TestRunUntilZeroAllocs(t *testing.T) {
	e := NewEngine()
	tick := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, tick)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			e.Schedule(time.Duration(i)*time.Microsecond, tick)
		}
		if err := e.RunUntil(e.Now().Add(time.Millisecond)); err != nil {
			t.Fatalf("run until: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunUntil steady state allocates %v allocs/op, want 0", allocs)
	}
}

// TestSleepWakeSteadyStateAllocs pins the process Sleep path: a process
// sleeping in a loop reuses its pre-bound dispatch closure and
// recycled events, so each sleep→dispatch round trip must not allocate.
func TestSleepWakeSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	// Warm-up: first rounds grow the heap, free list, and runtime stacks.
	if err := e.RunFor(100 * time.Microsecond); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunFor(10 * time.Microsecond); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sleep→dispatch steady state allocates %v allocs/op, want 0", allocs)
	}
}

// TestStaleHandleCannotCancelRecycledEvent locks in the generation fence: a
// handle kept past its event's firing must not cancel the free-listed event
// object's next tenant.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	h1 := e.Schedule(0, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The event object is now on the free list; schedule again and the
	// engine reuses it.
	h2 := e.Schedule(0, func() { fired++ })
	if h1.Cancel() {
		t.Fatal("stale handle reported a successful Cancel")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (stale handle must not cancel the recycled event)", fired)
	}
	if h2.Cancel() {
		t.Fatal("handle of an already-fired event reported a successful Cancel")
	}
}

// TestCanceledEventIsRecycled ensures cancellation feeds the free list too:
// cancel, drain, and the next Schedule must reuse the object without
// allocating.
func TestCanceledEventIsRecycled(t *testing.T) {
	e := NewEngine()
	ran := false
	h := e.Schedule(time.Second, func() { ran = true })
	if !h.Cancel() {
		t.Fatal("Cancel on a pending event returned false")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("canceled event still ran")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	allocs := testing.AllocsPerRun(100, func() {
		hh := e.Schedule(0, func() {})
		hh.Cancel()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cancel→recycle path allocates %v allocs/op, want 0", allocs)
	}
}

// TestZeroEventHandleCancelIsNoOp documents the zero value's behavior now
// that EventHandle is a value type.
func TestZeroEventHandleCancelIsNoOp(t *testing.T) {
	var h EventHandle
	if h.Cancel() {
		t.Fatal("zero EventHandle.Cancel() = true, want false")
	}
}

// steadyAllocs warms e up for warm of virtual time and returns the
// allocations per further step of it.
func steadyAllocs(t *testing.T, e Engine, warm, step time.Duration) float64 {
	t.Helper()
	if err := e.RunFor(warm); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	return testing.AllocsPerRun(100, func() {
		if err := e.RunFor(step); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
}

// TestContendedLockHandoffZeroAllocs: four processes take turns on one mutex
// that is never idle, so every acquisition queues and every release hands off.
// The queue is links through the Procs themselves: no waiter record, and no
// slice to regrow as the queue's head walks off its capacity.
func TestContendedLockHandoffZeroAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mu, rw := NewMutex(e), NewRWMutex(e)
	for i := 0; i < 4; i++ {
		e.Spawn("locker", func(p *Proc) {
			for {
				mu.Lock(p)
				p.Sleep(time.Microsecond)
				mu.Unlock(p)
				if i%2 == 0 {
					rw.Lock(p)
					p.Sleep(time.Microsecond)
					rw.Unlock(p)
				} else {
					rw.RLock(p)
					p.Sleep(time.Microsecond)
					rw.RUnlock(p)
				}
			}
		})
	}
	if allocs := steadyAllocs(t, e, 200*time.Microsecond, 20*time.Microsecond); allocs != 0 {
		t.Fatalf("contended lock hand-off allocates %v allocs per 20 hand-offs, want 0", allocs)
	}
	if st := mu.Stats(); st.Contended == 0 || st.MaxQueue < 2 {
		t.Fatalf("the mutex was not contended: %+v", st)
	}
}

// TestCondAndWaitGroupRoundsZeroAllocs: a Cond wait→signal round and a
// WaitGroup add→wait→done round, both primitives embedded as zero values.
func TestCondAndWaitGroupRoundsZeroAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var shared struct {
		cond Cond
		wg   WaitGroup
	}
	e.Spawn("waiter", func(p *Proc) {
		for {
			shared.cond.Wait(p)
			shared.wg.Done()
		}
	})
	e.Spawn("driver", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			shared.wg.Add(1)
			shared.cond.Signal()
			shared.wg.Wait(p)
		}
	})
	if allocs := steadyAllocs(t, e, 100*time.Microsecond, 10*time.Microsecond); allocs != 0 {
		t.Fatalf("cond/waitgroup rounds allocate %v allocs per 10 rounds, want 0", allocs)
	}
}
