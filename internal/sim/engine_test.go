package sim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if got := e.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10*time.Microsecond, func() { fired = append(fired, e.Now()) })
	e.Schedule(5*time.Microsecond, func() { fired = append(fired, e.Now()) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[0] != Time(5*time.Microsecond) || fired[1] != Time(10*time.Microsecond) {
		t.Fatalf("fired at %v, want [5µs 10µs]", fired)
	}
	if e.Now() != Time(10*time.Microsecond) {
		t.Fatalf("final Now() = %v, want 10µs", e.Now())
	}
}

func TestSameInstantEventsFireInInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Microsecond, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
	if instants, maxK := e.Ties(); instants != 0 || maxK != 0 {
		t.Fatalf("Ties() = %d/%d without a tie chooser, want 0/0", instants, maxK)
	}
}

func TestScheduleCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.Schedule(time.Millisecond, func() { fired = true })
	if !h.Cancel() {
		t.Fatal("Cancel returned false before firing")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(-time.Second, func() { at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 0 {
		t.Fatalf("event fired at %v, want 0", at)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wake != Time(42*time.Microsecond) {
		t.Fatalf("woke at %v, want 42µs", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine()
	var stamps []Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Microsecond)
			stamps = append(stamps, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{Time(time.Microsecond), Time(2 * time.Microsecond), Time(3 * time.Microsecond)}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
}

func TestSuspendResume(t *testing.T) {
	e := NewEngine()
	var order []string
	var sleeper *Proc
	sleeper = e.Spawn("sleeper", func(p *Proc) {
		order = append(order, "suspend")
		p.Suspend()
		order = append(order, "resumed")
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "wake")
		sleeper.Resume()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"suspend", "wake", "resumed"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunDetectsDeadlock(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("stuck", func(p *Proc) { p.Suspend() })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(time.Microsecond, func() { fired++ })
	e.Schedule(time.Second, func() { fired++ })
	if err := e.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != Time(time.Millisecond) {
		t.Fatalf("Now() = %v, want 1ms", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := NewEngine()
	if err := e.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if err := e.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) { panic("boom") })
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil, want panic error")
	}
}

// TestFailFromCallbackEndsRun: an engine callback has no process to panic
// in; Fail is its way to end the run with an error. The first failure wins
// and nothing scheduled behind it runs.
func TestFailFromCallbackEndsRun(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	first, second := errors.New("first"), errors.New("second")
	ranAfter := false
	e.Schedule(time.Microsecond, func() {
		e.Fail(first)
		e.Fail(second)
	})
	e.Schedule(2*time.Microsecond, func() { ranAfter = true })
	if err := e.Run(); err != first {
		t.Errorf("Run = %v, want the first failure", err)
	}
	if e.Err() != first {
		t.Errorf("Err = %v, want the first failure", e.Err())
	}
	if ranAfter {
		t.Error("an event after the failure still ran")
	}
}

func TestCloseUnwindsBlockedProcs(t *testing.T) {
	e := NewEngine()
	cleaned := false
	e.Spawn("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Suspend()
	})
	_ = e.Run() // deadlock expected
	e.Close()
	if !cleaned {
		t.Fatal("blocked process defer did not run on Close")
	}
}

func TestCloseBeforeFirstDispatchSkipsBody(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("never", func(p *Proc) { ran = true })
	e.Close()
	if ran {
		t.Fatal("process body ran despite Close before dispatch")
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Microsecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(time.Microsecond)
			childAt = c.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if childAt != Time(2*time.Microsecond) {
		t.Fatalf("child finished at %v, want 2µs", childAt)
	}
}

func TestDeterministicSchedulesAcrossRuns(t *testing.T) {
	run := func() []Time {
		e := NewEngine(WithSeed(7))
		var stamps []Time
		for i := 0; i < 5; i++ {
			e.Spawn("w", func(p *Proc) {
				d := time.Duration(e.rng.intn(100)) * time.Microsecond
				p.Sleep(d)
				stamps = append(stamps, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run mismatch at %d: %v vs %v", i, a, b)
		}
	}
}

func TestEventHeapPropertyOrdering(t *testing.T) {
	// Property: popping the heap yields events in nondecreasing (time, seq)
	// order regardless of insertion order.
	f := func(delays []uint16) bool {
		var h eventHeap
		for i, d := range delays {
			h.push(&event{at: Time(d), seq: uint64(i)})
		}
		var prev *event
		for h.len() > 0 {
			ev := h.pop()
			if prev != nil {
				if ev.at < prev.at {
					return false
				}
				if ev.at == prev.at && ev.seq < prev.seq {
					return false
				}
			}
			prev = ev
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	base := Time(time.Second)
	if got := base.Add(time.Second); got != Time(2*time.Second) {
		t.Fatalf("Add = %v", got)
	}
	if got := base.Sub(Time(time.Millisecond)); got != time.Second-time.Millisecond {
		t.Fatalf("Sub = %v", got)
	}
	if base.String() != "1s" {
		t.Fatalf("String = %q", base.String())
	}
}

func TestEventsProcessedCounts(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Microsecond, func() {})
	e.Spawn("p", func(p *Proc) { p.Sleep(time.Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// One scheduled callback + spawn dispatch + sleep wake = at least 3.
	if got := e.EventsProcessed(); got < 3 {
		t.Fatalf("EventsProcessed = %d, want >= 3", got)
	}
}
