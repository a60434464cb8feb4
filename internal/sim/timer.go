package sim

import "time"

// Timer is a cancellable virtual-time alarm. Unlike Engine.Schedule it is
// aimed at process code: the callback form (AfterFunc) or the waitable
// form (NewTimer + Wait) both resolve against the engine's clock.
type Timer struct {
	e       Engine
	handle  EventHandle
	fired   bool
	stopped bool
	waiter  *Proc
}

// AfterFunc arranges for fn to run in engine context after d of virtual
// time. Stop cancels it.
func (e *view) AfterFunc(d time.Duration, fn func()) *Timer {
	t := &Timer{e: e}
	t.handle = e.Schedule(d, func() {
		t.fired = true
		fn()
	})
	return t
}

// NewTimer returns a timer that fires after d; a process blocks on it with
// Wait.
func (e *view) NewTimer(d time.Duration) *Timer {
	t := &Timer{e: e}
	t.handle = e.Schedule(d, func() {
		t.fired = true
		if t.waiter != nil {
			w := t.waiter
			t.waiter = nil
			w.wake()
		}
	})
	return t
}

// Wait blocks p until the timer fires. It returns immediately (true) if it
// already fired, and false without blocking if the timer was stopped.
func (t *Timer) Wait(p *Proc) bool {
	if t.fired {
		return true
	}
	if t.stopped {
		return false
	}
	if t.waiter != nil {
		panic("sim: Timer.Wait by two processes")
	}
	t.waiter = p
	p.SetWaitInfo("timer", "")
	p.park()
	t.waiter = nil
	return t.fired
}

// Stop cancels the timer, reporting whether it was still pending. A
// blocked waiter is released (its Wait returns false).
func (t *Timer) Stop() bool {
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	ok := t.handle.Cancel()
	if t.waiter != nil {
		w := t.waiter
		t.waiter = nil
		w.wake()
	}
	return ok
}

// Fired reports whether the timer has gone off.
func (t *Timer) Fired() bool { return t.fired }
