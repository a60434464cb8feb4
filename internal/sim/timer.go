package sim

import "time"

// Timer is a cancellable virtual-time alarm: a callback scheduled with
// AfterFunc that Stop can withdraw before it fires.
type Timer struct{ handle EventHandle }

// AfterFunc arranges for fn to run in engine context after d of virtual
// time. Stop cancels it.
func (e *engine) AfterFunc(d time.Duration, fn func()) *Timer {
	return &Timer{handle: e.Schedule(d, fn)}
}

// Stop cancels the timer, reporting whether it was still pending.
func (t *Timer) Stop() bool { return t.handle.Cancel() }
