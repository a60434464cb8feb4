package sim

// ProcObserver receives the engine's scheduling and synchronisation edges.
// Dynamic checkers (the sanitizer's vector clocks) ride on these: every call
// is a happens-before edge in the simulated machine. All callbacks run
// synchronously on the engine loop; they must not block.
//
// waker/parent may be nil when the edge originates in an engine callback
// (a timer, a fabric receive pump) rather than a running process.
type ProcObserver interface {
	// ProcStarted fires when parent spawns child, before child first runs.
	ProcStarted(parent, child *Proc)
	// ProcWoken fires when waker makes a blocked proc runnable (mutex
	// handoff, cond signal, Resume). Self-wakeups (Sleep) do not fire.
	ProcWoken(waker, woken *Proc)
	// ProcFinished fires when a proc's function returns or panics.
	ProcFinished(p *Proc)
	// SyncAcquire/SyncRelease bracket lock-based critical sections; key
	// identifies the lock (the *Mutex or *RWMutex itself).
	SyncAcquire(p *Proc, key any)
	SyncRelease(p *Proc, key any)
}

// SetProcObserver attaches o to the engine. Pass nil to detach. The engine
// pays only a nil-check per scheduling edge when detached.
func (v *view) SetProcObserver(o ProcObserver) { v.c.observer = o }

func (e *core) observeStarted(child *Proc) {
	if e.observer != nil {
		e.observer.ProcStarted(e.current, child)
	}
}

func (e *core) observeWoken(woken *Proc) {
	if e.observer != nil && e.current != woken {
		e.observer.ProcWoken(e.current, woken)
	}
}

func (e *core) observeFinished(p *Proc) {
	if e.observer != nil {
		e.observer.ProcFinished(p)
	}
}

func (e *core) observeAcquire(p *Proc, key any) {
	if e.observer != nil {
		e.observer.SyncAcquire(p, key)
	}
}

func (e *core) observeRelease(p *Proc, key any) {
	if e.observer != nil {
		e.observer.SyncRelease(p, key)
	}
}
