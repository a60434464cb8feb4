package sim

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a simulated process: a sequential body that runs cooperatively
// under the engine on a carrier, a pooled host coroutine. A Proc may only
// call blocking primitives (Sleep, Suspend, channel and mutex operations)
// from its own body while it is the running process.
// It is also the storage of what its own blocking needs (table slot, wait-queue
// link, wait label), so parking allocates nothing and Start can reuse it.
type Proc struct {
	e    *engine
	id   int64
	name string
	// k is the carrier this process runs on, from Start until it finishes.
	k *carrier
	// idx is the process's slot in engine.procs while it is live.
	idx      int
	finished bool
	killed   bool
	// waking guards against double-wakeups: a proc that is already
	// scheduled to resume must not be woken again.
	waking bool
	// waitKind/waitRes/waitLock describe what a blocked process waits for
	// (see WaitInfo); cleared on resume.
	waitKind string
	waitRes  string
	waitLock holder
	// wnext/queued link the process into the one waitq it blocks in;
	// granted is what a lock keeps per waiter.
	wnext   *Proc
	queued  bool
	granted bool
	// waitRender/waitArgs are a label recorded lazily by SetWaitLabel;
	// waitRender is nil when waitRes already holds the text.
	waitRender func(a, b, c uint64) string
	waitArgs   [3]uint64
	// span is the causal-tracing span this process currently executes
	// under (an opaque span ID owned by internal/trace; zero = none). It
	// is plain data the tracer threads through blocking protocol code —
	// the engine never reads it, so it cannot perturb the schedule.
	span uint64
}

// carrier is a host execution context for process bodies: a runtime
// coroutine (iter.Pull) the engine switches into with next and the body
// switches out of with yield, directly, with no run queue or channel in
// between. Carriers outlive their tenants, like the paper's pool of dummy
// threads: when a body returns, the carrier parks on the engine's idle list
// and the next Spawn reuses it, so a short-lived process starts no goroutine.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// p and fn are the current tenant and its body; nil while idle.
	p  *Proc
	fn func(p *Proc)
}

// Spawn starts fn as a new simulated process. The process begins running at
// the current virtual time (as a scheduled event, so the caller continues
// first). The name is used in diagnostics. The returned handle is storage
// nothing reuses: it stays valid, and Finished stays true, for ever.
func (e *engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{}
	e.Start(p, name, fn)
	return p
}

// Start is Spawn on caller-owned storage — a Proc embedded in a record the
// caller pools — so a short-lived process costs no allocation. The caller may
// pass p to Start again once the process has finished and was not killed (a
// killed process may still sit in a wait queue that will name it later: its
// storage is retired with it). Every handle to the old process then names the
// new one, and the caller must know none is in use; the engine's own are safe,
// a dispatch event carries the pid it was scheduled for.
//
//popcornvet:hotpath
func (e *engine) Start(p *Proc, name string, fn func(p *Proc)) {
	if p.id != 0 && (!p.finished || p.killed || p.queued) {
		panic("sim: Start on the storage of a process that is live, was killed or is still queued")
	}
	e.nextPID++
	*p = Proc{e: e, id: e.nextPID, name: name, idx: len(e.procs)}
	if p.k = Take(&e.idle); p.k == nil {
		p.k = newCarrier()
	}
	p.k.p, p.k.fn = p, fn
	// Table growth is amortized: capacity is retained as processes finish.
	e.procs = append(e.procs, p)
	e.observeStarted(p)
	p.dispatchIn(0)
}

// newCarrier is the idle list's cold miss: once per peak live process.
//
//popcornvet:coldpath
func newCarrier() *carrier {
	k := &carrier{}
	k.next, k.stop = iter.Pull(k.loop)
	return k
}

// loop is the carrier's coroutine body: run the assigned tenant, park idle,
// repeat until Close stops the carrier — then give its stack back.
func (k *carrier) loop(yield func(struct{}) bool) {
	k.yield = yield
	for ok := true; ok; ok = yield(struct{}{}) {
		k.run()
	}
	outgrowStack()
}

// outgrowStack grows a stopping carrier's stack past the size goroutines
// start with, so that its exit frees the stack. The runtime keeps a dead
// goroutine's stack for the next goroutine when it is exactly that size — up
// to 63 of them per P, which no collection frees — and a closed engine's
// carriers would otherwise park up to 1 MB of stack there, the more the less
// the program collects (a collection shrinks an idle carrier's stack, and a
// shrunk stack is freed at exit).
//
//go:noinline
func outgrowStack() byte {
	var pad [16 << 10]byte
	return lastByte(pad[:])
}

// lastByte reads pad's far end, so the compiler keeps outgrowStack's frame.
//
//go:noinline
func lastByte(b []byte) byte { return b[len(b)-1] }

// run executes the current tenant's body and its teardown, leaving the
// carrier ready for the next tenant.
func (k *carrier) run() {
	p, fn := k.p, k.fn
	e := p.e
	defer func() {
		p.finished = true
		k.p, k.fn = nil, nil
		// The process leaves the proc table (the last entry takes its slot),
		// the observer hears of it, and the carrier goes idle.
		last := len(e.procs) - 1
		e.procs[p.idx], e.procs[last].idx = e.procs[last], p.idx
		e.procs[last] = nil
		e.procs = e.procs[:last]
		e.observeFinished(p)
		Give(&e.idle, k)
		p.k = nil
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && err == errKilled {
				// Engine shutdown: exit quietly.
			} else if ok { // kept in the failure's chain for errors.Is
				e.Fail(fmt.Errorf("sim: process %q panicked: %w", p.name, err))
			} else {
				e.Fail(fmt.Errorf("sim: process %q panicked: %v", p.name, r))
			}
		}
	}()
	if p.killed {
		// Killed, or the engine closed, before the process ever ran.
		return
	}
	fn(p)
}

// dispatchIn queues p's next dispatch d from now: an event that carries the
// process itself, so spawn, wake and Sleep need no per-process closure, and
// its pid, so the event cannot reach the storage's next process.
func (p *Proc) dispatchIn(d time.Duration) {
	ev := p.e.Schedule(d, nil).ev
	ev.p, ev.pid = p, p.id
}

// dispatch hands the CPU to process pid, on p's storage, until it parks or
// finishes; an event a finished process left behind does nothing.
//
//popcornvet:hotpath
func (e *engine) dispatch(p *Proc, pid int64) {
	if p.finished || p.id != pid {
		return
	}
	e.handoffs++
	prev := e.current
	e.current = p
	p.waking = false
	p.k.next()
	e.current = prev
}

// park returns control from the running process to the engine and blocks
// until the process is dispatched again.
func (p *Proc) park() {
	p.k.yield(struct{}{})
	p.clearWaitInfo()
	if p.killed {
		panic(error(errKilled))
	}
}

// wake schedules p to resume at the current virtual time. It is idempotent
// while a wake is pending.
//
//popcornvet:hotpath
func (p *Proc) wake() {
	if p.waking || p.finished {
		return
	}
	p.waking = true
	p.e.observeWoken(p)
	p.dispatchIn(0)
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() Engine { return p.e }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the engine-unique process id.
func (p *Proc) ID() int64 { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Span returns the causal-tracing span ID this process currently runs
// under (zero when none). The engine itself never consults it.
func (p *Proc) Span() uint64 { return p.span }

// SetSpan records the causal-tracing span ID this process now runs under.
// Only the tracer (internal/trace) should call it; the value is carried,
// never interpreted, by the simulation.
func (p *Proc) SetSpan(id uint64) { p.span = id }

// Sleep blocks the process for d of virtual time, charged to the caller and
// nobody else. Non-positive durations still yield: the process re-enters the
// run queue behind same-instant events. A sleep nobody can interleave with
// (nextInLine) is not even an event: Sleep does to the engine exactly what
// scheduling, parking, popping and re-dispatching would (a seq, the clock,
// the event count; alone at its instant, it is no tie) without leaving the
// coroutine, so no seeded stream, event count or limit prefix can tell.
//
//popcornvet:hotpath
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.e
	if at := e.now.Add(d); !p.killed && e.nextInLine(at) {
		e.nextSeq()
		e.now = at
		e.processed++
		p.clearWaitInfo()
		return
	}
	p.waking = true
	p.dispatchIn(d)
	p.park()
}

// Suspend parks the process indefinitely; another process or an engine
// callback resumes it with Resume. Suspend/Resume is the low-level wait
// primitive used to build condition-variable style synchronisation.
// Callers may record what they wait for with setWaitInfo first; otherwise
// the deadlock report shows a generic "suspend".
func (p *Proc) Suspend() {
	if p.waitKind == "" {
		p.waitKind = "suspend"
	}
	p.park()
}

// Resume wakes a process parked in Suspend. Waking a process that is not
// suspended (or already scheduled to wake) is a no-op.
func (p *Proc) Resume() { p.wake() }

// Finished reports whether the process function has returned.
func (p *Proc) Finished() bool { return p.finished }

// Killed reports whether Kill (or Close) has terminated the process, whose
// Start storage must then not be started again.
func (p *Proc) Killed() bool { return p.killed }

// Kill terminates the process: the next time it would run (or immediately,
// if it is the running process) its blocking primitive panics with
// errKilled, which unwinds the body through its defers and which its
// carrier swallows. Killing a finished or already-killed process is a
// no-op. The fault injector uses Kill to model a kernel crash: the dead
// kernel's processes halt wherever they stand, but their defers still
// release engine-level resources (waitgroup counts, tracked registries) so
// the survivors' bookkeeping stays consistent.
func (p *Proc) Kill() {
	if p.finished || p.killed {
		return
	}
	p.killed = true
	if p == p.e.current {
		panic(error(errKilled))
	}
	p.wake()
}
