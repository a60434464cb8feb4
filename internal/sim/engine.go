package sim

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since engine start.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a duration since the engine epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t as a duration since the engine epoch (e.g. "1.5ms").
func (t Time) String() string { return time.Duration(t).String() }

// ErrKilled is the panic value used to unwind a process body when the
// engine shuts down. User code never observes it: the carrier recovers it
// before taking its next tenant.
var ErrKilled = errors.New("sim: process killed by engine shutdown")

// ErrDeadlock is returned by Run when processes remain blocked but no events
// are pending, so virtual time can never advance again.
var ErrDeadlock = errors.New("sim: deadlock: blocked processes with no pending events")

// ErrEventLimit is returned by Run when the engine stops because it reached
// the limit set with SetEventLimit. Schedule exploration uses it to replay a
// bounded prefix of a run.
var ErrEventLimit = errors.New("sim: event limit reached")

const endOfTime = Time(1<<63 - 1) // the bound of an unbounded Run

type event struct {
	at  Time
	seq uint64
	// prio breaks ties between same-instant events. By default prio == seq
	// (insertion order); under WithTieShuffle it is a seeded random draw, so
	// different seeds explore different interleavings of logically
	// concurrent events while each seed stays fully deterministic.
	prio uint64
	fn   func()
	// p, when set (Proc.dispatchIn), is dispatched instead of calling fn —
	// if it is still process pid: its storage may have been started anew.
	p   *Proc
	pid int64
	// canceled events stay in the heap but are skipped on pop.
	canceled bool
	// gen counts the event object's reincarnations through the engine's
	// free list. An EventHandle captures the generation at Schedule time, so
	// a stale handle kept past its event's firing can never cancel the
	// object's next tenant.
	gen uint64
}

// Engine is a deterministic discrete-event simulation engine: one goroutine
// drains the event heap in (time, prio, seq) order, so a run is a pure
// function of (seed, workload). NewEngine returns one; every kernel,
// service and process of a simulated machine shares it.
//
// Its methods must be called either from outside Run (to set up the
// simulation) or from within a running process or event callback; the engine
// is not safe for concurrent use from arbitrary goroutines. Every engine must
// be Closed: finished processes leave their carriers on the idle list until
// Close stops them.
type Engine = *engine

// engine is the one engine type: the clock, the event heap and its free
// list, the process table and the idle carriers. All invariants
// (deterministic seq assignment, free-list recycling, proc table
// bookkeeping) live here.
type engine struct {
	now       Time
	seq       uint64
	heap      eventHeap
	rng       *RNG
	shuffle   bool
	limit     uint64
	observer  ProcObserver
	procs     []*Proc // live processes, unordered; Proc.idx is the slot
	nextPID   int64
	current   *Proc
	failure   error
	closed    bool
	processed uint64
	handoffs  uint64
	until     Time // the running drive call's bound

	// free is the engine-owned event free list (Take/Give). Fired and
	// canceled events are recycled through it, so steady-state scheduling
	// allocates nothing.
	free []*event

	// idle holds the carriers whose tenant finished; Spawn reuses them LIFO.
	idle []*carrier

	// invariants are the registered model checks; invInterval > 0 enables
	// the periodic sweep, nextInvCheck is its high-water mark.
	invariants   []invariant
	invInterval  time.Duration
	nextInvCheck Time
}

// Option configures an Engine.
type Option func(*engine)

// WithSeed sets the seed for the engine's deterministic random source.
func WithSeed(seed int64) Option {
	return func(e *engine) { e.rng = NewRNG(seed) }
}

// WithTieShuffle makes same-instant events fire in a seeded random order
// instead of insertion order. Each seed still yields one fixed schedule, so
// a run is replayable from (seed, workload) alone; popcornmc sweeps seeds to
// explore interleavings the default schedule never exercises.
func WithTieShuffle() Option {
	return func(e *engine) { e.shuffle = true }
}

// NewEngine returns a new engine with virtual time zero.
func NewEngine(opts ...Option) Engine {
	e := &engine{rng: NewRNG(1)}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Now returns the current virtual time.
func (e *engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation processes or between Run calls.
func (e *engine) Rand() *RNG { return e.rng }

// Seed returns the seed the engine's random source was created with.
func (e *engine) Seed() int64 { return e.rng.Seed() }

// SetEventLimit makes Run stop with ErrEventLimit after n events have been
// processed over the engine's lifetime (0 disables the limit). Schedule
// shrinking binary-searches this bound for the shortest failing prefix.
func (e *engine) SetEventLimit(n uint64) { e.limit = n }

// Err returns the first failure (process panic or Fail) recorded by the
// engine.
func (e *engine) Err() error { return e.failure }

// Fail records err as the run's failure, as a process panic would: Run
// returns it once the current event completes; the first failure wins.
// Engine callbacks, which have no process to panic in, report a fatal model
// error through it.
func (e *engine) Fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
}

// EventsProcessed returns how many events the engine has dispatched — a
// measure of simulation work, useful for harness footers and regression
// tracking.
func (e *engine) EventsProcessed() uint64 { return e.processed }

// Handoffs returns how many processed events switched into a process's
// coroutine; callbacks and sleeps taken in place (Proc.Sleep) do not.
func (e *engine) Handoffs() uint64 { return e.handoffs }

// Schedule arranges for fn to run at time now+d on the engine loop. It
// returns a handle that can cancel the callback before it fires. fn runs in
// engine context: it must not block on simulator primitives, but it may
// spawn processes, wake waiters, and schedule further events.
//
//popcornvet:hotpath
func (e *engine) Schedule(d time.Duration, fn func()) EventHandle {
	if d < 0 {
		d = 0
	}
	ev := e.allocEvent()
	ev.at = e.now.Add(d)
	ev.seq = e.nextSeq()
	ev.fn = fn
	if e.shuffle {
		ev.prio = e.rng.Uint64()
	} else {
		ev.prio = ev.seq
	}
	e.heap.push(ev)
	return EventHandle{ev: ev, gen: ev.gen}
}

// Take and Give are the simulator's free-list idiom, for every layer's pools:
// a plain LIFO slice of retired objects beside whatever owns them, so recycling
// is engine-ordered and deterministic — sync.Pool would let wall-clock GC timing
// decide which objects survive. Take returns nil on a cold miss and the caller
// allocates; a list grows only when an object retires, so the peak number in use
// caps it.
//
//popcornvet:hotpath
func Take[T any](free *[]*T) (x *T) {
	if n := len(*free); n > 0 {
		x, (*free)[n-1] = (*free)[n-1], nil
		*free = (*free)[:n-1]
	}
	return x
}

// Give retires x to a free list; see Take.
//
//popcornvet:hotpath
func Give[T any](free *[]*T, x *T) {
	//popcornvet:allow hotalloc free-list growth is amortized; capacity is retained
	*free = append(*free, x)
}

// allocEvent takes an event object off the free list, or allocates one on a
// cold miss. The returned event keeps only its gen counter; all scheduling
// fields are set by the caller.
//
//popcornvet:hotpath
func (e *engine) allocEvent() *event {
	if ev := Take(&e.free); ev != nil {
		return ev
	}
	//popcornvet:allow hotalloc free-list cold miss; steady state recycles
	return &event{}
}

// recycle returns a fired or canceled event to the free list, bumping its
// generation so outstanding handles go stale.
//
//popcornvet:hotpath
func (e *engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.p = nil, nil
	ev.canceled = false
	Give(&e.free, ev)
}

// EventHandle allows cancelling a scheduled callback. It is a value: copies
// are equivalent, and the zero handle cancels nothing. A handle goes stale
// once its event fires or is canceled; Cancel on a stale handle is a safe
// no-op even after the engine recycles the underlying event object.
type EventHandle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the callback from firing. It reports whether the callback
// had not yet fired (and is now guaranteed not to).
func (h EventHandle) Cancel() bool {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.canceled || h.ev.fn == nil {
		return false
	}
	h.ev.canceled = true
	return true
}

func (e *engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// Run drains the event heap, advancing virtual time, until no events remain
// or a process panics. It returns ErrDeadlock if blocked processes remain
// while the heap is empty, and the panic error if a process failed.
func (e *engine) Run() error {
	return e.drive(endOfTime)
}

// RunUntil processes events with timestamps <= t, then advances the clock to
// t. Events after t remain queued. Unlike Run, processes left blocked at t
// are not a deadlock: more work may be scheduled before the next RunUntil.
func (e *engine) RunUntil(t Time) error {
	err := e.drive(t)
	if err != nil && !errors.Is(err, ErrDeadlock) {
		return err
	}
	if e.now < t {
		e.now = t
	}
	return nil
}

// RunFor processes events for d of virtual time from the current clock.
func (e *engine) RunFor(d time.Duration) error { return e.RunUntil(e.now.Add(d)) }

// drive is the dispatch loop. It stops once the next event lies beyond until
// (Run passes endOfTime); the bound is a plain value rather than a predicate
// closure so repeated RunUntil calls stay allocation-free. The per-event work
// happens in step, which carries the hot-path root; the loop shell itself
// allocates only on the misuse/fatal paths.
func (e *engine) drive(until Time) error {
	if e.closed {
		return errors.New("sim: engine is closed")
	}
	e.until = until
	for e.heap.len() > 0 && e.heap.peek().at <= until {
		if e.limit > 0 && e.processed >= e.limit {
			return ErrEventLimit
		}
		if err, stop := e.step(); stop {
			return err
		}
	}
	return e.quiesce()
}

// step pops and dispatches exactly one event, in canonical order, followed by
// the periodic invariant sweep when one is due.
//
//popcornvet:hotpath
func (e *engine) step() (error, bool) {
	ev := e.heap.pop()
	if ev.canceled {
		e.recycle(ev)
		return nil, false
	}
	if ev.at < e.now {
		//popcornvet:allow hotalloc fatal-error path; the run is already lost
		return fmt.Errorf("sim: event scheduled in the past (%v < %v)", ev.at, e.now), true
	}
	e.now = ev.at
	e.processed++
	fn, p, pid := ev.fn, ev.p, ev.pid
	e.recycle(ev)
	if p != nil {
		e.dispatch(p, pid)
	} else {
		fn()
	}
	if e.failure != nil {
		return e.failure, true
	}
	if e.invInterval > 0 && len(e.invariants) > 0 && e.now >= e.nextInvCheck {
		e.checkInvariants()
		e.nextInvCheck = e.now + Time(e.invInterval)
		if e.failure != nil {
			return e.failure, true
		}
	}
	return nil, false
}

// nextInLine reports whether an event scheduled now for at would be the very
// next one drive dispatches with nothing observing the boundary in between:
// no pending event at or before at, no failure, event limit or RunUntil bound
// stopping the loop first, no periodic invariant sweep between events.
//
//popcornvet:hotpath
func (e *engine) nextInLine(at Time) bool {
	return (e.heap.len() == 0 || e.heap.peek().at > at) && e.failure == nil &&
		(e.limit == 0 || e.processed < e.limit) && at <= e.until && e.invInterval == 0
}

// quiesce runs the end-of-heap checks: the model should be consistent
// whenever no work is in flight, and a live process with no pending event is
// blocked for ever, a deadlock. (The table holds only live processes: a body
// that returns leaves it.)
func (e *engine) quiesce() error {
	if e.heap.len() == 0 {
		e.checkInvariants()
		if e.failure != nil {
			return e.failure
		}
		if len(e.procs) > 0 {
			return e.buildDeadlockError()
		}
	}
	return nil
}

// procsByID returns the live process table in ascending PID order. Every
// loop whose side effects are order-visible (collecting names, building
// error reports, tearing processes down) iterates through this instead of
// ranging the table, whose order is whatever swap-removal left, directly.
func (e *engine) procsByID() []*Proc {
	out := append([]*Proc(nil), e.procs...)
	//popcornvet:allow detorder PIDs are allocated uniquely, so the single key is total
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Close terminates all live processes and stops every carrier, so no goroutine
// outlives it. The engine cannot be used afterwards. Calling it again is safe.
func (e *engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.procsByID() {
		if p.finished {
			continue
		}
		p.killed = true
		// Switch into the process; its blocking primitive panics with
		// ErrKilled, which the carrier swallows before going idle.
		p.k.next()
	}
	for _, k := range e.idle {
		k.stop()
	}
	e.idle = nil
}
