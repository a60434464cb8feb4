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

// GlobalLane is the lane value of untagged events and processes: work that
// belongs to no single kernel (the fabric, syscall veneers, observers).
const GlobalLane = -1

// maxLanes bounds the lane ID space. Lanes are kernel IDs, so this is far
// above any modeled machine; the cap exists only to turn a wild ID into a
// clear panic instead of an enormous allocation.
const maxLanes = 1 << 16

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
	// lane is the kernel-affinity tag (GlobalLane when untagged). Dispatch
	// ignores it: it records which kernel's state the event touches, the
	// independence relation schedule exploration can prune on.
	lane int
	// canceled events stay in the heap but are skipped on pop.
	canceled bool
	// gen counts the event object's reincarnations through the engine's
	// free list. An EventHandle captures the generation at Schedule time, so
	// a stale handle kept past its event's firing can never cancel the
	// object's next tenant.
	gen uint64
}

// core is the engine state. The root engine and its lane views are thin
// facades over one core; all invariants (deterministic seq assignment,
// free-list recycling, proc table bookkeeping) live here.
type core struct {
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

	// lanes caches the lane views handed out by Lane so affinity comparisons
	// are stable.
	lanes []*view
}

// Engine is a deterministic discrete-event simulation engine: one goroutine
// drains the event heap in (time, prio, seq) order, so a run is a pure
// function of (seed, workload). NewEngine returns the root engine; the lane
// views obtained from Lane also satisfy Engine and tag the work scheduled
// through them with a kernel affinity.
//
// All Engine methods must be called either from outside Run (to set up the
// simulation) or from within a running process or event callback; the engine
// is not safe for concurrent use from arbitrary goroutines.
type Engine interface {
	// Now returns the current virtual time.
	Now() Time
	// Rand returns the engine's deterministic random source (lane views
	// share the engine stream).
	Rand() *RNG
	// Seed returns the seed the engine's random source was created with.
	Seed() int64
	// TieShuffle reports whether same-instant events fire in seeded random
	// order (WithTieShuffle) rather than insertion order.
	TieShuffle() bool
	// SetEventLimit makes Run stop with ErrEventLimit after n events have
	// been processed over the engine's lifetime (0 disables the limit).
	SetEventLimit(n uint64)
	// Err returns the first failure (process panic or Fail) recorded by the
	// engine.
	Err() error
	// Fail records err as the run's failure, as a process panic would: Run
	// returns it once the current event completes. Engine callbacks, which
	// have no process to panic in, report a fatal model error through it.
	Fail(err error)
	// EventsProcessed returns how many events the engine has dispatched.
	EventsProcessed() uint64
	// Handoffs returns how many of those events switched into a process.
	Handoffs() uint64
	// Schedule arranges for fn to run at time now+d, tagged with this
	// view's lane. It returns a handle that can cancel the callback before
	// it fires.
	Schedule(d time.Duration, fn func()) EventHandle
	// Spawn starts fn as a new simulated process bound to this view's lane.
	Spawn(name string, fn func(p *Proc)) *Proc
	// Start is Spawn on caller-owned Proc storage, reusable once the process
	// has finished and was not killed.
	Start(p *Proc, name string, fn func(p *Proc))
	// SpawnDaemon starts fn as a daemon process bound to this view's lane.
	SpawnDaemon(name string, fn func(p *Proc)) *Proc
	// Run drains the event heap, advancing virtual time, until no events
	// remain or a process panics.
	Run() error
	// RunUntil processes events with timestamps <= t, then advances the
	// clock to t.
	RunUntil(t Time) error
	// RunFor processes events for d of virtual time from the current clock.
	RunFor(d time.Duration) error
	// Close terminates all live processes and stops their carriers.
	Close()
	// BlockedProcs returns the names of non-daemon processes that are alive
	// but blocked, in PID order.
	BlockedProcs() []string
	// Invariant registers a named model check run at quiescence (and
	// periodically under WithInvariantInterval).
	Invariant(name string, fn func() error)
	// SetProcObserver installs the process lifecycle observer.
	SetProcObserver(o ProcObserver)
	// AfterFunc schedules fn after d and returns a stoppable Timer.
	AfterFunc(d time.Duration, fn func()) *Timer
	// NewTimer returns a Timer that fires on its channel after d.
	NewTimer(d time.Duration) *Timer
	// Lane returns the affinity view for lane id (a kernel ID). Events and
	// processes created through the view carry the tag.
	Lane(id int) Engine
	// LaneID returns this view's lane, or GlobalLane for the root engine.
	LaneID() int

	// base seals the interface to this package and hands facade methods
	// the shared core.
	base() *core
}

// view is the concrete Engine implementation: a (core, lane) pair. The
// root engine is the GlobalLane view; Lane returns tagged views sharing the
// same core.
type view struct {
	c    *core
	lane int
}

// Option configures an Engine.
type Option func(*core)

// WithSeed sets the seed for the engine's deterministic random source.
func WithSeed(seed int64) Option {
	return func(c *core) { c.rng = NewRNG(seed) }
}

// WithTieShuffle makes same-instant events fire in a seeded random order
// instead of insertion order. Each seed still yields one fixed schedule, so
// a run is replayable from (seed, workload) alone; popcornmc sweeps seeds to
// explore interleavings the default schedule never exercises.
func WithTieShuffle() Option {
	return func(c *core) { c.shuffle = true }
}

// NewEngine returns a new engine with virtual time zero.
func NewEngine(opts ...Option) Engine {
	c := &core{rng: NewRNG(1)}
	for _, opt := range opts {
		opt(c)
	}
	return &view{c: c, lane: GlobalLane}
}

// Now returns the current virtual time.
func (v *view) Now() Time { return v.c.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation processes or between Run calls.
func (v *view) Rand() *RNG { return v.c.rng }

// Seed returns the seed the engine's random source was created with.
func (v *view) Seed() int64 { return v.c.rng.Seed() }

// TieShuffle reports whether same-instant events fire in seeded random
// order (WithTieShuffle) rather than insertion order.
func (v *view) TieShuffle() bool { return v.c.shuffle }

// SetEventLimit makes Run stop with ErrEventLimit after n events have been
// processed over the engine's lifetime (0 disables the limit). Schedule
// shrinking binary-searches this bound for the shortest failing prefix.
func (v *view) SetEventLimit(n uint64) { v.c.limit = n }

// Err returns the first failure (process panic or Fail) recorded by the
// engine.
func (v *view) Err() error { return v.c.failure }

// Fail records err as the run's failure, as a process panic would: Run
// returns it once the current event completes; the first failure wins.
func (v *view) Fail(err error) { v.c.fail(err) }

// EventsProcessed returns how many events the engine has dispatched — a
// measure of simulation work, useful for harness footers and regression
// tracking.
func (v *view) EventsProcessed() uint64 { return v.c.processed }

// Handoffs returns how many processed events switched into a process's
// coroutine; callbacks and sleeps taken in place (Proc.Sleep) do not.
func (v *view) Handoffs() uint64 { return v.c.handoffs }

// LaneID returns this view's lane, or GlobalLane for the root engine.
func (v *view) LaneID() int { return v.lane }

func (v *view) base() *core { return v.c }

// Lane returns the affinity view for lane id. Views are cached: repeated
// calls return the same Engine value, so affinity comparisons are stable.
func (v *view) Lane(id int) Engine {
	c := v.c
	if id < 0 || id >= maxLanes {
		panic(fmt.Sprintf("sim: lane %d out of range", id))
	}
	for id >= len(c.lanes) {
		c.lanes = append(c.lanes, nil)
	}
	if c.lanes[id] == nil {
		c.lanes[id] = &view{c: c, lane: id}
	}
	return c.lanes[id]
}

// Schedule arranges for fn to run at time now+d on the engine loop, tagged
// with this view's lane. It returns a handle that can cancel the callback
// before it fires. fn runs in engine context: it must not block on
// simulator primitives, but it may spawn processes, wake waiters, and
// schedule further events.
//
//popcornvet:hotpath
func (v *view) Schedule(d time.Duration, fn func()) EventHandle {
	if d < 0 {
		d = 0
	}
	c := v.c
	ev := c.allocEvent()
	ev.at = c.now.Add(d)
	ev.seq = c.nextSeq()
	ev.fn = fn
	ev.lane = v.lane
	if c.shuffle {
		ev.prio = c.rng.Uint64()
	} else {
		ev.prio = ev.seq
	}
	c.heap.push(ev)
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
func (c *core) allocEvent() *event {
	if ev := Take(&c.free); ev != nil {
		return ev
	}
	//popcornvet:allow hotalloc free-list cold miss; steady state recycles
	return &event{}
}

// recycle returns a fired or canceled event to the free list, bumping its
// generation so outstanding handles go stale.
//
//popcornvet:hotpath
func (c *core) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.p = nil, nil
	ev.canceled = false
	ev.lane = GlobalLane
	Give(&c.free, ev)
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

func (c *core) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// Run drains the event heap, advancing virtual time, until no events remain
// or a process panics. It returns ErrDeadlock if blocked processes remain
// while the heap is empty, and the panic error if a process failed.
func (v *view) Run() error {
	return v.c.drive(endOfTime)
}

// RunUntil processes events with timestamps <= t, then advances the clock to
// t. Events after t remain queued. Unlike Run, processes left blocked at t
// are not a deadlock: more work may be scheduled before the next RunUntil.
func (v *view) RunUntil(t Time) error {
	err := v.c.drive(t)
	if err != nil && !errors.Is(err, ErrDeadlock) {
		return err
	}
	if v.c.now < t {
		v.c.now = t
	}
	return nil
}

// RunFor processes events for d of virtual time from the current clock.
func (v *view) RunFor(d time.Duration) error { return v.RunUntil(v.c.now.Add(d)) }

// drive is the dispatch loop. It stops once the next event lies beyond until
// (Run passes endOfTime); the bound is a plain value rather than a predicate
// closure so repeated RunUntil calls stay allocation-free. The per-event work
// happens in step, which carries the hot-path root; the loop shell itself
// allocates only on the misuse/fatal paths.
func (c *core) drive(until Time) error {
	if c.closed {
		return errors.New("sim: engine is closed")
	}
	c.until = until
	for c.heap.len() > 0 && c.heap.peek().at <= until {
		if c.limit > 0 && c.processed >= c.limit {
			return ErrEventLimit
		}
		if err, stop := c.step(); stop {
			return err
		}
	}
	return c.quiesce()
}

// step pops and dispatches exactly one event, in canonical order, followed by
// the periodic invariant sweep when one is due.
//
//popcornvet:hotpath
func (c *core) step() (error, bool) {
	ev := c.heap.pop()
	if ev.canceled {
		c.recycle(ev)
		return nil, false
	}
	if ev.at < c.now {
		//popcornvet:allow hotalloc fatal-error path; the run is already lost
		return fmt.Errorf("sim: event scheduled in the past (%v < %v)", ev.at, c.now), true
	}
	c.now = ev.at
	c.processed++
	fn, p, pid := ev.fn, ev.p, ev.pid
	c.recycle(ev)
	if p != nil {
		c.dispatch(p, pid)
	} else {
		fn()
	}
	if c.failure != nil {
		return c.failure, true
	}
	if c.invInterval > 0 && len(c.invariants) > 0 && c.now >= c.nextInvCheck {
		c.checkInvariants()
		c.nextInvCheck = c.now + Time(c.invInterval)
		if c.failure != nil {
			return c.failure, true
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
func (c *core) nextInLine(at Time) bool {
	return (c.heap.len() == 0 || c.heap.peek().at > at) && c.failure == nil &&
		(c.limit == 0 || c.processed < c.limit) && at <= c.until && c.invInterval == 0
}

// quiesce runs the end-of-heap checks: the model should be consistent
// whenever no work is in flight, and non-daemon processes still blocked with
// no pending events are a deadlock.
func (c *core) quiesce() error {
	if c.heap.len() == 0 {
		c.checkInvariants()
		if c.failure != nil {
			return c.failure
		}
		if c.blockedCount() > 0 {
			return c.buildDeadlockError()
		}
	}
	return nil
}

func (c *core) blockedCount() int {
	n := 0
	for _, p := range c.procs {
		if !p.finished && !p.daemon {
			n++
		}
	}
	return n
}

// procsByID returns the live process table in ascending PID order. Every
// loop whose side effects are order-visible (collecting names, building
// error reports, tearing processes down) iterates through this instead of
// ranging the table, whose order is whatever swap-removal left, directly.
func (c *core) procsByID() []*Proc {
	out := append([]*Proc(nil), c.procs...)
	//popcornvet:allow detorder PIDs are allocated uniquely, so the single key is total
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// BlockedProcs returns the names of non-daemon processes that are alive but
// blocked, in PID order.
func (v *view) BlockedProcs() []string {
	var names []string
	for _, p := range v.c.procsByID() {
		if !p.finished && !p.daemon {
			names = append(names, p.name)
		}
	}
	return names
}

// Close terminates all live processes and stops every carrier, so no goroutine
// outlives it. The engine cannot be used afterwards. Calling it again is safe.
func (v *view) Close() {
	c := v.c
	if c.closed {
		return
	}
	c.closed = true
	for _, p := range c.procsByID() {
		if p.finished {
			continue
		}
		p.killed = true
		// Switch into the process; its blocking primitive panics with
		// ErrKilled, which the carrier swallows before going idle.
		p.k.next()
	}
	for _, k := range c.idle {
		k.stop()
	}
	c.idle = nil
}

// fail records the first failure.
func (c *core) fail(err error) {
	if c.failure == nil {
		c.failure = err
	}
}
