package sim

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"
)

// envEngineKind is the POPCORN_ENGINE environment override, read once at
// startup. Setting POPCORN_ENGINE=parallel makes NewEngine build the
// parallel engine, which is how CI drives the whole existing test corpus
// through the concurrent dispatcher without touching any call site.
// Explicitly named constructors (NewEngineNamed with "serial" or
// "parallel", NewParallelEngine) ignore it.
var envEngineKind = os.Getenv("POPCORN_ENGINE")

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

// GlobalLane is the lane value of untagged events: they execute in the
// engine's serialised merge step, never concurrently with anything.
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
	// lane is the kernel-affinity tag (GlobalLane when untagged). The serial
	// engine ignores it; the parallel engine runs same-instant events on
	// distinct lanes concurrently and serialises everything else.
	lane int
	// canceled events stay in the heap but are skipped on pop.
	canceled bool
	// gen counts the event object's reincarnations through the engine's
	// free list. An EventHandle captures the generation at Schedule time, so
	// a stale handle kept past its event's firing can never cancel the
	// object's next tenant.
	gen uint64
}

// core is the engine state shared by the serial and parallel
// implementations of Engine. Lane views and engines are thin facades over
// one core; all invariants (deterministic seq assignment, free-list
// recycling, proc table bookkeeping) live here.
type core struct {
	now       Time
	seq       uint64
	heap      eventHeap
	rng       *RNG
	shuffle   bool
	limit     uint64
	observer  ProcObserver
	procs     map[int64]*Proc
	nextPID   int64
	current   *Proc
	failure   error
	closed    bool
	processed uint64

	// free is the engine-owned event free list. Fired and canceled events
	// are recycled through it (LIFO), so steady-state scheduling allocates
	// nothing. A plain slice keeps recycling deterministic — sync.Pool
	// would let wall-clock GC timing decide which objects survive.
	free []*event

	// idle holds the carriers whose tenant finished; Spawn reuses them LIFO.
	// Like free it is touched only in serial or commit context (DESIGN.md §15).
	idle []*carrier

	// invariants are the registered model checks; invInterval > 0 enables
	// the periodic sweep, nextInvCheck is its high-water mark.
	invariants   []invariant
	invInterval  time.Duration
	nextInvCheck Time

	// root is the engine facade (serial or parallel); lanes caches the lane
	// views handed out by Lane so affinity comparisons are stable.
	root  *view
	lanes []*view
	// loop is the dispatch strategy: the serial engine's in-order loop or
	// the parallel engine's gather/exec/commit loop.
	loop runner
	// par is non-nil exactly while a parallel batch is executing; lane
	// views consult it to defer engine effects into the batch's buffers.
	par *parRun
	// workers caps how many lane groups execute concurrently (parallel
	// engine only).
	workers int
	// isParallel records which implementation this core backs.
	isParallel bool
}

// runner is the dispatch-loop strategy behind an Engine: the serial
// implementation drains the heap in canonical order on one goroutine, the
// parallel implementation executes same-instant lane runs concurrently.
type runner interface {
	drive(until Time, bounded bool) error
}

// Engine is a deterministic discrete-event simulation engine. It is an
// interface with two implementations — NewEngine's serial engine and
// NewParallelEngine's concurrent same-timestamp engine — that produce
// byte-identical runs for the same seed and workload. Lane views obtained
// from Lane also satisfy Engine; they tag scheduled work with a kernel
// affinity the parallel engine exploits.
//
// All Engine methods must be called either from outside Run (to set up the
// simulation) or from within a running process; except where the parallel
// dispatch contract (DESIGN.md §15) says otherwise, the engine is not safe
// for concurrent use from arbitrary goroutines.
type Engine interface {
	// Now returns the current virtual time.
	Now() Time
	// Rand returns this view's deterministic random source: the engine
	// stream for the root engine, a lane-derived stream for lane views (so
	// lane events never race on the shared generator).
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
	// Schedule arranges for fn to run at time now+d, tagged with this
	// view's lane. It returns a handle that can cancel the callback before
	// it fires.
	Schedule(d time.Duration, fn func()) EventHandle
	// ScheduleMerge arranges for fn to run at time now+d as an untagged
	// merge event, regardless of this view's lane. It is how lane work
	// reaches shared state: a lane event that must touch the fabric,
	// another kernel, or any cross-kernel plane schedules the touch as a
	// merge event, which the engine serialises with all other merge work.
	ScheduleMerge(d time.Duration, fn func()) EventHandle
	// Spawn starts fn as a new simulated process bound to this view's lane.
	Spawn(name string, fn func(p *Proc)) *Proc
	// SpawnDaemon starts fn as a daemon process bound to this view's lane.
	SpawnDaemon(name string, fn func(p *Proc)) *Proc
	// Wake schedules p to resume at the current virtual time. From a lane
	// event it is the only legal way to wake a process on another lane: the
	// wake is deferred into the batch's effect buffer and committed in
	// canonical order at the barrier.
	Wake(p *Proc)
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
	// processes created through the view carry the tag; under the parallel
	// engine, same-instant events on distinct lanes execute concurrently.
	Lane(id int) Engine
	// LaneID returns this view's lane, or GlobalLane for the root engine.
	LaneID() int
	// Parallel reports whether this engine dispatches lane runs
	// concurrently (NewParallelEngine) rather than serially.
	Parallel() bool

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
	// rng is the lane-derived random stream (nil for the root view, which
	// uses the core's stream). Per-lane streams keep Rand usable from
	// concurrent lane events without racing on the shared generator.
	rng *RNG
}

// serialEngine is the classic engine: one goroutine drains the heap in
// (time, prio, seq) order. It is the reference implementation the parallel
// engine must match byte-for-byte.
type serialEngine struct{ *view }

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

// WithWorkers caps how many lane groups the parallel engine executes
// concurrently (default: one per lane in the batch). The serial engine
// ignores it. Worker count never affects results, only wall-clock speed.
func WithWorkers(n int) Option {
	return func(c *core) { c.workers = n }
}

func newCore(opts ...Option) *core {
	c := &core{
		rng:   NewRNG(1),
		procs: make(map[int64]*Proc),
	}
	for _, opt := range opts {
		opt(c)
	}
	c.root = &view{c: c, lane: GlobalLane}
	return c
}

// NewEngine returns a new engine with virtual time zero — the serial
// engine, unless the POPCORN_ENGINE=parallel environment override is set
// (both produce identical runs; see Engine).
func NewEngine(opts ...Option) Engine {
	if envEngineKind == "parallel" {
		return NewParallelEngine(opts...)
	}
	return newSerialEngine(opts...)
}

// newSerialEngine builds the serial engine unconditionally.
func newSerialEngine(opts ...Option) Engine {
	c := newCore(opts...)
	e := &serialEngine{view: c.root}
	c.loop = (*serialLoop)(c)
	return e
}

// Now returns the current virtual time.
func (v *view) Now() Time { return v.c.now }

// Rand returns this view's deterministic random source. The root engine
// returns the engine stream; a lane view returns its own lane-derived
// stream, so lane events may draw concurrently without racing. It must only
// be used from simulation processes or between Run calls.
func (v *view) Rand() *RNG {
	if v.rng != nil {
		return v.rng
	}
	return v.c.rng
}

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
// returns it once the current event completes; the first failure wins. From
// a parallel lane event it defers to the commit step like any other effect.
func (v *view) Fail(err error) {
	if s := v.c.laneSlotActive(v.lane); s != nil {
		s.deferFail(err)
		return
	}
	v.c.fail(err)
}

// EventsProcessed returns how many events the engine has dispatched — a
// measure of simulation work, useful for harness footers and regression
// tracking.
func (v *view) EventsProcessed() uint64 { return v.c.processed }

// LaneID returns this view's lane, or GlobalLane for the root engine.
func (v *view) LaneID() int { return v.lane }

// Parallel reports whether the engine behind this view dispatches lane
// runs concurrently.
func (v *view) Parallel() bool { return v.c.isParallel }

func (v *view) base() *core { return v.c }

// Lane returns the affinity view for lane id. Views are cached: repeated
// calls return the same Engine value, so affinity comparisons are stable.
func (v *view) Lane(id int) Engine {
	c := v.c
	if id < 0 || id >= maxLanes {
		panic(fmt.Sprintf("sim: lane %d out of range", id))
	}
	for id >= len(c.lanes) {
		//popcornvet:bounded lane table: one entry per modeled kernel, grown at boot only
		c.lanes = append(c.lanes, nil)
	}
	if c.lanes[id] == nil {
		c.lanes[id] = &view{c: c, lane: id, rng: NewRNG(laneSeed(c.rng.Seed(), id))}
	}
	return c.lanes[id]
}

// laneSeed derives a per-lane RNG seed from the engine seed. The mix keeps
// lane streams distinct from each other and from the engine stream while
// remaining a pure function of (seed, lane) — replay-identical on both
// engines.
func laneSeed(seed int64, lane int) int64 {
	x := uint64(seed) ^ (0x9e3779b97f4a7c15 * (uint64(lane) + 1))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	return int64(x)
}

// Schedule arranges for fn to run at time now+d on the engine loop, tagged
// with this view's lane. It returns a handle that can cancel the callback
// before it fires. fn runs in engine context: it must not block on
// simulator primitives, but it may spawn processes, wake waiters, and
// schedule further events. From within a parallel lane event the schedule
// is deferred: it enters the heap at the batch barrier, in canonical batch
// order, exactly where the serial engine would have placed it.
//
//popcornvet:hotpath
func (v *view) Schedule(d time.Duration, fn func()) EventHandle {
	if d < 0 {
		d = 0
	}
	c := v.c
	if s := c.laneSlotActive(v.lane); s != nil {
		return s.deferSchedule(c.now.Add(d), fn, v.lane)
	}
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

// ScheduleMerge arranges for fn to run at time now+d as an untagged merge
// event, regardless of this view's lane. From within a parallel lane event
// the schedule is deferred and committed in canonical batch order, exactly
// where the serial engine would have placed it — so "hop to the merge" is
// replay-identical on both engines. It is the one legal way for lane work
// to reach the fabric or another kernel's state (DESIGN.md §15).
//
//popcornvet:hotpath
func (v *view) ScheduleMerge(d time.Duration, fn func()) EventHandle {
	if d < 0 {
		d = 0
	}
	c := v.c
	if s := c.laneSlotActive(v.lane); s != nil {
		return s.deferSchedule(c.now.Add(d), fn, GlobalLane)
	}
	return c.root.Schedule(d, fn)
}

// push enters a deferred event into the heap, assigning its seq and
// tie-priority at commit time — the same order the serial engine would have
// assigned them during execution.
func (c *core) pushDeferred(ev *event) {
	ev.seq = c.nextSeq()
	if c.shuffle {
		ev.prio = c.rng.Uint64()
	} else {
		ev.prio = ev.seq
	}
	c.heap.push(ev)
}

// allocEvent takes an event object off the free list, or allocates one on a
// cold miss. The returned event keeps only its gen counter; all scheduling
// fields are set by the caller.
//
//popcornvet:hotpath
func (c *core) allocEvent() *event {
	if n := len(c.free); n > 0 {
		ev := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
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
	ev.fn = nil
	ev.canceled = false
	ev.lane = GlobalLane
	//popcornvet:bounded free list: grows only when an event retires, so peak live events cap it
	//popcornvet:allow hotalloc free-list growth is amortized; capacity is retained
	c.free = append(c.free, ev)
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
// had not yet fired (and is now guaranteed not to). Lane events may only
// cancel handles they created on their own lane (DESIGN.md §15).
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
	return v.c.loop.drive(0, false)
}

// RunUntil processes events with timestamps <= t, then advances the clock to
// t. Events after t remain queued. Unlike Run, processes left blocked at t
// are not a deadlock: more work may be scheduled before the next RunUntil.
func (v *view) RunUntil(t Time) error {
	err := v.c.loop.drive(t, true)
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

// serialLoop is the serial engine's runner: the classic one-event-at-a-time
// dispatch loop.
type serialLoop core

// drive is the serial dispatch loop. With bounded set, it stops once the
// next event lies beyond until; the bound is a plain value rather than a
// predicate closure so repeated RunUntil calls stay allocation-free. The
// per-event work happens in stepSerial, which carries the hot-path root;
// the loop shell itself allocates only on the misuse/fatal paths.
func (l *serialLoop) drive(until Time, bounded bool) error {
	c := (*core)(l)
	if c.closed {
		return errors.New("sim: engine is closed")
	}
	for c.heap.len() > 0 && (!bounded || c.heap.peek().at <= until) {
		if c.limit > 0 && c.processed >= c.limit {
			return ErrEventLimit
		}
		if err, stop := c.stepSerial(); stop {
			return err
		}
	}
	return c.quiesce()
}

// stepSerial pops and dispatches exactly one event, in canonical order,
// with the serial engine's interleaving of invariant sweeps. Both engines
// funnel their serialised dispatch through it so the merge-phase semantics
// cannot drift.
//
//popcornvet:hotpath
func (c *core) stepSerial() (error, bool) {
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
	fn := ev.fn
	c.recycle(ev)
	fn()
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

// quiesce runs the end-of-heap checks shared by both engines: the model
// should be consistent whenever no work is in flight, and non-daemon
// processes still blocked with no pending events are a deadlock.
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
// ranging the map directly, so runs stay bit-identical.
func (c *core) procsByID() []*Proc {
	out := make([]*Proc, 0, len(c.procs))
	for _, p := range c.procs {
		out = append(out, p)
	}
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

// fail records the first failure. It only ever runs in serial context:
// lane-phase failures are deferred as effects and committed in canonical
// batch order, so the "first" failure is deterministic even when several
// lanes fail in one batch.
func (c *core) fail(err error) {
	if c.failure == nil {
		c.failure = err
	}
}
