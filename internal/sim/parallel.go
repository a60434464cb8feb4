package sim

import (
	"errors"
	"fmt"
	"sync"
)

// parallelEngine is the concurrent same-timestamp engine. Maximal runs of
// same-instant lane-tagged events execute grouped by lane across a worker
// pool; every engine effect they produce (schedules, wakes, process
// teardown) is deferred into per-event buffers and committed at the run
// barrier in canonical batch order — the order the serial engine would have
// produced them in — so the two engines yield byte-identical runs.
// Untagged (GlobalLane) events are merge events: they always execute
// serially, in heap order, between runs.
type parallelEngine struct{ *view }

// NewParallelEngine returns an engine that dispatches same-instant events
// on distinct lanes concurrently. It is a drop-in replacement for
// NewEngine: for the same seed and workload the two produce identical
// event counts, schedules, and trace bytes. Lane events must follow the
// parallel dispatch contract (DESIGN.md §15): touch only lane-local model
// state, reach the engine only through their own lane's view, and leave
// shared planes (fabric, tracer, sanitizer, stats) to merge events.
func NewParallelEngine(opts ...Option) Engine {
	c := newCore(opts...)
	c.isParallel = true
	e := &parallelEngine{view: c.root}
	c.loop = (*parallelLoop)(c)
	return e
}

// NewEngineNamed builds an engine by name — "serial" or "parallel" — so
// CLIs and benchmarks can plumb an -engine flag straight through.
func NewEngineNamed(kind string, opts ...Option) (Engine, error) {
	switch kind {
	case "":
		// Unset means "the default engine", which the POPCORN_ENGINE
		// environment override may redirect.
		return NewEngine(opts...), nil
	case "serial":
		return newSerialEngine(opts...), nil
	case "parallel":
		return NewParallelEngine(opts...), nil
	}
	return nil, fmt.Errorf("sim: unknown engine %q (want serial or parallel)", kind)
}

// effect is one deferred engine mutation produced by a lane event: a
// schedule entering the heap, a process wake, or a finished process's
// teardown. Exactly one field is set.
type effect struct {
	// ev is a deferred schedule; at/fn/lane are already set, seq and
	// tie-priority are assigned at commit.
	ev *event
	// wake is a process to wake at commit, re-running the full wake
	// (idempotence included) in canonical order.
	wake *Proc
	// waker attributes the wake for the process observer, mirroring the
	// serial engine's e.current at the equivalent call.
	waker *Proc
	// finish is a process whose body returned during the lane phase; its
	// proc-table removal, observer notification and its carrier's return to
	// the idle list happen at commit.
	finish *Proc
	// fail is a process failure (panic) recorded during the lane phase;
	// committing it in canonical order makes the "first failure wins" rule
	// deterministic even when several lanes fail in one batch.
	fail error
}

// laneSlot is one lane's share of a parallel run: the run indices of its
// events, executed in canonical order on one worker.
type laneSlot struct {
	r    *parRun
	lane int
	// idxs are this lane's event positions within the run.
	idxs []int
	// cur is the run index currently executing; deferred effects append to
	// its buffer.
	cur int
	// active is true exactly while this slot's worker (or a proc goroutine
	// it dispatched) is executing; lane views consult it to route engine
	// calls into the slot.
	active bool
	// current is the slot-local running process (the parallel analogue of
	// the serial engine's single current pointer).
	current *Proc
}

// parRun is one parallel batch: a maximal same-instant run of lane events,
// its per-event effect buffers, and its lane grouping.
type parRun struct {
	events []*event
	// effects[i] holds event i's deferred engine effects, in the order the
	// event produced them. Only the worker executing event i writes it.
	effects [][]effect
	// panics[i] records a panic out of event i's callback; the lowest
	// index re-panics after the barrier, like the serial engine's first
	// panic would have.
	panics []any
	// slots groups the run by lane, in first-appearance (canonical) order.
	slots []*laneSlot
	// byLane indexes slots by lane ID for the laneSlotActive lookup.
	byLane []*laneSlot
}

// deferSchedule buffers a schedule produced by the currently-executing lane
// event. The event object is created now (so the caller's handle works) but
// enters the heap only at commit.
func (s *laneSlot) deferSchedule(at Time, fn func(), lane int) EventHandle {
	//popcornvet:allow hotalloc lane-phase schedules cannot touch the shared free list; the commit step recycles them
	ev := &event{at: at, fn: fn, lane: lane}
	//popcornvet:bounded effect buffer: bounded by the work one event performs, reset every batch
	//popcornvet:allow hotalloc lane-phase effect buffering trades per-event allocs for lane concurrency; the serial path is untouched and stays pinned at zero
	s.r.effects[s.cur] = append(s.r.effects[s.cur], effect{ev: ev})
	return EventHandle{ev: ev, gen: ev.gen}
}

// deferWake buffers a wake of p, attributed to waker, to run at commit.
func (s *laneSlot) deferWake(p, waker *Proc) {
	//popcornvet:bounded effect buffer: bounded by the work one event performs, reset every batch
	//popcornvet:allow hotalloc lane-phase effect buffering trades per-event allocs for lane concurrency; the serial path is untouched and stays pinned at zero
	s.r.effects[s.cur] = append(s.r.effects[s.cur], effect{wake: p, waker: waker})
}

// deferFinish buffers the teardown of a process that returned during the
// lane phase.
func (s *laneSlot) deferFinish(p *Proc) {
	//popcornvet:bounded effect buffer: bounded by the work one event performs, reset every batch
	//popcornvet:allow hotalloc lane-phase effect buffering trades per-event allocs for lane concurrency; the serial path is untouched and stays pinned at zero
	s.r.effects[s.cur] = append(s.r.effects[s.cur], effect{finish: p})
}

// deferFail buffers a lane-phase process failure for canonical-order
// recording at commit.
func (s *laneSlot) deferFail(err error) {
	//popcornvet:bounded effect buffer: bounded by the work one event performs, reset every batch
	//popcornvet:allow hotalloc lane-phase effect buffering trades per-event allocs for lane concurrency; the serial path is untouched and stays pinned at zero
	s.r.effects[s.cur] = append(s.r.effects[s.cur], effect{fail: err})
}

// laneSlotActive returns lane's slot if a parallel batch is executing and
// that lane is currently running, else nil. It is the routing predicate
// every lane-view engine call starts with.
//
//popcornvet:hotpath
func (c *core) laneSlotActive(lane int) *laneSlot {
	r := c.par
	if r == nil || lane < 0 || lane >= len(r.byLane) {
		return nil
	}
	s := r.byLane[lane]
	if s == nil || !s.active {
		return nil
	}
	return s
}

// parallelLoop is the parallel engine's runner.
type parallelLoop core

// run is the parallel dispatch loop: merge events and invariant-due steps
// take the exact serial path; maximal same-instant lane runs gather, execute
// concurrently, and commit at a barrier.
func (l *parallelLoop) drive(until Time, bounded bool) error {
	c := (*core)(l)
	if c.closed {
		return errors.New("sim: engine is closed")
	}
	for c.heap.len() > 0 && (!bounded || c.heap.peek().at <= until) {
		if c.limit > 0 && c.processed >= c.limit {
			return ErrEventLimit
		}
		ev := c.heap.peek()
		// Canceled tops, merge events, tie-shuffle runs, and events that
		// would trigger the periodic invariant sweep all take the serial
		// step: the sweep must observe the same mid-timestamp states it
		// would under the serial engine, merge events own the shared
		// planes, and under tie-shuffle a same-instant schedule can draw a
		// priority that sorts it ahead of events a batch would already
		// have gathered — shuffle explores fine-grained interleavings, so
		// it dispatches one event at a time on both engines.
		if ev.canceled || ev.lane == GlobalLane || c.shuffle ||
			(c.invInterval > 0 && len(c.invariants) > 0 && ev.at >= c.nextInvCheck) {
			if err, stop := c.stepSerial(); stop {
				return err
			}
			continue
		}
		if ev.at < c.now {
			return fmt.Errorf("sim: event scheduled in the past (%v < %v)", ev.at, c.now)
		}
		r := l.gather(ev.at)
		if len(r.events) == 0 {
			continue
		}
		c.now = ev.at
		l.exec(r)
		if err := l.commit(r); err != nil {
			return err
		}
	}
	return c.quiesce()
}

// gather pops the maximal run of same-instant lane events off the heap, in
// canonical (prio, seq) order, honouring the event limit exactly as the
// serial engine's per-event check would.
func (l *parallelLoop) gather(t Time) *parRun {
	c := (*core)(l)
	r := &parRun{}
	for c.heap.len() > 0 {
		if c.limit > 0 && c.processed+uint64(len(r.events)) >= c.limit {
			break
		}
		top := c.heap.peek()
		if top.at != t || (top.lane == GlobalLane && !top.canceled) {
			break
		}
		ev := c.heap.pop()
		if ev.canceled {
			c.recycle(ev)
			continue
		}
		r.events = append(r.events, ev)
	}
	r.effects = make([][]effect, len(r.events))
	r.panics = make([]any, len(r.events))
	r.byLane = make([]*laneSlot, len(c.lanes))
	for i, ev := range r.events {
		s := r.byLane[ev.lane]
		if s == nil {
			s = &laneSlot{r: r, lane: ev.lane}
			r.byLane[ev.lane] = s
			//popcornvet:bounded one slot per distinct lane in the batch, capped by the engine's lane count
			r.slots = append(r.slots, s)
		}
		//popcornvet:bounded run indices: at most one entry per gathered event, capped by the event limit
		s.idxs = append(s.idxs, i)
	}
	return r
}

// exec runs the gathered batch: each lane's events execute in canonical
// order on one worker, distinct lanes concurrently (capped by WithWorkers).
// The first worker group runs on the calling goroutine, so a single-lane
// batch adds no goroutine switches.
func (l *parallelLoop) exec(r *parRun) {
	c := (*core)(l)
	c.par = r
	n := len(r.slots)
	w := c.workers
	if w <= 0 || w > n {
		w = n
	}
	if w <= 1 {
		l.execSlots(r, r.slots)
	} else {
		//popcornvet:allow simtime the barrier joins worker goroutines between two engine steps; no simulated process ever blocks on it
		var wg sync.WaitGroup
		for g := 1; g < w; g++ {
			var group []*laneSlot
			for i := g; i < n; i += w {
				group = append(group, r.slots[i])
			}
			wg.Add(1)
			//popcornvet:allow simtime worker goroutines execute lane groups between two engine barriers; effects commit deterministically
			go func(group []*laneSlot) {
				defer wg.Done()
				l.execSlots(r, group)
			}(group)
		}
		var first []*laneSlot
		for i := 0; i < n; i += w {
			first = append(first, r.slots[i])
		}
		l.execSlots(r, first)
		wg.Wait()
	}
	c.par = nil
}

// execSlots executes a worker's share of the batch, slot by slot, catching
// per-event panics for canonical re-raise at commit.
func (l *parallelLoop) execSlots(r *parRun, slots []*laneSlot) {
	for _, s := range slots {
		s.active = true
		for _, idx := range s.idxs {
			s.cur = idx
			runEvent(r, idx)
		}
		s.active = false
	}
}

// runEvent invokes one event callback, recording a panic instead of
// unwinding the worker.
func runEvent(r *parRun, idx int) {
	defer func() {
		if p := recover(); p != nil {
			r.panics[idx] = p
		}
	}()
	r.events[idx].fn()
}

// commit applies the batch's deferred effects in canonical order: event by
// event, each event's effects in production order — exactly the
// interleaving the serial engine produced them in. It then accounts the
// processed events and surfaces the first panic or failure.
func (l *parallelLoop) commit(r *parRun) error {
	c := (*core)(l)
	panIdx := -1
	for i := range r.panics {
		if r.panics[i] != nil {
			panIdx = i
			break
		}
	}
	for i, ev := range r.events {
		if panIdx >= 0 && i > panIdx {
			break
		}
		for _, ef := range r.effects[i] {
			switch {
			case ef.ev != nil:
				c.pushDeferred(ef.ev)
			case ef.wake != nil:
				prev := c.current
				c.current = ef.waker
				ef.wake.wake()
				c.current = prev
			case ef.finish != nil:
				c.finish(ef.finish)
			case ef.fail != nil:
				c.fail(ef.fail)
			}
		}
		c.processed++
		c.recycle(ev)
		if c.failure != nil {
			// The serial engine stops at the failing event; match its
			// processed count and leave the rest of the batch uncommitted.
			break
		}
	}
	if panIdx >= 0 {
		// The serial engine would have let this panic unwind Run at the
		// same event; later lane events have already run here, but a
		// panicking run is torn down, not replayed.
		panic(r.panics[panIdx])
	}
	if c.failure != nil {
		return c.failure
	}
	return nil
}
