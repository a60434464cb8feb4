// Package sched implements the per-kernel CPU scheduler of the replicated
// kernel: each kernel instance owns a fixed set of cores and schedules its
// local tasks on them with no cross-kernel shared state — the design point
// the paper credits for removing run-queue and task-list contention.
//
// Scheduling is modelled at the occupancy level: a task must hold a core to
// execute, queued tasks wait FIFO, long executions are sliced at the
// scheduling quantum so runnable tasks interleave, and every hand-off
// charges the context-switch cost.
package sched

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
)

// quantum is the scheduling timeslice: the longest a task runs while others
// wait before it is preempted.
const quantum = 100 * time.Microsecond

// Scheduler multiplexes one kernel's tasks onto its cores.
type Scheduler struct {
	e       sim.Engine
	machine *hw.Machine
	coreIDs []int
	metrics *stats.Registry

	free []int // free global core IDs, LIFO for cache warmth
	// runq holds the tasks waiting for a core, oldest first; a pop shifts
	// the rest down (slices.Delete), so the slice keeps its backing array.
	runq    []*sim.Proc
	running map[int64]int // proc ID -> global core ID
	// hot caches the per-dispatch metric handles, each filled on first use
	// (stats.Registry.CounterIn) so a run registers the names it always did.
	hot struct {
		runqMax, switches, preemptions *stats.Counter
		wait                           *stats.Histogram
	}
}

// New creates a scheduler over the given global core IDs.
func New(e sim.Engine, machine *hw.Machine, coreIDs []int, metrics *stats.Registry) (*Scheduler, error) {
	if len(coreIDs) == 0 {
		return nil, fmt.Errorf("sched: scheduler needs at least one core")
	}
	if metrics == nil {
		metrics = stats.NewRegistry()
	}
	s := &Scheduler{
		e:       e,
		machine: machine,
		coreIDs: append([]int(nil), coreIDs...),
		metrics: metrics,
		free:    make([]int, 0, len(coreIDs)),
		running: make(map[int64]int),
	}
	s.Reset()
	return s, nil
}

// Reset returns the scheduler to its boot state. A kernel reboot calls this
// after the crash killed every hosted process: killed tasks never Release
// their cores, so the occupancy map and run queue describe executions that
// no longer exist and are discarded wholesale.
func (s *Scheduler) Reset() {
	clear(s.running)
	clear(s.runq)
	s.runq = s.runq[:0]
	s.free = s.free[:0]
	// The free list starts in reverse so cores are handed out in ID order.
	for i := len(s.coreIDs) - 1; i >= 0; i-- {
		s.free = append(s.free, s.coreIDs[i])
	}
}

// Cores returns the number of cores this scheduler drives.
func (s *Scheduler) Cores() int { return len(s.coreIDs) }

// CoreIDs returns a copy of the global core IDs.
func (s *Scheduler) CoreIDs() []int { return append([]int(nil), s.coreIDs...) }

// Acquire blocks p until a core is available and returns its global ID.
// Waking from the run queue charges a context switch.
func (s *Scheduler) Acquire(p *sim.Proc) int {
	if n := len(s.free); n > 0 {
		core := s.free[n-1]
		s.free = s.free[:n-1]
		s.running[p.ID()] = core
		return core
	}
	since := s.e.Now()
	s.runq = append(s.runq, p)
	if c, d := s.metrics.CounterIn(&s.hot.runqMax, "sched.runq.max"), uint64(len(s.runq)); d > c.Value() {
		c.Add(d - c.Value())
	}
	p.Suspend()
	core, ok := s.running[p.ID()]
	if !ok {
		panic("sched: waiter woken without a core")
	}
	s.metrics.HistogramIn(&s.hot.wait, "sched.wait").Observe(s.e.Now().Sub(since))
	p.Sleep(s.machine.Cost.ContextSwitch)
	s.metrics.CounterIn(&s.hot.switches, "sched.switches").Inc()
	return core
}

// Release gives p's core back, handing it to the oldest queued task: the
// core is the waiter's (in running) before it wakes.
func (s *Scheduler) Release(p *sim.Proc) {
	core, ok := s.running[p.ID()]
	if !ok {
		panic("sched: Release by a task not holding a core")
	}
	delete(s.running, p.ID())
	if len(s.runq) > 0 {
		w := s.runq[0]
		s.runq = slices.Delete(s.runq, 0, 1)
		s.running[w.ID()] = core
		w.Resume()
		return
	}
	s.free = append(s.free, core)
}

// Run executes d of CPU work on p's held core, yielding at every quantum
// boundary while other tasks are queued. It returns the core p holds when
// the work completes (preemption may move the task between cores).
func (s *Scheduler) Run(p *sim.Proc, d time.Duration) int {
	core, ok := s.running[p.ID()]
	if !ok {
		panic("sched: Run by a task not holding a core")
	}
	for d > 0 {
		slice := d
		if slice > quantum {
			slice = quantum
		}
		p.Sleep(slice)
		d -= slice
		if d > 0 && len(s.runq) > 0 {
			// Preempt: cycle through the run queue.
			s.Release(p)
			core = s.Acquire(p)
			s.metrics.CounterIn(&s.hot.preemptions, "sched.preemptions").Inc()
		}
	}
	return core
}
