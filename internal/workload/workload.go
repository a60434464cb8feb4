// Package workload implements the benchmark applications the evaluation
// runs: microbenchmarks that stress one kernel path each (thread creation,
// mmap/munmap, page faults, futexes) and NPB-class compute kernels. All are
// written against the osi interface, so the identical workload runs on the
// replicated kernel and on the SMP baseline; explicitly distributed
// variants for the Barrelfish-like multikernel live in mk.go.
package workload

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/futex"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
)

// Result is the outcome of one workload run, in virtual time.
type Result struct {
	OS      string
	Name    string
	Threads int
	// Ops counts the workload's unit operations.
	Ops uint64
	// Elapsed is the virtual wall-clock of the measured phase.
	Elapsed time.Duration
}

// Throughput returns operations per virtual second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// PerOp returns the mean virtual latency per operation.
func (r Result) PerOp() time.Duration {
	if r.Ops == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.Ops)
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s threads=%d ops=%d elapsed=%v (%.0f ops/s)",
		r.OS, r.Name, r.Threads, r.Ops, r.Elapsed, r.Throughput())
}

// closeAll waits for the threads of every process in procs, then closes
// the processes in order.
func closeAll(p *sim.Proc, procs []osi.Process) error {
	for _, pr := range procs {
		pr.Wait(p)
	}
	for _, pr := range procs {
		if err := pr.Close(p); err != nil {
			return err
		}
	}
	return nil
}

// driven is what the driver needs of an OS: both osi.OS flavours and the
// multikernel have it.
type driven interface {
	Engine() sim.Engine
	Name() string
	Conserved() error
}

// Drive is the one way a run is driven: body runs in a proc named name on
// o's engine, and the engine runs to quiescence. It returns the engine's
// error, else body's, else o.Conserved(): a run that finished is judged on
// what it gave back.
func Drive(o driven, name string, body func(p *sim.Proc) error) error {
	var bodyErr error
	o.Engine().Spawn(name, func(p *sim.Proc) { bodyErr = body(p) })
	if err := o.Engine().Run(); err != nil {
		return err
	}
	if bodyErr != nil {
		return bodyErr
	}
	return o.Conserved()
}

// measure drives a workload's body and returns its measurement: the
// operation count body returns, over the virtual time body ran unless body
// sets res.Elapsed to a narrower interval (leaving out setup and
// verification).
func measure(o driven, name string, threads int, body func(p *sim.Proc, res *Result) (uint64, error)) (Result, error) {
	res := Result{OS: o.Name(), Name: name, Threads: threads}
	err := Drive(o, "workload-"+name, func(p *sim.Proc) error {
		start := p.Now()
		ops, err := body(p, &res)
		if res.Elapsed == 0 {
			res.Elapsed = p.Now().Sub(start)
		}
		res.Ops = ops
		return err
	})
	if err != nil {
		return Result{}, fmt.Errorf("workload %s: %w", name, err)
	}
	return res, nil
}

// barrier is a sense-reversing barrier built on the OS's own primitives
// (FetchAdd + futex), so barrier cost reflects each OS's synchronisation
// path — as it would for a pthreads barrier on the real systems.
type barrier struct {
	n     int64
	count mem.Addr
	sense mem.Addr
}

// newBarrier initialises a barrier for n participants using two words of
// process memory. The caller supplies mapped, writable addresses.
func newBarrier(n int, count, sense mem.Addr) *barrier {
	return &barrier{n: int64(n), count: count, sense: sense}
}

// Wait blocks t until all n participants arrive.
func (b *barrier) Wait(t osi.Thread) error {
	phase, err := t.Load(b.sense)
	if err != nil {
		return err
	}
	arrived, err := t.FetchAdd(b.count, 1)
	if err != nil {
		return err
	}
	if arrived+1 == b.n {
		// Last arrival: reset and release.
		if err := t.Store(b.count, 0); err != nil {
			return err
		}
		if err := t.Store(b.sense, phase+1); err != nil {
			return err
		}
		_, err := t.FutexWake(b.sense, int(b.n))
		return err
	}
	for {
		cur, err := t.Load(b.sense)
		if err != nil {
			return err
		}
		if cur != phase {
			return nil
		}
		if err := t.FutexWait(b.sense, phase); err != nil && !isWouldBlock(err) {
			return err
		}
	}
}

func isWouldBlock(err error) bool {
	return errors.Is(err, futex.ErrWouldBlock)
}

// FutexMutex is a two-state futex mutex (the glibc low-level lock),
// exercising CAS for the fast path and futex wait/wake under contention.
type FutexMutex struct {
	word mem.Addr
}

// NewFutexMutex wraps a zeroed word of process memory.
func NewFutexMutex(word mem.Addr) *FutexMutex { return &FutexMutex{word: word} }

// Lock acquires the mutex.
func (m *FutexMutex) Lock(t osi.Thread) error {
	for {
		swapped, err := t.CompareAndSwap(m.word, 0, 1)
		if err != nil {
			return err
		}
		if swapped {
			return nil
		}
		if err := t.FutexWait(m.word, 1); err != nil && !isWouldBlock(err) {
			return err
		}
	}
}

// Unlock releases the mutex and wakes one waiter.
func (m *FutexMutex) Unlock(t osi.Thread) error {
	if err := t.Store(m.word, 0); err != nil {
		return err
	}
	_, err := t.FutexWake(m.word, 1)
	return err
}

// FutexCond is a condition variable over a FutexMutex, built the glibc way:
// a sequence word plus FUTEX_CMP_REQUEUE on broadcast so sleeping waiters
// move onto the mutex queue instead of stampeding it.
type FutexCond struct {
	seq mem.Addr
	m   *FutexMutex
}

// NewFutexCond wraps a zeroed word of process memory and the associated
// mutex.
func NewFutexCond(seq mem.Addr, m *FutexMutex) *FutexCond {
	return &FutexCond{seq: seq, m: m}
}

// Wait atomically releases the mutex and sleeps until Signal/Broadcast,
// then reacquires the mutex. The caller must hold the mutex and must
// re-check its predicate, as with any condition variable.
func (c *FutexCond) Wait(t osi.Thread) error {
	seq, err := t.Load(c.seq)
	if err != nil {
		return err
	}
	if err := c.m.Unlock(t); err != nil {
		return err
	}
	if err := t.FutexWait(c.seq, seq); err != nil && !isWouldBlock(err) {
		return err
	}
	return c.m.Lock(t)
}

// Signal wakes one waiter.
func (c *FutexCond) Signal(t osi.Thread) error {
	if _, err := t.FetchAdd(c.seq, 1); err != nil {
		return err
	}
	_, err := t.FutexWake(c.seq, 1)
	return err
}
