// Package smp implements the SMP-Linux-like baseline: one symmetric kernel
// over every core, built on shared data structures protected by
// machine-global locks. It provides exactly the osi interface the
// replicated kernel provides, so identical workloads run on both. The
// contention points modelled are the ones the paper blames for SMP's poor
// many-core scaling:
//
//   - a global task-list lock and PID allocator taken on every clone/exit,
//     whose lock words bounce between sockets;
//   - a per-process mmap semaphore (reader/writer) taken on every fault
//     (shared) and every mmap/munmap/mprotect (exclusive);
//   - per-NUMA-node zone locks on the page allocator shared by all cores
//     of the node;
//   - a machine-global futex hash table whose bucket locks bounce between
//     sockets.
//
// Uncontended, these cost almost nothing — SMP matches or beats the
// replicated kernel at low core counts because it pays no message-passing
// overhead. The crossover as core counts grow is the paper's headline.
package smp

import (
	"fmt"
	"time"

	"repro/internal/futex"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// futexBuckets is the size of the global futex hash table (Linux sizes it
// by core count; 256 matches the era's defaults for this machine class).
const futexBuckets = 256

// Config configures an SMP boot.
type Config struct {
	Topology hw.Topology
	Cost     *hw.CostModel
	Seed     int64
	// FramesPerNode sizes each NUMA node's memory.
	FramesPerNode int
}

// OS is the booted SMP system.
type OS struct {
	e       sim.Engine
	machine *hw.Machine
	metrics *stats.Registry
	sched   *sched.Scheduler
	// Global shared kernel state.
	// tasklist is Linux's tasklist_lock, an rwlock; clone, exit and signal
	// delivery take it for writing, the only way this model takes it, and
	// tasklistWait sums the virtual time they queue for it.
	tasklist     *sim.RWMutex
	tasklistWait time.Duration
	pidLock      *sim.Mutex
	zones        []*kernel.LockedFrames
	// futexes are the hash table's bucket locks; a futex address hashes to
	// one (futexLock). A queue is keyed by process and word, as Linux keys a
	// private futex by its mm, and lives under its word's bucket lock.
	futexes     [futexBuckets]sim.Mutex
	futexQueues map[futexKey]*futex.Queue[*Thread]
	nextPID     int64
}

// futexKey names one process's futex word.
type futexKey struct {
	mm   *mmStruct
	addr mem.Addr
}

var _ osi.OS = (*OS)(nil)

// futexBucketLabel names every futex bucket lock in deadlock reports.
var futexBucketLabel = "smp.futex.bucket"

// Boot brings up the SMP system.
func Boot(cfg Config) (_ *OS, err error) {
	topo := cfg.Topology
	if topo.Cores == 0 {
		topo = hw.Topology{Cores: 64, NUMANodes: 2}
	}
	cost := hw.DefaultCostModel()
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	machine, err := hw.NewMachine(topo, cost)
	if err != nil {
		return nil, err
	}
	framesPerNode := cfg.FramesPerNode
	if framesPerNode <= 0 {
		framesPerNode = 1 << 16
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	e := sim.NewEngine(sim.WithSeed(seed))
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	metrics := stats.NewRegistry()
	allCores := make([]int, topo.Cores)
	for i := range allCores {
		allCores[i] = i
	}
	sch, err := sched.New(e, machine, allCores, metrics)
	if err != nil {
		return nil, err
	}
	os := &OS{
		e:           e,
		machine:     machine,
		metrics:     metrics,
		sched:       sch,
		tasklist:    sim.NewRWMutex(e),
		pidLock:     sim.NewMutex(e),
		futexQueues: make(map[futexKey]*futex.Queue[*Thread]),
	}
	for n := 0; n < topo.NUMANodes; n++ {
		alloc, err := mem.NewFrameAllocator(n, int64(n)<<24, framesPerNode)
		if err != nil {
			return nil, err
		}
		os.zones = append(os.zones, kernel.NewLockedFrames(e, machine, alloc, false, topo.CoresPerNode()))
	}
	for i := range os.futexes {
		os.futexes[i].SetLabel(&futexBucketLabel)
	}
	return os, nil
}

// futexLock returns the hash-bucket lock addr's futex queue sits under.
func (o *OS) futexLock(addr mem.Addr) *sim.Mutex {
	return &o.futexes[futexBucket(addr)]
}

// futexQueue returns mm's wait queue for the word at addr. Like the
// replicated kernel's home buckets, a queue outlives its waiters.
func (o *OS) futexQueue(mm *mmStruct, addr mem.Addr) *futex.Queue[*Thread] {
	k := futexKey{mm: mm, addr: addr}
	q := o.futexQueues[k]
	if q == nil {
		q = new(futex.Queue[*Thread])
		o.futexQueues[k] = q
	}
	return q
}

// resume releases the waiters a wake or requeue detached.
func resume(ws []*Thread) {
	for _, w := range ws {
		w.woken = true
		w.p.Resume()
	}
}

// futexBucket returns the index of addr's hash bucket.
func futexBucket(addr mem.Addr) int {
	return int(addr/hw.CacheLineSize) % futexBuckets
}

// Name implements osi.OS.
func (o *OS) Name() string { return "smp" }

// Engine implements osi.OS.
func (o *OS) Engine() sim.Engine { return o.e }

// Machine implements osi.OS.
func (o *OS) Machine() *hw.Machine { return o.machine }

// Kernels implements osi.OS: SMP is a single kernel.
func (o *OS) Kernels() int { return 1 }

// Metrics implements osi.OS.
func (o *OS) Metrics() *stats.Registry { return o.metrics }

// Conserved implements osi.OS: every zone has its frames back.
func (o *OS) Conserved() error {
	return kernel.FramesBack("smp", "zone", len(o.zones), func(i int) *kernel.LockedFrames { return o.zones[i] })
}

// Close shuts the simulation down.
func (o *OS) Close() { o.e.Close() }

// crossNode reports whether global kernel locks bounce between sockets on
// this machine (true whenever there is more than one NUMA node).
func (o *OS) crossNode() bool { return o.machine.Topology.NUMANodes > 1 }

// capSharers bounds a lock's cache-line bounce term by the machine's core
// count: queued software waiters beyond that are parked, not spinning.
func (o *OS) capSharers(waiters int) int {
	if max := o.machine.Topology.Cores - 1; waiters > max {
		return max
	}
	return waiters
}

// allocPID takes the global PID lock and returns a fresh PID.
func (o *OS) allocPID(p *sim.Proc) int64 {
	o.pidLock.Lock(p)
	p.Sleep(o.machine.LineBounce(o.capSharers(o.pidLock.Waiters()), o.crossNode()))
	o.nextPID++
	pid := o.nextPID
	o.pidLock.Unlock(p)
	return pid
}

// mmStruct is a process's memory descriptor: one layout and page table
// shared by all its threads, guarded by mmap_sem. The layout is the
// replicated kernel's own (vm.Layout), so both OSes place, unmap and protect
// alike and differ only in how they coordinate it.
type mmStruct struct {
	os      *OS
	mmapSem *sim.RWMutex
	layout  vm.Layout
	pt      mem.PageTable
	// activeThreads approximates mm_cpumask: TLB shootdowns hit only as
	// many cores as the process has live threads.
	activeThreads int
}

// shootdownRemote returns how many remote cores a layout change must IPI
// and whether they span NUMA nodes.
func (mm *mmStruct) shootdownRemote() (int, bool) {
	cores := mm.os.machine.Topology.Cores
	active := mm.activeThreads
	if active > cores {
		active = cores
	}
	remote := active - 1
	if remote < 0 {
		remote = 0
	}
	cross := mm.os.crossNode() && active > mm.os.machine.Topology.CoresPerNode()
	return remote, cross
}

// Process is an SMP process.
type Process struct {
	os *OS
	mm *mmStruct
	wg *sim.WaitGroup
	// signals is the process's per-thread pending-signal table.
	signals map[int64][]int
	// sigWaiters holds threads blocked in SigWait.
	sigWaiters map[int64]*sim.Proc
}

var _ osi.Process = (*Process)(nil)

// StartProcess implements osi.OS.
func (o *OS) StartProcess(p *sim.Proc) (osi.Process, error) {
	p.Sleep(o.machine.Cost.SyscallTrap)
	o.allocPID(p)
	o.lockTasklist(p)
	p.Sleep(o.machine.LineBounce(o.capSharers(o.tasklist.Waiters()), o.crossNode()) + o.machine.Cost.ThreadSetup)
	o.tasklist.Unlock(p)
	return &Process{
		os: o,
		mm: &mmStruct{
			os:      o,
			mmapSem: sim.NewRWMutex(o.e),
			layout:  vm.NewLayout(),
		},
		wg:         sim.NewWaitGroup(),
		signals:    make(map[int64][]int),
		sigWaiters: make(map[int64]*sim.Proc),
	}, nil
}

// lockTasklist takes the tasklist lock for writing and books the wait.
func (o *OS) lockTasklist(p *sim.Proc) {
	since := p.Now()
	o.tasklist.Lock(p)
	o.tasklistWait += p.Now().Sub(since)
}

// Spawn implements osi.Process: clone() under the global locks.
func (pr *Process) Spawn(p *sim.Proc, kernelHint int, fn osi.ThreadFunc) error {
	if kernelHint > 0 {
		return fmt.Errorf("smp: kernel %d does not exist (single kernel); use 0 or AnyKernel", kernelHint)
	}
	o := pr.os
	p.Sleep(o.machine.Cost.SyscallTrap)
	tid := o.allocPID(p)
	o.lockTasklist(p)
	p.Sleep(o.machine.LineBounce(o.capSharers(o.tasklist.Waiters()), o.crossNode()) + o.machine.Cost.ThreadSetup)
	o.tasklist.Unlock(p)
	o.metrics.Counter("smp.clone").Inc()
	pr.mm.activeThreads++
	pr.wg.Add(1)
	o.e.Spawn(fmt.Sprintf("smp-thread-%d", tid), func(tp *sim.Proc) {
		defer pr.wg.Done()
		th := &Thread{pr: pr, p: tp, tid: tid}
		th.core = o.sched.Acquire(tp)
		fn(th)
		th.exit()
	})
	return nil
}

// Wait implements osi.Process.
func (pr *Process) Wait(p *sim.Proc) { pr.wg.Wait(p) }

// Close implements osi.Process. SMP teardown frees the process's frames.
func (pr *Process) Close(p *sim.Proc) error {
	for _, e := range pr.mm.pt.Drain {
		if e.Frame != mem.NoFrame {
			pr.os.zones[e.HomeNode].FreeFrame(p, e.Frame)
		}
	}
	return nil
}
