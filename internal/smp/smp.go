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
	tasklist *sim.Mutex
	pidLock  *sim.Mutex
	zones    []*kernel.LockedFrames
	futexes  [futexBuckets]*futexBucket
	nextPID  int64
	rrNode   int
}

type futexBucket struct {
	mu      *sim.Mutex
	waiters map[mem.Addr][]*smpWaiter // keyed by (process-unique) address
}

type smpWaiter struct {
	proc  *sim.Proc
	mm    *mmStruct
	woken bool
}

var _ osi.OS = (*OS)(nil)

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
		e:        e,
		machine:  machine,
		metrics:  metrics,
		sched:    sch,
		tasklist: sim.NewMutex(e),
		pidLock:  sim.NewMutex(e),
	}
	for n := 0; n < topo.NUMANodes; n++ {
		alloc, err := mem.NewFrameAllocator(n, mem.FrameID(n)<<24, framesPerNode)
		if err != nil {
			return nil, err
		}
		os.zones = append(os.zones, kernel.NewLockedFrames(e, machine, alloc, false, topo.CoresPerNode()))
	}
	for i := range os.futexes {
		os.futexes[i] = &futexBucket{mu: sim.NewMutex(e).SetLabel("smp.futex.bucket"), waiters: make(map[mem.Addr][]*smpWaiter)}
	}
	return os, nil
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
	pt      *mem.PageTable
	values  map[mem.VPN]int64
	// lastWriter tracks the core that last wrote each page, to charge the
	// hardware cache-line transfer that cross-core sharing costs.
	lastWriter map[mem.VPN]int
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
	os   *OS
	pid  int64
	mm   *mmStruct
	wg   *sim.WaitGroup
	node int // preferred NUMA node for this process's allocations
	// signals is the process's per-thread pending-signal table.
	signals map[int64][]int
	// sigWaiters holds threads blocked in SigWait.
	sigWaiters map[int64]*sim.Proc
}

var _ osi.Process = (*Process)(nil)

// StartProcess implements osi.OS.
func (o *OS) StartProcess(p *sim.Proc) (osi.Process, error) {
	p.Sleep(o.machine.Cost.SyscallTrap)
	pid := o.allocPID(p)
	o.tasklist.Lock(p)
	p.Sleep(o.machine.LineBounce(o.capSharers(o.tasklist.Waiters()), o.crossNode()) + o.machine.Cost.ThreadSetup)
	o.tasklist.Unlock(p)
	node := o.rrNode % o.machine.Topology.NUMANodes
	o.rrNode++
	return &Process{
		os:  o,
		pid: pid,
		mm: &mmStruct{
			os:         o,
			mmapSem:    sim.NewRWMutex(o.e),
			layout:     vm.NewLayout(),
			pt:         mem.NewPageTable(),
			values:     make(map[mem.VPN]int64),
			lastWriter: make(map[mem.VPN]int),
		},
		wg:         sim.NewWaitGroup(),
		node:       node,
		signals:    make(map[int64][]int),
		sigWaiters: make(map[int64]*sim.Proc),
	}, nil
}

// Spawn implements osi.Process: clone() under the global locks.
func (pr *Process) Spawn(p *sim.Proc, kernelHint int, fn osi.ThreadFunc) error {
	if kernelHint > 0 {
		return fmt.Errorf("smp: kernel %d does not exist (single kernel); use 0 or AnyKernel", kernelHint)
	}
	o := pr.os
	p.Sleep(o.machine.Cost.SyscallTrap)
	tid := o.allocPID(p)
	o.tasklist.Lock(p)
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
	for _, pte := range pr.mm.pt.Drain() {
		if pte.Frame != mem.NoFrame {
			pr.os.zones[pte.HomeNode].FreeFrame(p, pte.Frame)
		}
	}
	return nil
}
