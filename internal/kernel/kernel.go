// Package kernel assembles one replicated-kernel instance from its
// subsystems — scheduler, memory allocator, VM service, thread-group
// service and futex service — and boots clusters of them over the message
// fabric. Each kernel owns a disjoint partition of the machine's cores and
// physical frames and shares no data structure with its peers.
package kernel

import (
	"fmt"

	"repro/internal/futex"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/threadgroup"
	"repro/internal/vm"
)

// Kernel is one kernel instance of the replicated-kernel OS.
type Kernel struct {
	Node    msg.NodeID
	Machine *hw.Machine
	Cores   []int
	Sched   *sched.Scheduler
	Frames  *LockedFrames
	VM      *vm.Service
	TG      *threadgroup.Service
	Futex   *futex.Service
	Metrics *stats.Registry
}

// LockedFrames is a kernel's physical allocator behind its local zone lock,
// charging the lock-word cache-line bounce that contended allocation costs.
// In the replicated design only this kernel's cores (all on one NUMA node
// partition) contend here — the scalability argument in miniature.
type LockedFrames struct {
	e         sim.Engine
	machine   *hw.Machine
	alloc     *mem.FrameAllocator
	mu        *sim.Mutex
	crossNode bool
	// maxSharers caps the cache-line bounce term: a lock word cannot
	// ping-pong between more caches than there are contending cores.
	maxSharers int
}

// NewLockedFrames wraps an allocator with a charged zone lock. crossNode
// states whether the lock's contenders span NUMA nodes (true for the SMP
// baseline's shared zone, false for a per-kernel zone); maxSharers is the
// number of cores that can actually contend (the partition's core count).
func NewLockedFrames(e sim.Engine, machine *hw.Machine, alloc *mem.FrameAllocator, crossNode bool, maxSharers int) *LockedFrames {
	if maxSharers < 1 {
		maxSharers = 1
	}
	return &LockedFrames{e: e, machine: machine, alloc: alloc, mu: sim.NewMutex(e).SetLabel("kernel.frames"), crossNode: crossNode, maxSharers: maxSharers}
}

// Reset returns the frame zone to its boot state for a kernel reboot: the
// allocator forgets every allocation and the zone lock is replaced — a crash
// can kill a process while it holds the lock, and a killed holder never
// unlocks.
func (f *LockedFrames) Reset() {
	f.alloc.Reset()
	f.mu = sim.NewMutex(f.e).SetLabel("kernel.frames")
}

func (f *LockedFrames) bounce(p *sim.Proc) {
	sharers := f.mu.Waiters()
	if sharers > f.maxSharers-1 {
		sharers = f.maxSharers - 1
	}
	p.Sleep(f.machine.LineBounce(sharers, f.crossNode) + f.machine.Cost.FrameAlloc)
}

// AllocFrame implements vm.FrameSource.
func (f *LockedFrames) AllocFrame(p *sim.Proc) (mem.FrameID, int, error) {
	f.mu.Lock(p)
	f.bounce(p)
	fr, err := f.alloc.Alloc()
	f.mu.Unlock(p)
	if err != nil {
		return mem.NoFrame, 0, err
	}
	return fr, f.alloc.Node(), nil
}

// FreeFrame implements vm.FrameSource.
func (f *LockedFrames) FreeFrame(p *sim.Proc, fr mem.FrameID) {
	f.mu.Lock(p)
	f.bounce(p)
	err := f.alloc.Free(fr)
	f.mu.Unlock(p)
	if err != nil {
		panic(fmt.Sprintf("kernel: frame free: %v", err))
	}
}

// Allocator exposes the underlying allocator for accounting.
func (f *LockedFrames) Allocator() *mem.FrameAllocator { return f.alloc }

// LockStats returns the zone lock's contention counters.
func (f *LockedFrames) LockStats() sim.LockStats { return f.mu.Stats() }

// ClusterConfig describes a replicated-kernel boot.
type ClusterConfig struct {
	// Kernels is the number of kernel instances; the machine's cores are
	// split across them in contiguous blocks.
	Kernels int
	// FramesPerKernel sizes each kernel's physical memory partition.
	FramesPerKernel int
	// Msg tunes the inter-kernel transport.
	Msg msg.Config
	// TG tunes the thread-group service.
	TG threadgroup.Config
}

// DefaultClusterConfig returns a cluster sized like the paper's testbed
// partitioning: one kernel per NUMA node.
func DefaultClusterConfig(machine *hw.Machine) ClusterConfig {
	return ClusterConfig{
		Kernels:         machine.Topology.NUMANodes,
		FramesPerKernel: 1 << 16,
		Msg:             msg.DefaultConfig(),
		TG:              threadgroup.Config{DummyPool: 2},
	}
}

// Cluster is a booted set of kernels plus their shared fabric.
type Cluster struct {
	Kernels []*Kernel
	Fabric  *msg.Fabric
	Metrics *stats.Registry
}

// Boot brings up cfg.Kernels kernel instances on the machine.
func Boot(e sim.Engine, machine *hw.Machine, cfg ClusterConfig, metrics *stats.Registry) (*Cluster, error) {
	if cfg.Kernels <= 0 {
		return nil, fmt.Errorf("kernel: cluster needs at least one kernel, got %d", cfg.Kernels)
	}
	if machine.Topology.Cores%cfg.Kernels != 0 {
		return nil, fmt.Errorf("kernel: %d cores do not split evenly across %d kernels", machine.Topology.Cores, cfg.Kernels)
	}
	if cfg.FramesPerKernel <= 0 {
		return nil, fmt.Errorf("kernel: FramesPerKernel must be positive, got %d", cfg.FramesPerKernel)
	}
	if metrics == nil {
		metrics = stats.NewRegistry()
	}
	perKernel := machine.Topology.Cores / cfg.Kernels
	nodeCore := make([]int, cfg.Kernels)
	for k := range nodeCore {
		nodeCore[k] = k * perKernel
	}
	fabric, err := msg.NewFabric(e, machine, cfg.Kernels, nodeCore, cfg.Msg, metrics)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Fabric: fabric, Metrics: metrics}
	for k := 0; k < cfg.Kernels; k++ {
		cores := make([]int, perKernel)
		for i := range cores {
			cores[i] = k*perKernel + i
		}
		alloc, err := mem.NewFrameAllocator(machine.Topology.NodeOf(cores[0]), mem.FrameID(k)<<24, cfg.FramesPerKernel)
		if err != nil {
			return nil, err
		}
		sch, err := sched.New(e, machine, cores, metrics)
		if err != nil {
			return nil, err
		}
		frames := NewLockedFrames(e, machine, alloc, false, perKernel)
		vms := vm.NewService(e, machine, fabric, msg.NodeID(k), frames, perKernel, metrics)
		tgs := threadgroup.NewService(e, machine, fabric, msg.NodeID(k), vms, cfg.TG, metrics)
		fx := futex.NewService(e, fabric, msg.NodeID(k), cores[0], tgs, metrics)
		cl.Kernels = append(cl.Kernels, &Kernel{
			Node:    msg.NodeID(k),
			Machine: machine,
			Cores:   cores,
			Sched:   sch,
			Frames:  frames,
			VM:      vms,
			TG:      tgs,
			Futex:   fx,
			Metrics: metrics,
		})
	}
	return cl, nil
}
