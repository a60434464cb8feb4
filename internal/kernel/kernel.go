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
	Sched   *sched.Scheduler
	Frames  *LockedFrames
	VM      *vm.Service
	TG      *threadgroup.Service
	Futex   *futex.Service
}

// LockedFrames is a part's physical allocator behind its zone lock,
// charging the lock-word cache-line bounce that contended allocation costs.
// Only the part's cores, all on one NUMA node, contend here: in the
// replicated design a kernel's, in SMP a node's — the scalability argument
// in miniature.
type LockedFrames struct {
	e       sim.Engine
	machine *hw.Machine
	alloc   *mem.FrameAllocator
	mu      *sim.Mutex
	// cores is the number of cores that can contend for the lock, which
	// caps its lock word's bounce.
	cores int
	// stats counts the zone lock's contention, booked by lock and unlock:
	// the run report reads it, and a sim.Mutex keeps no counters. held
	// says whether the lock has an owner (or one it was handed to) and
	// acquiredAt when the owner got it.
	stats      sim.LockStats
	held       bool
	acquiredAt sim.Time
}

// framesLabel names every zone lock in deadlock reports.
var framesLabel = "kernel.frames"

// newLockedFrames wraps an allocator with a charged zone lock that cores
// cores can contend for.
func newLockedFrames(e sim.Engine, machine *hw.Machine, alloc *mem.FrameAllocator, cores int) *LockedFrames {
	return &LockedFrames{e: e, machine: machine, alloc: alloc, mu: sim.NewMutex(e).SetLabel(&framesLabel), cores: cores}
}

// Reset returns the frame zone to its boot state for a kernel reboot: the
// allocator forgets every allocation and the zone lock is replaced — a crash
// can kill a process while it holds the lock, and a killed holder never
// unlocks.
func (f *LockedFrames) Reset() {
	f.alloc.Reset()
	f.mu = sim.NewMutex(f.e).SetLabel(&framesLabel)
	f.stats, f.held = sim.LockStats{}, false
}

// lock takes the zone lock. A caller that finds it held queues behind its
// waiters, and its wait counts as contended.
func (f *LockedFrames) lock(p *sim.Proc) {
	if f.held {
		f.stats.MaxQueue = max(f.stats.MaxQueue, f.mu.Waiters()+1)
		since := p.Now()
		f.mu.Lock(p)
		wait := p.Now().Sub(since)
		f.stats.Contended++
		f.stats.TotalWait += wait
		f.stats.MaxWait = max(f.stats.MaxWait, wait)
	} else {
		f.mu.Lock(p)
		f.held = true
	}
	f.stats.Acquisitions++
	f.acquiredAt = p.Now()
}

// unlock releases the zone lock; the oldest waiter, if any, is handed it.
func (f *LockedFrames) unlock(p *sim.Proc) {
	f.stats.TotalHold += p.Now().Sub(f.acquiredAt)
	f.held = f.mu.Waiters() > 0
	f.mu.Unlock(p)
}

func (f *LockedFrames) bounce(p *sim.Proc) {
	p.Sleep(f.machine.LineBounce(f.mu.Waiters(), f.cores, false) + f.machine.Cost.FrameAlloc)
}

// AllocFrame implements vm.FrameSource.
func (f *LockedFrames) AllocFrame(p *sim.Proc) (mem.FrameID, int, error) {
	f.lock(p)
	f.bounce(p)
	fr, err := f.alloc.Alloc()
	f.unlock(p)
	if err != nil {
		return mem.NoFrame, 0, err
	}
	return fr, f.alloc.Node(), nil
}

// FreeFrame implements vm.FrameSource.
func (f *LockedFrames) FreeFrame(p *sim.Proc, fr mem.FrameID) {
	f.lock(p)
	f.bounce(p)
	err := f.alloc.Free(fr)
	f.unlock(p)
	if err != nil {
		panic(fmt.Sprintf("kernel: frame free: %v", err))
	}
}

// DropFrame gives back a frame that was allocated but never mapped, as a
// fault that lost a race to install its page does. It takes no zone lock
// and charges nothing: Linux's put_page puts such a page on a per-CPU list,
// off the zone lock. So a drop can land while another process holds the
// lock between its bounce and its allocation, and that process may get the
// dropped frame, as the next allocation on a CPU gets its list's pages.
func (f *LockedFrames) DropFrame(fr mem.FrameID) {
	if err := f.alloc.Free(fr); err != nil {
		panic(fmt.Sprintf("kernel: frame drop: %v", err))
	}
}

// Allocator exposes the underlying allocator for accounting; only
// AllocFrame, FreeFrame and DropFrame change it.
func (f *LockedFrames) Allocator() *mem.FrameAllocator { return f.alloc }

// LockStats returns the zone lock's contention counters.
func (f *LockedFrames) LockStats() sim.LockStats { return f.stats }

// FramesBack checks that n zones have every frame back: zone(i) is the
// i-th, or nil for one the check exempts. Its error names os and each zone
// still holding frames, by unit and index, with the count ("smp: frames in
// use after the run: zone0:1").
func FramesBack(os, unit string, n int, zone func(i int) *LockedFrames) error {
	var held []byte
	for i := 0; i < n; i++ {
		if z := zone(i); z != nil && z.alloc.InUse() != 0 {
			held = fmt.Appendf(held, " %s%d:%d", unit, i, z.alloc.InUse())
		}
	}
	if held == nil {
		return nil
	}
	return fmt.Errorf("%s: frames in use after the run:%s", os, held)
}

// Testbed is the paper's machine class, 64 cores on two NUMA nodes: what a
// boot whose config leaves the topology zero runs on.
func Testbed() hw.Topology { return hw.Topology{Cores: 64, NUMANodes: 2} }

// DefaultFrames sizes a part's frame zone when a config leaves it zero.
const DefaultFrames = 1 << 16

// Setup makes what every OS boots on from its config's zero values: the
// machine (topology zero: the Testbed; cost nil: hw.DefaultCostModel), an
// engine seeded by seed (zero: 1) with opts, and an empty metrics registry.
func Setup(topo hw.Topology, cost *hw.CostModel, seed int64, opts ...sim.Option) (*hw.Machine, sim.Engine, *stats.Registry, error) {
	if topo.Cores == 0 {
		topo = Testbed()
	}
	c := hw.DefaultCostModel()
	if cost != nil {
		c = *cost
	}
	machine, err := hw.NewMachine(topo, c)
	if err != nil {
		return nil, nil, nil, err
	}
	if seed == 0 {
		seed = 1
	}
	return machine, sim.NewEngine(append([]sim.Option{sim.WithSeed(seed)}, opts...)...), stats.NewRegistry(), nil
}

// frameStride is the distance between parts' first frame numbers: part k's
// zone starts at frame k*frameStride, so a frame's number says which part
// it is from.
const frameStride = 1 << 24

// Part is one of the parts Carve splits a machine into: a contiguous run of
// cores and the frame zone they contend for, homed on the NUMA node of the
// first core.
type Part struct {
	Cores  []int
	Frames *LockedFrames
}

// Carve splits the machine into n parts of equal, contiguous cores, each
// with a zone of frames frames starting at frame k*frameStride. It is the one
// carve-up under all three OSes: a popcorn kernel, a multikernel node and an
// SMP NUMA zone are each a part. It refuses cores that do not split evenly,
// and a zone of no frames or one that would run into the next part's.
func Carve(e sim.Engine, machine *hw.Machine, n, frames int) ([]Part, error) {
	cores := machine.Topology.Cores
	if n <= 0 || cores%n != 0 {
		return nil, fmt.Errorf("kernel: %d cores do not split evenly into %d parts", cores, n)
	}
	if frames <= 0 || frames > frameStride {
		return nil, fmt.Errorf("kernel: a part holds 1 to %d frames, the stride between parts, got %d", frameStride, frames)
	}
	per := cores / n
	all := make([]int, cores)
	for i := range all {
		all[i] = i
	}
	parts := make([]Part, n)
	for k := range parts {
		p := &parts[k]
		p.Cores = all[k*per : (k+1)*per : (k+1)*per]
		alloc, err := mem.NewFrameAllocator(machine.Topology.NodeOf(p.Cores[0]), int64(k)*frameStride, frames)
		if err != nil {
			return nil, err
		}
		p.Frames = newLockedFrames(e, machine, alloc, per)
	}
	return parts, nil
}

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
		FramesPerKernel: DefaultFrames,
		Msg:             msg.DefaultConfig(),
		TG:              threadgroup.Config{DummyPool: 2},
	}
}

// Cluster is a booted set of kernels plus their shared fabric.
type Cluster struct {
	Kernels []*Kernel
	Fabric  *msg.Fabric
}

// Boot brings up cfg.Kernels kernel instances on the machine, one per part
// of its carve-up.
func Boot(e sim.Engine, machine *hw.Machine, cfg ClusterConfig, metrics *stats.Registry) (*Cluster, error) {
	if cfg.Kernels > vm.MaxKernels {
		return nil, fmt.Errorf("kernel: cluster of %d kernels exceeds the %d a kernel set holds", cfg.Kernels, vm.MaxKernels)
	}
	parts, err := Carve(e, machine, cfg.Kernels, cfg.FramesPerKernel)
	if err != nil {
		return nil, err
	}
	if metrics == nil {
		metrics = stats.NewRegistry()
	}
	nodeCore := make([]int, len(parts))
	for k, part := range parts {
		nodeCore[k] = part.Cores[0]
	}
	fabric, err := msg.NewFabric(e, machine, len(parts), nodeCore, cfg.Msg, metrics)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Fabric: fabric}
	for k, part := range parts {
		sch, err := sched.New(e, machine, part.Cores, metrics)
		if err != nil {
			return nil, err
		}
		vms := vm.NewService(e, machine, fabric, msg.NodeID(k), part.Frames, part.Cores, metrics)
		tgs := threadgroup.NewService(e, machine, fabric, msg.NodeID(k), vms, cfg.TG, metrics)
		fx := futex.NewService(e, fabric, msg.NodeID(k), part.Cores[0], tgs, metrics)
		cl.Kernels = append(cl.Kernels, &Kernel{
			Node:    msg.NodeID(k),
			Machine: machine,
			Sched:   sch,
			Frames:  part.Frames,
			VM:      vms,
			TG:      tgs,
			Futex:   fx,
		})
	}
	return cl, nil
}
