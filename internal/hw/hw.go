// Package hw models the hardware the replicated-kernel OS runs on: a
// multicore, multi-socket (NUMA) x86 machine described by a topology and a
// calibrated cost model. All OS-level simulation charges its virtual-time
// costs through this package, so the relative magnitudes here — not absolute
// wall-clock numbers — determine every experimental result.
package hw

import (
	"fmt"
	"time"
)

// PageSize is the (only) page size the simulated machine supports.
const PageSize = 4096

// CacheLineSize is the coherence granularity for contention modelling.
const CacheLineSize = 64

// Topology describes the simulated machine's cores and NUMA layout.
type Topology struct {
	// Cores is the total number of hardware threads.
	Cores int
	// NUMANodes is the number of memory nodes (sockets). Cores are assigned
	// to nodes in contiguous blocks of Cores/NUMANodes.
	NUMANodes int
}

// validate checks the topology for internal consistency.
func (t Topology) validate() error {
	if t.Cores <= 0 {
		return fmt.Errorf("hw: topology needs at least one core, got %d", t.Cores)
	}
	if t.NUMANodes <= 0 {
		return fmt.Errorf("hw: topology needs at least one NUMA node, got %d", t.NUMANodes)
	}
	if t.Cores%t.NUMANodes != 0 {
		return fmt.Errorf("hw: %d cores do not divide evenly across %d NUMA nodes", t.Cores, t.NUMANodes)
	}
	return nil
}

// CoresPerNode returns the number of cores on each NUMA node.
func (t Topology) CoresPerNode() int { return t.Cores / t.NUMANodes }

// NodeOf returns the NUMA node that owns the given core. One division
// suffices: validate requires the cores to split evenly across the nodes,
// so core*NUMANodes/Cores is core/CoresPerNode.
func (t Topology) NodeOf(core int) int {
	if core < 0 || core >= t.Cores {
		panic(fmt.Sprintf("hw: core %d out of range [0,%d)", core, t.Cores))
	}
	return core * t.NUMANodes / t.Cores
}

// SameNode reports whether two cores share a NUMA node.
func (t Topology) SameNode(a, b int) bool { return t.NodeOf(a) == t.NodeOf(b) }

// CostModel holds the virtual-time cost of every primitive hardware and
// low-level OS operation the simulation charges. The defaults are calibrated
// to a 2015-era dual-socket x86 server (the class of machine the paper
// evaluates on); see DefaultCostModel.
type CostModel struct {
	// ContextSwitch is the cost of switching between tasks on one core.
	ContextSwitch time.Duration
	// SyscallTrap is the user-to-kernel-and-back transition cost.
	SyscallTrap time.Duration
	// PageFaultTrap is the hardware fault entry/exit cost, excluding any
	// work done to resolve the fault.
	PageFaultTrap time.Duration
	// IPILocal / IPIRemote is the cost of an inter-processor interrupt to a
	// core on the same / a different NUMA node.
	IPILocal  time.Duration
	IPIRemote time.Duration
	// TLBInvalidate is the per-core cost of processing a TLB shootdown.
	TLBInvalidate time.Duration
	// MemAccessLocal / MemAccessRemote is a cache-missing access to memory
	// on the local / a remote NUMA node.
	MemAccessLocal  time.Duration
	MemAccessRemote time.Duration
	// LineTransferLocal / LineTransferRemote is the cost of pulling a
	// modified cache line from another core's cache on the same / a
	// different node. This is the unit cost of lock and shared-counter
	// contention.
	LineTransferLocal  time.Duration
	LineTransferRemote time.Duration
	// AtomicOp is an uncontended locked RMW instruction.
	AtomicOp time.Duration
	// PageCopyLocal / PageCopyRemote is copying one 4 KiB page within a
	// node / across nodes.
	PageCopyLocal  time.Duration
	PageCopyRemote time.Duration
	// ThreadSetup is the kernel-side cost of initialising a task struct,
	// kernel stack and scheduler entry for a new thread (excluding any
	// locking, which is charged separately).
	ThreadSetup time.Duration
	// PTESet is installing or updating one page-table entry.
	PTESet time.Duration
	// VMAOp is the CPU cost of manipulating the VMA tree for one
	// mmap/munmap/mprotect, excluding locking and propagation.
	VMAOp time.Duration
	// FrameAlloc is the buddy-allocator work for one page allocation or
	// free, excluding locking.
	FrameAlloc time.Duration
	// BulkPerKBLocal / BulkPerKBRemote is the streaming (bandwidth-bound)
	// cost of moving one KiB within / across NUMA nodes. Distinct from
	// LineTransfer*, which prices latency-bound single-line pulls: bulk
	// copies pipeline across the interconnect.
	BulkPerKBLocal  time.Duration
	BulkPerKBRemote time.Duration
}

// DefaultCostModel returns costs calibrated to a 2015-era dual-socket x86
// server: ~100 ns local DRAM, ~1.6x remote, ~1 µs IPIs, ~1-2 µs context
// switches. Absolute values matter less than ratios; these ratios follow the
// measurements commonly reported for that hardware class.
func DefaultCostModel() CostModel {
	return CostModel{
		ContextSwitch:      1500 * time.Nanosecond,
		SyscallTrap:        80 * time.Nanosecond,
		PageFaultTrap:      700 * time.Nanosecond,
		IPILocal:           1000 * time.Nanosecond,
		IPIRemote:          1800 * time.Nanosecond,
		TLBInvalidate:      250 * time.Nanosecond,
		MemAccessLocal:     100 * time.Nanosecond,
		MemAccessRemote:    160 * time.Nanosecond,
		LineTransferLocal:  60 * time.Nanosecond,
		LineTransferRemote: 240 * time.Nanosecond,
		AtomicOp:           20 * time.Nanosecond,
		PageCopyLocal:      900 * time.Nanosecond,
		PageCopyRemote:     1600 * time.Nanosecond,
		ThreadSetup:        2500 * time.Nanosecond,
		PTESet:             30 * time.Nanosecond,
		VMAOp:              350 * time.Nanosecond,
		FrameAlloc:         150 * time.Nanosecond,
		BulkPerKBLocal:     65 * time.Nanosecond,  // ~15 GB/s streaming
		BulkPerKBRemote:    125 * time.Nanosecond, // ~8 GB/s cross-socket
	}
}

// Machine combines a topology with a cost model and provides the derived
// cost queries the OS layers use.
type Machine struct {
	Topology Topology
	Cost     CostModel
}

// NewMachine validates the topology and returns a machine.
func NewMachine(t Topology, c CostModel) (*Machine, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	return &Machine{Topology: t, Cost: c}, nil
}

// IPI returns the cost of an inter-processor interrupt from one core to
// another.
func (m *Machine) IPI(from, to int) time.Duration {
	if m.Topology.SameNode(from, to) {
		return m.Cost.IPILocal
	}
	return m.Cost.IPIRemote
}

// MemAccess returns the cost of a cache-missing memory access from a core to
// memory homed on the given NUMA node.
func (m *Machine) MemAccess(core, homeNode int) time.Duration {
	if m.Topology.NodeOf(core) == homeNode {
		return m.Cost.MemAccessLocal
	}
	return m.Cost.MemAccessRemote
}

// LineBounce returns the cost of acquiring exclusive ownership of a cache
// line that `waiters` other contenders want, on a set of `cores` cores that
// can touch it. With no sharers the line is already local and only the
// atomic op is charged; each sharer adds a transfer, reflecting how a
// contended lock word or shared counter ping-pongs between caches. A line
// cannot ping-pong between more caches than there are cores, and waiters
// beyond them are parked, not spinning, so at most cores-1 sharers count.
// crossNode selects the remote transfer cost, which is what makes shared
// kernel data so expensive on multi-socket machines.
func (m *Machine) LineBounce(waiters, cores int, crossNode bool) time.Duration {
	cost := m.Cost.AtomicOp
	sharers := min(waiters, cores-1)
	if sharers <= 0 {
		return cost
	}
	per := m.Cost.LineTransferLocal
	if crossNode {
		per = m.Cost.LineTransferRemote
	}
	return cost + time.Duration(sharers)*per
}

// TLBShootdown returns the cost, at the initiating core, of invalidating a
// mapping that `active` threads may cache on a set of `cores` cores: one IPI
// round to the other min(active, cores)-1 cores plus per-core invalidation
// acknowledgement serialisation, or a local flush when there are none.
// crossNode selects remote IPI cost.
func (m *Machine) TLBShootdown(active, cores int, crossNode bool) time.Duration {
	remote := min(active, cores) - 1
	if remote <= 0 {
		return m.Cost.TLBInvalidate // local flush only
	}
	ipi := m.Cost.IPILocal
	if crossNode {
		ipi = m.Cost.IPIRemote
	}
	return ipi + time.Duration(remote)*m.Cost.TLBInvalidate
}
