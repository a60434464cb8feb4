// Package mem models physical memory: per-kernel frame allocators over
// disjoint physical ranges (each kernel in the replicated-kernel OS owns a
// partition of physical memory) and per-address-space page tables.
package mem

import (
	"fmt"
	"slices"

	"repro/internal/hw"
)

// FrameID is a global physical frame number. NoFrame marks an empty PTE.
type FrameID int64

// NoFrame is the sentinel for "no physical frame".
const NoFrame FrameID = -1

// Addr is a virtual address.
type Addr uint64

// VPN is a virtual page number.
type VPN uint64

// PageOf returns the virtual page containing a.
func PageOf(a Addr) VPN { return VPN(a / hw.PageSize) }

// Base returns the first address of the page.
func (v VPN) Base() Addr { return Addr(v) * hw.PageSize }

// PagesSpanned returns how many pages the range [a, a+length) touches.
func PagesSpanned(a Addr, length uint64) int {
	if length == 0 {
		return 0
	}
	first := PageOf(a)
	last := PageOf(a + Addr(length) - 1)
	return int(last-first) + 1
}

// Prot is a page protection bitmask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// Readable reports whether the read bit is set.
func (p Prot) Readable() bool { return p&ProtRead != 0 }

// Writable reports whether the write bit is set.
func (p Prot) Writable() bool { return p&ProtWrite != 0 }

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// FrameAllocator hands out physical frames from one kernel's partition.
// Frames are identified globally so a frame's home NUMA node can always be
// recovered, but each allocator only manages its own contiguous range.
type FrameAllocator struct {
	node  int // NUMA node the partition lives on
	start FrameID
	count int
	// next is the watermark: frames [start+next, start+count) have never
	// been handed out and exist only as this number. free stacks the frames
	// returned since, reused LIFO ahead of the watermark — the order a
	// pre-filled descending stack would give, without materialising it.
	next      int
	free      []FrameID
	allocated map[FrameID]struct{}
}

// NewFrameAllocator creates an allocator over frames [start, start+count)
// homed on the given NUMA node.
func NewFrameAllocator(node int, start FrameID, count int) (*FrameAllocator, error) {
	if count <= 0 {
		return nil, fmt.Errorf("mem: frame partition must be non-empty, got %d", count)
	}
	if start < 0 {
		return nil, fmt.Errorf("mem: negative partition start %d", start)
	}
	a := &FrameAllocator{
		node:      node,
		start:     start,
		count:     count,
		allocated: make(map[FrameID]struct{}),
	}
	return a, nil
}

// Node returns the NUMA node this partition is homed on.
func (a *FrameAllocator) Node() int { return a.node }

// Alloc returns a free frame or an error when the partition is exhausted.
func (a *FrameAllocator) Alloc() (FrameID, error) {
	var f FrameID
	if n := len(a.free); n > 0 {
		f = a.free[n-1]
		a.free = a.free[:n-1]
	} else if a.next < a.count {
		f = a.start + FrameID(a.next)
		a.next++
	} else {
		return NoFrame, fmt.Errorf("mem: partition [%d,%d) on node %d out of frames", a.start, a.start+FrameID(a.count), a.node)
	}
	a.allocated[f] = struct{}{}
	return f, nil
}

// Free returns a frame to the allocator. Freeing a frame that is not
// allocated from this partition is an error.
func (a *FrameAllocator) Free(f FrameID) error {
	if f < a.start || f >= a.start+FrameID(a.count) {
		return fmt.Errorf("mem: frame %d not in partition [%d,%d)", f, a.start, a.start+FrameID(a.count))
	}
	if _, ok := a.allocated[f]; !ok {
		return fmt.Errorf("mem: double free of frame %d", f)
	}
	delete(a.allocated, f)
	a.free = append(a.free, f)
	return nil
}

// Reset returns the allocator to its boot state: every frame free, nothing
// allocated. A kernel reboot resets its frame partition wholesale — the
// frames' previous contents are gone with the crash, so there is nothing to
// free individually.
func (a *FrameAllocator) Reset() {
	a.next = 0
	a.free = a.free[:0]
	a.allocated = make(map[FrameID]struct{})
}

// InUse returns the number of allocated frames.
func (a *FrameAllocator) InUse() int { return len(a.allocated) }

// Available returns the number of free frames.
func (a *FrameAllocator) Available() int { return len(a.free) + a.count - a.next }

// PTE is one page-table entry.
type PTE struct {
	Frame FrameID
	Prot  Prot
	// HomeNode is the NUMA node of the frame, cached for access costing.
	HomeNode int
}

// PageTable maps virtual pages to frames for one address-space replica on
// one kernel. Page tables are per-kernel in the replicated design: each
// kernel installs only the mappings its local threads have faulted in.
type PageTable struct {
	entries map[VPN]PTE
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{entries: make(map[VPN]PTE)}
}

// Lookup returns the entry for the page, if present.
func (pt *PageTable) Lookup(v VPN) (PTE, bool) {
	e, ok := pt.entries[v]
	return e, ok
}

// Set installs or replaces the entry for the page.
func (pt *PageTable) Set(v VPN, e PTE) { pt.entries[v] = e }

// Clear removes the entry for the page, reporting whether one existed.
func (pt *PageTable) Clear(v VPN) bool {
	if _, ok := pt.entries[v]; !ok {
		return false
	}
	delete(pt.entries, v)
	return true
}

// ClearRange removes all entries in [lo, hi) and returns the cleared
// entries (the caller frees frames / initiates shootdowns).
func (pt *PageTable) ClearRange(lo, hi VPN) []PTE {
	var cleared []PTE
	for v := lo; v < hi; v++ {
		if e, ok := pt.entries[v]; ok {
			cleared = append(cleared, e)
			delete(pt.entries, v)
		}
	}
	return cleared
}

// Protect strips every bit outside prot from the present entries in
// [lo, hi), returning how many entries changed. Entries keep their frames;
// an entry never gains a bit here (upgrades go through the fault path).
func (pt *PageTable) Protect(lo, hi VPN, prot Prot) int {
	n := 0
	for v := lo; v < hi; v++ {
		if e, ok := pt.entries[v]; ok && e.Prot&prot != e.Prot {
			e.Prot &= prot
			pt.entries[v] = e
			n++
		}
	}
	return n
}

// Len returns the number of present entries.
func (pt *PageTable) Len() int { return len(pt.entries) }

// Drain empties the table and returns its entries in page order, for
// teardown walks: the order frames go back decides which frame numbers
// later allocations get.
func (pt *PageTable) Drain() []PTE {
	vpns := make([]VPN, 0, len(pt.entries))
	for v := range pt.entries {
		vpns = append(vpns, v)
	}
	slices.Sort(vpns)
	out := make([]PTE, len(vpns))
	for i, v := range vpns {
		out[i] = pt.entries[v]
	}
	clear(pt.entries)
	return out
}

// OpKind names the kind of a word access.
type OpKind uint8

// Word access kinds.
const (
	OpLoad OpKind = iota
	OpStore
	OpCAS
	OpFetchAdd
)

// Op is one access to a memory word: the single description of a load,
// store, compare-and-swap or fetch-add that every OS's memory path applies,
// and that write forwarding ships to the page's origin as is.
type Op struct {
	Kind OpKind
	// Val is the value a store writes, a CAS's replacement or a fetch-add's
	// delta.
	Val int64
	// Old is the value a CAS expects.
	Old int64
}

// Apply performs the access on a word holding cur. It returns the word's
// next contents, the access's result (the prior value, or for a store the
// value stored) and whether the word was written. A CAS succeeded exactly
// when the result equals Old.
func (op Op) Apply(cur int64) (next, result int64, wrote bool) {
	switch op.Kind {
	case OpStore:
		return op.Val, op.Val, true
	case OpCAS:
		if cur == op.Old {
			return op.Val, cur, true
		}
	case OpFetchAdd:
		return cur + op.Val, cur, true
	}
	return cur, cur, false
}
