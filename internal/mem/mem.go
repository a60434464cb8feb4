// Package mem models physical memory: per-kernel frame allocators over
// disjoint physical ranges (each kernel in the replicated-kernel OS owns a
// partition of physical memory) and per-address-space page tables.
package mem

import (
	"cmp"
	"fmt"
	"math"
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
	// next is the watermark: frames [start, start+next) have been handed
	// out at least once, frames [start+next, start+count) never have and
	// exist only as this number. free stacks the frames returned since,
	// reused LIFO ahead of the watermark — the order a pre-filled
	// descending stack would give, without materialising it.
	next int
	free []FrameID
	// used marks the frames in use, indexed from start; it grows with the
	// watermark, so it is never longer than next.
	used []bool
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
	return &FrameAllocator{node: node, start: start, count: count}, nil
}

// Node returns the NUMA node this partition is homed on.
func (a *FrameAllocator) Node() int { return a.node }

// Alloc returns a free frame or an error when the partition is exhausted.
func (a *FrameAllocator) Alloc() (FrameID, error) {
	var f FrameID
	if n := len(a.free); n > 0 {
		f = a.free[n-1]
		a.free = a.free[:n-1]
		a.used[f-a.start] = true
	} else if a.next < a.count {
		f = a.start + FrameID(a.next)
		a.next++
		a.used = append(a.used, true)
	} else {
		return NoFrame, fmt.Errorf("mem: partition [%d,%d) on node %d out of frames", a.start, a.start+FrameID(a.count), a.node)
	}
	return f, nil
}

// Free returns a frame to the allocator. Freeing a frame that is not
// allocated from this partition is an error.
func (a *FrameAllocator) Free(f FrameID) error {
	if f < a.start || f >= a.start+FrameID(a.count) {
		return fmt.Errorf("mem: frame %d not in partition [%d,%d)", f, a.start, a.start+FrameID(a.count))
	}
	i := int(f - a.start)
	if i >= len(a.used) || !a.used[i] {
		return fmt.Errorf("mem: double free of frame %d", f)
	}
	a.used[i] = false
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
	a.used = a.used[:0]
}

// InUse returns the number of allocated frames: every frame below the
// watermark that is not on the free stack.
func (a *FrameAllocator) InUse() int { return a.next - len(a.free) }

// Available returns the number of free frames.
func (a *FrameAllocator) Available() int { return len(a.free) + a.count - a.next }

// PTE is one page-table entry: where the page lives, how it may be accessed
// and what it holds. A kernel's copy of a page is its entry: the page's
// word travels with the frame, so installing, revoking and tearing down a
// copy each touch one record.
type PTE struct {
	Frame FrameID
	// Word is the contents of the page's memory word in this copy.
	Word int64
	Prot Prot
	// writer is one more than the core that last wrote the word through
	// this entry, 0 while none has (see LastWriter).
	writer uint16
	// HomeNode is the NUMA node of the frame, cached for access costing.
	HomeNode int32
}

// LastWriter returns the core that last wrote the word through this entry,
// if any has: the hardware-coherent baseline charges a cache-line transfer
// when another core reads or writes it next.
func (e PTE) LastWriter() (core int, ok bool) { return int(e.writer) - 1, e.writer != 0 }

// SetWriter records core as the entry's last writer.
func (e *PTE) SetWriter(core int) {
	if core < 0 || core >= math.MaxUint16 {
		panic(fmt.Sprintf("mem: writer core %d out of range [0,%d)", core, math.MaxUint16))
	}
	e.writer = uint16(core + 1)
}

// Mapping is one entry together with the page it maps, as Drain returns it.
type Mapping struct {
	Page VPN
	PTE
}

// PageTable maps virtual pages to frames for one address-space replica on
// one kernel. Page tables are per-kernel in the replicated design: each
// kernel installs only the mappings its local threads have faulted in. The
// zero value is an empty table, and an empty table allocates nothing.
type PageTable struct {
	entries map[VPN]PTE
}

// Lookup returns the entry for the page, if present.
func (pt *PageTable) Lookup(v VPN) (PTE, bool) {
	e, ok := pt.entries[v]
	return e, ok
}

// Set installs or replaces the entry for the page.
func (pt *PageTable) Set(v VPN, e PTE) {
	if pt.entries == nil {
		pt.entries = make(map[VPN]PTE)
	}
	pt.entries[v] = e
}

// Clear removes the entry for the page, reporting whether one existed.
func (pt *PageTable) Clear(v VPN) bool {
	if _, ok := pt.entries[v]; !ok {
		return false
	}
	delete(pt.entries, v)
	return true
}

// ClearRange removes all entries in [lo, hi) and appends the cleared
// entries to dst in page order, returning the extended slice (the caller
// frees frames / initiates shootdowns). A dst with room allocates nothing.
func (pt *PageTable) ClearRange(dst []PTE, lo, hi VPN) []PTE {
	for v := lo; v < hi; v++ {
		if e, ok := pt.entries[v]; ok {
			dst = append(dst, e)
			delete(pt.entries, v)
		}
	}
	return dst
}

// Protect strips every bit outside prot from the present entries in
// [lo, hi), returning how many entries changed. Entries keep their frames
// and words; an entry never gains a bit here (upgrades go through the fault
// path).
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

// Drain empties the table and returns its entries in page order, for
// teardown walks: the order frames go back decides which frame numbers
// later allocations get. It makes one exact-size allocation, none for an
// empty table.
func (pt *PageTable) Drain() []Mapping {
	if len(pt.entries) == 0 {
		return nil
	}
	out := make([]Mapping, 0, len(pt.entries))
	for v, e := range pt.entries {
		out = append(out, Mapping{Page: v, PTE: e})
	}
	slices.SortFunc(out, func(a, b Mapping) int { return cmp.Compare(a.Page, b.Page) })
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
