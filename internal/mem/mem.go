// Package mem models physical memory: per-kernel frame allocators over
// disjoint physical ranges (each kernel in the replicated-kernel OS owns a
// partition of physical memory) and per-address-space page tables.
package mem

import (
	"fmt"
	"math"
	"math/bits"
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
	// exist only as this number. The frames returned since form a stack,
	// reused LIFO ahead of the watermark — the order a pre-filled
	// descending stack would give, without materialising it.
	next int
	// link holds one word per frame below the watermark, indexed from
	// start: -1 while the frame is in use, otherwise the free stack's link,
	// 1 + the offset of the next free frame down (0 ends the stack). head
	// is the top in the same encoding, and nfree counts the stack.
	link  []int32
	head  int32
	nfree int
}

// NewFrameAllocator creates an allocator over frames [start, start+count)
// homed on the given NUMA node.
func NewFrameAllocator(node int, start FrameID, count int) (*FrameAllocator, error) {
	if count <= 0 || count > math.MaxInt32 {
		return nil, fmt.Errorf("mem: frame partition must hold 1 to %d frames, got %d", math.MaxInt32, count)
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
	var i int32
	if a.head != 0 {
		i = a.head - 1
		a.head = a.link[i]
		a.link[i] = -1
		a.nfree--
	} else if a.next < a.count {
		i = int32(a.next)
		a.next++
		a.link = append(a.link, -1)
	} else {
		return NoFrame, fmt.Errorf("mem: partition [%d,%d) on node %d out of frames", a.start, a.start+FrameID(a.count), a.node)
	}
	return a.start + FrameID(i), nil
}

// Free returns a frame to the allocator. Freeing a frame that is not
// allocated from this partition is an error.
func (a *FrameAllocator) Free(f FrameID) error {
	if f < a.start || f >= a.start+FrameID(a.count) {
		return fmt.Errorf("mem: frame %d not in partition [%d,%d)", f, a.start, a.start+FrameID(a.count))
	}
	i := int32(f - a.start)
	if int(i) >= len(a.link) || a.link[i] != -1 {
		return fmt.Errorf("mem: double free of frame %d", f)
	}
	a.link[i] = a.head
	a.head = i + 1
	a.nfree++
	return nil
}

// Reset returns the allocator to its boot state: every frame free, nothing
// allocated. A kernel reboot resets its frame partition wholesale — the
// frames' previous contents are gone with the crash, so there is nothing to
// free individually.
func (a *FrameAllocator) Reset() {
	a.next = 0
	a.link = a.link[:0]
	a.head, a.nfree = 0, 0
}

// InUse returns the number of allocated frames: every frame below the
// watermark that is not on the free stack.
func (a *FrameAllocator) InUse() int { return a.next - a.nfree }

// Available returns the number of free frames.
func (a *FrameAllocator) Available() int { return a.nfree + a.count - a.next }

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

// leafBits is log2 of the pages one page-table leaf maps.
const leafBits = 4

// leafPages is the number of pages one leaf maps: sixteen 24-byte entries
// and a presence word are 392 B, one allocation in Go's 416 B size class.
const leafPages = 1 << leafBits

// leaf is a PageTable's bottom level: the entries of leafPages consecutive
// pages, entry i present while bit i of present is set.
type leaf struct {
	present uint16
	pte     [leafPages]PTE
}

// slot is one top-level entry: the leaf for pages [key<<leafBits,
// (key+1)<<leafBits).
type slot struct {
	key VPN
	l   *leaf
}

// PageTable maps virtual pages to frames for one address-space replica on
// one kernel. Page tables are per-kernel in the replicated design: each
// kernel installs only the mappings its local threads have faulted in. The
// zero value is an empty table, and an empty table allocates nothing.
//
// The table is a two-level radix: leaves of leafPages entries under a top
// level sorted by key, searched by binary search behind a one-slot hint.
// Only an unmap (ClearRange) frees a leaf, as Linux frees page tables only
// in free_pgtables; the table keeps one emptied leaf as the spare its next
// new leaf reuses, so a map/unmap loop at rising addresses allocates no
// leaves once warm.
type PageTable struct {
	top []slot
	// hint is the slot the last search found; a leaf the table frees
	// leaves it.
	hint  slot
	spare *leaf
}

// search returns the index of the first slot of top whose key is not below
// key: key's slot, or where it would go. The halving step masks instead of
// branching, so a scattered lookup costs no mispredictions. Keys are page
// numbers shifted right by leafBits, below 1<<60, so their difference never
// overflows and its sign bit says which is lower.
func search(top []slot, key VPN) int {
	base, n := 0, len(top)
	if n == 0 {
		return 0
	}
	for n > 1 {
		half := n >> 1
		below := int(int64(top[base+half].key-key) >> 63) // -1 if below key, else 0
		base += half & below
		n -= half
	}
	if top[base].key < key {
		base++
	}
	return base
}

// leafOf returns the leaf with key, or nil. The hint's leaf costs no
// search.
func (pt *PageTable) leafOf(key VPN) *leaf {
	if pt.hint.key == key && pt.hint.l != nil {
		return pt.hint.l
	}
	return pt.searchLeaf(key)
}

// searchLeaf is leafOf past the hint: a binary search, which moves the
// hint to what it finds.
func (pt *PageTable) searchLeaf(key VPN) *leaf {
	if i := search(pt.top, key); i < len(pt.top) && pt.top[i].key == key {
		pt.hint = pt.top[i]
		return pt.hint.l
	}
	return nil
}

// rangeBits returns the bits of the leaf with key k that pages [lo, hi)
// cover.
func rangeBits(k, lo, hi VPN) uint16 {
	base := k << leafBits
	from, to := VPN(0), VPN(leafPages)
	if lo > base {
		from = lo - base
	}
	if hi < base+leafPages {
		to = hi - base
	}
	return (uint16(1)<<to - 1) &^ (uint16(1)<<from - 1)
}

// Lookup returns the entry for the page, if present.
func (pt *PageTable) Lookup(v VPN) (PTE, bool) {
	if e := pt.entry(v); e != nil {
		return *e, true
	}
	return PTE{}, false
}

// entry returns the page's entry in its leaf, nil if absent. Lookup copies
// out of it in its caller's frame.
func (pt *PageTable) entry(v VPN) *PTE {
	l, b := pt.leafOf(v>>leafBits), v&(leafPages-1)
	if l == nil || l.present&(1<<b) == 0 {
		return nil
	}
	return &l.pte[b]
}

// Set installs or replaces the entry for the page.
func (pt *PageTable) Set(v VPN, e PTE) {
	l := pt.leafOf(v >> leafBits)
	if l == nil {
		if l = pt.spare; l == nil {
			l = new(leaf)
		}
		pt.spare = nil
		pt.hint = slot{key: v >> leafBits, l: l}
		pt.top = slices.Insert(pt.top, search(pt.top, pt.hint.key), pt.hint)
	}
	b := v & (leafPages - 1)
	l.present |= 1 << b
	l.pte[b] = e
}

// Clear removes the entry for the page, reporting whether one existed. It
// is an invalidation, not an unmap: the page's leaf stays for its next
// install.
func (pt *PageTable) Clear(v VPN) bool {
	l, bit := pt.leafOf(v>>leafBits), uint16(1)<<(v&(leafPages-1))
	if l == nil || l.present&bit == 0 {
		return false
	}
	l.present &^= bit
	return true
}

// ClearRange unmaps [lo, hi): it removes all entries there and appends the
// cleared entries to dst in page order, returning the extended slice (the
// caller frees frames / initiates shootdowns). A dst with room allocates
// nothing. A leaf left empty is freed, or kept as the spare.
func (pt *PageTable) ClearRange(dst []PTE, lo, hi VPN) []PTE {
	if lo >= hi {
		return dst
	}
	first := search(pt.top, lo>>leafBits)
	last := (hi - 1) >> leafBits
	i, kept := first, first
	for ; i < len(pt.top) && pt.top[i].key <= last; i++ {
		s := pt.top[i]
		m := s.l.present & rangeBits(s.key, lo, hi)
		for b := m; b != 0; b &= b - 1 {
			dst = append(dst, s.l.pte[bits.TrailingZeros16(b)])
		}
		if s.l.present &^= m; s.l.present == 0 {
			if pt.hint.l == s.l {
				pt.hint = slot{}
			}
			if pt.spare == nil {
				pt.spare = s.l
			}
			continue
		}
		pt.top[kept] = s
		kept++
	}
	if kept < i {
		n := copy(pt.top[kept:], pt.top[i:])
		clear(pt.top[kept+n:])
		pt.top = pt.top[:kept+n]
	}
	return dst
}

// Protect strips every bit outside prot from the present entries in
// [lo, hi), returning how many entries changed. Entries keep their frames
// and words; an entry never gains a bit here (upgrades go through the fault
// path).
func (pt *PageTable) Protect(lo, hi VPN, prot Prot) int {
	if lo >= hi {
		return 0
	}
	n := 0
	i := search(pt.top, lo>>leafBits)
	for last := (hi - 1) >> leafBits; i < len(pt.top) && pt.top[i].key <= last; i++ {
		s := pt.top[i]
		for b := s.l.present & rangeBits(s.key, lo, hi); b != 0; b &= b - 1 {
			if e := &s.l.pte[bits.TrailingZeros16(b)]; e.Prot&prot != e.Prot {
				e.Prot &= prot
				n++
			}
		}
	}
	return n
}

// Drain empties the table and yields its entries in page order, for
// teardown walks (`for v, e := range pt.Drain`): the order frames go back
// decides which frame numbers later allocations get. It detaches the
// leaves before the walk and allocates nothing. The loop body may block or
// Set into the table: the walk yields exactly the entries the table held
// when it began, and no detached leaf is ever reused. A loop that stops
// early drops the rest.
func (pt *PageTable) Drain(yield func(VPN, PTE) bool) {
	top := pt.top
	pt.top, pt.hint = nil, slot{}
	for _, s := range top {
		for b := s.l.present; b != 0; b &= b - 1 {
			i := bits.TrailingZeros16(b)
			if !yield(s.key<<leafBits|VPN(i), s.l.pte[i]) {
				return
			}
		}
	}
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
