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

// FrameID is a global physical frame number, 32 bits wide so a PTE stays
// 16 bytes: a machine whose frame space does not fit is refused at boot (see
// NewFrameAllocator). NoFrame marks an empty PTE.
type FrameID int32

// MaxNodes bounds the NUMA nodes a frame may be homed on: a PTE holds its
// frame's node in one byte.
const MaxNodes = 1 << 8

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
// homed on the given NUMA node. Boot builds every partition through it, so it
// is where a machine that a PTE cannot describe is refused: a range past the
// 32-bit frame space or a node outside [0, MaxNodes).
func NewFrameAllocator(node int, start int64, count int) (*FrameAllocator, error) {
	if count <= 0 || count > math.MaxInt32 {
		return nil, fmt.Errorf("mem: frame partition must hold 1 to %d frames, got %d", math.MaxInt32, count)
	}
	if start < 0 {
		return nil, fmt.Errorf("mem: negative partition start %d", start)
	}
	if start+int64(count) > math.MaxInt32 {
		return nil, fmt.Errorf("mem: frames [%d,%d) do not fit a 32-bit frame number", start, start+int64(count))
	}
	if node < 0 || node >= MaxNodes {
		return nil, fmt.Errorf("mem: NUMA node %d does not fit a page-table entry (%d nodes at most)", node, MaxNodes)
	}
	return &FrameAllocator{node: node, start: FrameID(start), count: count}, nil
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
// and what it holds, in 16 bytes. A kernel's copy of a page is its entry:
// the page's word travels with the frame, so installing, revoking and
// tearing down a copy each touch one record.
type PTE struct {
	// Word is the contents of the page's memory word in this copy.
	Word  int64
	Frame FrameID
	Prot  Prot
	// HomeNode is the NUMA node of the frame, cached for access costing.
	HomeNode uint8
	// writer is one more than the core that last wrote the word through
	// this entry, 0 while none has (see LastWriter).
	writer uint16
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

// leafBits is log2 of the pages one radix leaf maps.
const leafBits = 4

// leafPages is the number of pages one leaf maps. With a presence word, a
// leaf of sixteen 16-byte PTEs is 264 B (Go's 288 B size class), of sixteen
// pointers 136 B (144 B).
const leafPages = 1 << leafBits

// leaf is a Radix's bottom level: the entries of leafPages consecutive
// pages, entry i present while bit i of present is set. An absent entry
// holds E's zero value, so a leaf keeps nothing a cleared entry pointed at.
type leaf[E comparable] struct {
	present uint16
	e       [leafPages]E
}

// slot is one top-level entry: the leaf for pages [key<<leafBits,
// (key+1)<<leafBits).
type slot[E comparable] struct {
	key VPN
	l   *leaf[E]
}

// Radix maps virtual pages to entries of type E: the one structure for
// per-page state, holding a kernel's page-table replica (PageTable) and an
// origin's directory. The zero value is an empty table, and an empty table
// allocates nothing.
//
// It is a two-level radix: leaves of leafPages entries under a top level
// sorted by key, searched by binary search behind a one-slot hint, and
// walked in page order (All, Drain). Only an unmap (ClearRange) frees a
// leaf, as Linux frees page tables only in free_pgtables; the table keeps
// one emptied leaf as the spare its next new leaf reuses, so a map/unmap
// loop at rising addresses allocates no leaves once warm.
type Radix[E comparable] struct {
	top []slot[E]
	// hint is the slot the last search found; a leaf the table frees
	// leaves it.
	hint  slot[E]
	spare *leaf[E]
}

// PageTable maps virtual pages to frames for one address-space replica on
// one kernel. Page tables are per-kernel in the replicated design: each
// kernel installs only the mappings its local threads have faulted in.
type PageTable struct {
	Radix[PTE]
}

// search returns the index of the first slot of top whose key is not below
// key: key's slot, or where it would go. The halving step masks instead of
// branching, so a scattered lookup costs no mispredictions. Keys are page
// numbers shifted right by leafBits, below 1<<60, so their difference never
// overflows and its sign bit says which is lower.
func search[E comparable](top []slot[E], key VPN) int {
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
func (r *Radix[E]) leafOf(key VPN) *leaf[E] {
	if r.hint.key == key && r.hint.l != nil {
		return r.hint.l
	}
	return r.searchLeaf(key)
}

// searchLeaf is leafOf past the hint: a binary search, which moves the
// hint to what it finds.
func (r *Radix[E]) searchLeaf(key VPN) *leaf[E] {
	if i := search(r.top, key); i < len(r.top) && r.top[i].key == key {
		r.hint = r.top[i]
		return r.hint.l
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
func (r *Radix[E]) Lookup(v VPN) (E, bool) {
	if e := r.entry(v); e != nil {
		return *e, true
	}
	var zero E
	return zero, false
}

// entry returns the page's entry in its leaf, nil if absent. It tests the
// hint itself rather than through leafOf: an instance's methods are too
// large for the compiler to inline into one another, so a hit costs this
// one call.
func (r *Radix[E]) entry(v VPN) *E {
	l, b := r.hint.l, v&(leafPages-1)
	if r.hint.key != v>>leafBits || l == nil {
		l = r.searchLeaf(v >> leafBits)
	}
	if l == nil || l.present&(1<<b) == 0 {
		return nil
	}
	return &l.e[b]
}

// Set installs or replaces the entry for the page.
func (r *Radix[E]) Set(v VPN, e E) {
	l := r.leafOf(v >> leafBits)
	if l == nil {
		if l = r.spare; l == nil {
			l = new(leaf[E])
		}
		r.spare = nil
		r.hint = slot[E]{key: v >> leafBits, l: l}
		r.top = slices.Insert(r.top, search(r.top, r.hint.key), r.hint)
	}
	b := v & (leafPages - 1)
	l.present |= 1 << b
	l.e[b] = e
}

// Clear removes the entry for the page, reporting whether one existed. It
// is an invalidation, not an unmap: the page's leaf stays for its next
// install.
func (r *Radix[E]) Clear(v VPN) bool {
	l, b := r.leafOf(v>>leafBits), v&(leafPages-1)
	if l == nil || l.present&(1<<b) == 0 {
		return false
	}
	l.present &^= 1 << b
	var zero E
	l.e[b] = zero
	return true
}

// ClearRange unmaps [lo, hi): it removes all entries there and appends the
// cleared entries to dst in page order, returning the extended slice (the
// caller frees frames / initiates shootdowns). A dst with room allocates
// nothing. A leaf left empty is freed, or kept as the spare.
func (r *Radix[E]) ClearRange(dst []E, lo, hi VPN) []E {
	return r.clearRange(dst, true, lo, hi)
}

// DeleteRange is ClearRange for a caller that wants nothing back: it
// removes the entries of [lo, hi) and allocates nothing.
func (r *Radix[E]) DeleteRange(lo, hi VPN) { r.clearRange(nil, false, lo, hi) }

// clearRange removes the entries of [lo, hi), appending them to dst if keep.
func (r *Radix[E]) clearRange(dst []E, keep bool, lo, hi VPN) []E {
	if lo >= hi {
		return dst
	}
	var zero E
	first := search(r.top, lo>>leafBits)
	last := (hi - 1) >> leafBits
	i, kept := first, first
	for ; i < len(r.top) && r.top[i].key <= last; i++ {
		s := r.top[i]
		m := s.l.present & rangeBits(s.key, lo, hi)
		for b := m; b != 0; b &= b - 1 {
			j := bits.TrailingZeros16(b)
			if keep {
				dst = append(dst, s.l.e[j])
			}
			s.l.e[j] = zero
		}
		if s.l.present &^= m; s.l.present == 0 {
			if r.hint.l == s.l {
				r.hint = slot[E]{}
			}
			if r.spare == nil {
				r.spare = s.l
			}
			continue
		}
		r.top[kept] = s
		kept++
	}
	if kept < i {
		n := copy(r.top[kept:], r.top[i:])
		clear(r.top[kept+n:])
		r.top = r.top[:kept+n]
	}
	return dst
}

// All yields the table's entries in page order (`for v, e := range
// r.All`), allocating nothing. The loop body must not change the table: a
// walk that blocks or writes while it goes copies what it needs first.
func (r *Radix[E]) All(yield func(VPN, E) bool) {
	for _, s := range r.top {
		for b := s.l.present; b != 0; b &= b - 1 {
			i := bits.TrailingZeros16(b)
			if !yield(s.key<<leafBits|VPN(i), s.l.e[i]) {
				return
			}
		}
	}
}

// Drain empties the table and yields its entries in page order, for
// teardown walks (`for v, e := range r.Drain`): the order frames go back
// decides which frame numbers later allocations get. It detaches the
// leaves before the walk and allocates nothing. The loop body may block or
// Set into the table: the walk yields exactly the entries the table held
// when it began, and no detached leaf is ever reused. A loop that stops
// early drops the rest.
func (r *Radix[E]) Drain(yield func(VPN, E) bool) {
	top := r.top
	r.top, r.hint = nil, slot[E]{}
	for _, s := range top {
		for b := s.l.present; b != 0; b &= b - 1 {
			i := bits.TrailingZeros16(b)
			if !yield(s.key<<leafBits|VPN(i), s.l.e[i]) {
				return
			}
		}
	}
}

// Check reports the first broken invariant of the radix's shape, or nil:
// the top level strictly ascending, the hint one of its
// slots or empty, and the spare, if any, empty, zeroed and not in it.
func (r *Radix[E]) Check() error {
	if r.hint.l != nil && !slices.Contains(r.top, r.hint) {
		return fmt.Errorf("mem: hint %+v names no slot of the top level", r.hint)
	}
	for i, s := range r.top {
		if i > 0 && r.top[i-1].key >= s.key {
			return fmt.Errorf("mem: top level out of order at %d: %d after %d", i, s.key, r.top[i-1].key)
		}
		if s.l == r.spare {
			return fmt.Errorf("mem: the spare leaf is also slot %d", i)
		}
	}
	if r.spare != nil && *r.spare != (leaf[E]{}) {
		return fmt.Errorf("mem: spare leaf is not empty and zeroed (present %016b)", r.spare.present)
	}
	return nil
}

// Lookup returns the entry for the page, if present. It is Radix.Lookup
// spelled out on PTE, which the compiler inlines, so the entry is copied
// straight out of its leaf. Through the instance's own Lookup a PTE comes
// back in five registers, and the caller's narrow stores and wide reload
// of it stall store forwarding: BenchmarkPageTableLookup's hint hit read
// 15 ns that way against 5 ns inlined (2-core x86-64).
func (pt *PageTable) Lookup(v VPN) (PTE, bool) {
	if e := pt.entry(v); e != nil {
		return *e, true
	}
	return PTE{}, false
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
			if e := &s.l.e[bits.TrailingZeros16(b)]; e.Prot&prot != e.Prot {
				e.Prot &= prot
				n++
			}
		}
	}
	return n
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
