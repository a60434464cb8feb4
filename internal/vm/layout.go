package vm

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/mem"
)

// LayoutOp names a layout operation: what Layout.Resolve decides and what
// a replica forwards to its origin.
type LayoutOp int

// Layout operations.
const (
	OpMap LayoutOp = iota + 1
	OpUnmap
	OpProtect
	OpBrk
)

// opNames names each operation for error messages.
var opNames = [...]string{OpMap: "map", OpUnmap: "unmap", OpProtect: "protect", OpBrk: "sbrk"}

// mapBase is the first address the anonymous-mapping allocator hands out.
const mapBase mem.Addr = 1 << 32

// heapBase is where the brk heap starts (below the mmap area).
const heapBase mem.Addr = 1 << 28

// Layout is one address space's layout: its areas, the anonymous-mapping
// cursor, the program break and the version of the last committed change.
// Every kernel decides a layout change through Resolve — the replicated
// kernel's origin, and the SMP baseline under mmap_sem — so the two differ
// only in how they coordinate it. Replicas and the failover mirror hold one
// too and only replay what an origin resolved.
type Layout struct {
	vmas    vmaSet
	nextMap mem.Addr
	brk     mem.Addr
	version uint64
}

// NewLayout returns an empty layout with its cursors at their bases.
func NewLayout() Layout { return Layout{nextMap: mapBase, brk: heapBase} }

// Find returns the area containing the page.
func (l *Layout) Find(p mem.VPN) (VMA, bool) { return l.vmas.find(p) }

// Resolve decides one layout operation and applies it to the layout. A map
// places length bytes (rounded up to whole pages) at the cursor; an unmap
// removes [addr, addr+length); a protect re-protects it, which must be fully
// mapped; a brk moves the break by the signed delta length holds, rounded to
// whole pages (growth is a map, shrinkage an unmap). It returns the address
// the caller reports (a map's base, brk's previous break), the change to
// replay elsewhere, stamped with the next version — zero when nothing
// changed — and the mapped pieces an unmap took out. It sends nothing and
// charges no cost.
func (l *Layout) Resolve(op LayoutOp, addr mem.Addr, length uint64, prot mem.Prot) (at mem.Addr, u vmaUpdate, removed []VMA, err error) {
	pages := pagesFor(length)
	lo := mem.PageOf(addr)
	hi := lo + mem.VPN(pages)
	switch op {
	case OpMap:
		at = l.nextMap
		l.nextMap += mem.Addr(pages * hw.PageSize)
		lo = mem.PageOf(at)
		u = vmaUpdate{Op: OpMap, Lo: lo, Hi: lo + mem.VPN(pages), Prot: prot}
		err = l.vmas.insert(VMA{Lo: u.Lo, Hi: u.Hi, Prot: u.Prot})
	case OpUnmap:
		// Unmapping a hole is a no-op, as in Linux.
		if removed = l.vmas.remove(lo, hi); len(removed) > 0 {
			u = vmaUpdate{Op: OpUnmap, Lo: lo, Hi: hi}
		}
	case OpProtect:
		if !l.vmas.covered(lo, hi) {
			err = fmt.Errorf("%w: mprotect range [%#x,%#x) not fully mapped", ErrBadRange, uint64(addr), uint64(addr)+length)
		} else if len(l.vmas.protect(lo, hi, prot)) > 0 {
			u = vmaUpdate{Op: OpProtect, Lo: lo, Hi: hi, Prot: prot}
		}
	case OpBrk:
		at = l.brk
		delta := int64(length)
		if delta == 0 {
			break
		}
		step := (delta + hw.PageSize - 1) / hw.PageSize
		if delta < 0 {
			step = -((-delta + hw.PageSize - 1) / hw.PageSize)
		}
		newBrk := l.brk + mem.Addr(step*hw.PageSize)
		if newBrk < heapBase {
			err = fmt.Errorf("%w: brk below heap base", ErrBadRange)
		} else if delta > 0 {
			// A failed growth leaves the break where it was.
			u = vmaUpdate{Op: OpMap, Lo: mem.PageOf(l.brk), Hi: mem.PageOf(newBrk), Prot: mem.ProtRead | mem.ProtWrite}
			if err = l.vmas.insert(VMA{Lo: u.Lo, Hi: u.Hi, Prot: u.Prot}); err == nil {
				l.brk = newBrk
			}
		} else {
			u = vmaUpdate{Op: OpUnmap, Lo: mem.PageOf(newBrk), Hi: mem.PageOf(l.brk)}
			removed, l.brk = l.vmas.remove(u.Lo, u.Hi), newBrk
		}
	default:
		err = fmt.Errorf("unknown vma op %d", op)
	}
	if err != nil {
		return at, vmaUpdate{}, nil, err
	}
	if u.Op != 0 {
		l.version++
		u.Version = l.version
	}
	return at, u, removed, nil
}

// CheckRange rejects an empty or unaligned range before any layout work.
func CheckRange(addr mem.Addr, length uint64) error {
	if length == 0 {
		return fmt.Errorf("%w: zero length", ErrBadRange)
	}
	if uint64(addr)%hw.PageSize != 0 {
		return fmt.Errorf("%w: address %#x not page-aligned", ErrBadRange, uint64(addr))
	}
	return nil
}

func pagesFor(length uint64) int {
	return int((length + hw.PageSize - 1) / hw.PageSize)
}
