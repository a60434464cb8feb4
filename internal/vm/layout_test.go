package vm

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
)

// TestLayoutResolve walks one layout through a sequence of operations and
// checks every output of each decision: the reported address, the update
// replicas would replay, the removed pieces, the error, and the cursors and
// version left behind. A decision that changes nothing or fails must leave
// the version and both cursors where they were.
func TestLayoutResolve(t *testing.T) {
	const (
		rw = mem.ProtRead | mem.ProtWrite
		ps = hw.PageSize
	)
	m0, h0 := mem.PageOf(mapBase), mem.PageOf(heapBase)
	l := NewLayout()
	// A foreign area six pages above the heap base: a brk growth over it
	// must fail to insert.
	mustInsert(t, &l.vmas, VMA{Lo: h0 + 6, Hi: h0 + 7, Prot: mem.ProtRead})
	steps := []struct {
		name    string
		op      LayoutOp
		addr    mem.Addr
		length  uint64
		prot    mem.Prot
		at      mem.Addr
		u       vmaUpdate
		removed []VMA
		err     error
		nextMap mem.Addr
		brk     mem.Addr
	}{
		{name: "map 3 pages at the base", op: OpMap, length: 3 * ps, prot: rw,
			at: mapBase, u: vmaUpdate{Op: OpMap, Lo: m0, Hi: m0 + 3, Prot: rw, Version: 1},
			nextMap: mapBase + 3*ps, brk: heapBase},
		{name: "map rounds up to a page", op: OpMap, length: 1, prot: mem.ProtRead,
			at: mapBase + 3*ps, u: vmaUpdate{Op: OpMap, Lo: m0 + 3, Hi: m0 + 4, Prot: mem.ProtRead, Version: 2},
			nextMap: mapBase + 4*ps, brk: heapBase},
		{name: "unmap a hole", op: OpUnmap, addr: mapBase + 8*ps, length: ps,
			nextMap: mapBase + 4*ps, brk: heapBase},
		{name: "protect at the same protection", op: OpProtect, addr: mapBase, length: 3 * ps, prot: rw,
			nextMap: mapBase + 4*ps, brk: heapBase},
		{name: "protect over a hole", op: OpProtect, addr: mapBase, length: 5 * ps, prot: mem.ProtRead, err: ErrBadRange,
			nextMap: mapBase + 4*ps, brk: heapBase},
		{name: "protect", op: OpProtect, addr: mapBase + ps, length: ps, prot: mem.ProtRead,
			u:       vmaUpdate{Op: OpProtect, Lo: m0 + 1, Hi: m0 + 2, Prot: mem.ProtRead, Version: 3},
			nextMap: mapBase + 4*ps, brk: heapBase},
		{name: "unmap across areas", op: OpUnmap, addr: mapBase + 2*ps, length: 4 * ps,
			u:       vmaUpdate{Op: OpUnmap, Lo: m0 + 2, Hi: m0 + 6, Version: 4},
			removed: []VMA{{Lo: m0 + 2, Hi: m0 + 3, Prot: rw}, {Lo: m0 + 3, Hi: m0 + 4, Prot: mem.ProtRead}},
			nextMap: mapBase + 4*ps, brk: heapBase},
		{name: "brk 0", op: OpBrk, at: heapBase, nextMap: mapBase + 4*ps, brk: heapBase},
		{name: "brk below the heap base", op: OpBrk, length: negative(ps), at: heapBase, err: ErrBadRange,
			nextMap: mapBase + 4*ps, brk: heapBase},
		{name: "brk grow rounds up", op: OpBrk, length: 2*ps - 1, at: heapBase,
			u:       vmaUpdate{Op: OpMap, Lo: h0, Hi: h0 + 2, Prot: rw, Version: 5},
			nextMap: mapBase + 4*ps, brk: heapBase + 2*ps},
		{name: "brk grow over an area fails", op: OpBrk, length: 5 * ps, at: heapBase + 2*ps, err: errInsert,
			nextMap: mapBase + 4*ps, brk: heapBase + 2*ps},
		{name: "brk shrink rounds up", op: OpBrk, length: negative(ps + 1), at: heapBase + 2*ps,
			u:       vmaUpdate{Op: OpUnmap, Lo: h0, Hi: h0 + 2, Version: 6},
			removed: []VMA{{Lo: h0, Hi: h0 + 2, Prot: rw}},
			nextMap: mapBase + 4*ps, brk: heapBase},
	}
	version := uint64(0)
	for _, st := range steps {
		at, u, removed, err := l.Resolve(st.op, st.addr, st.length, st.prot)
		if st.err == errInsert && err == nil || st.err != errInsert && !errors.Is(err, st.err) {
			t.Fatalf("%s: err = %v, want %v", st.name, err, st.err)
		}
		if u.Op != 0 {
			version++
		}
		if at != st.at || u != st.u || !slices.Equal(removed, st.removed) {
			t.Errorf("%s: got at %#x, %+v, removed %v; want %#x, %+v, %v", st.name, uint64(at), u, removed, uint64(st.at), st.u, st.removed)
		}
		if l.nextMap != st.nextMap || l.brk != st.brk || l.version != version {
			t.Errorf("%s: nextMap %#x brk %#x version %d; want %#x %#x %d", st.name,
				uint64(l.nextMap), uint64(l.brk), l.version, uint64(st.nextMap), uint64(st.brk), version)
		}
	}
	if got := l.vmas.String(); got != "[0x10006000,0x10007000) r-- [0x100000000,0x100001000) rw- [0x100001000,0x100002000) r--" {
		t.Errorf("final layout %s", got)
	}
}

// errInsert marks a step whose error comes from the area set (an overlap),
// which wraps no sentinel.
var errInsert = errors.New("insert fails")

// negative encodes a brk shrink of n bytes the way Resolve takes it.
func negative(n uint64) uint64 { return uint64(-int64(n)) }
