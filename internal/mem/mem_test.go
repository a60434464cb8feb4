package mem

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

func TestPageOfAndBase(t *testing.T) {
	if PageOf(0) != 0 || PageOf(hw.PageSize-1) != 0 || PageOf(hw.PageSize) != 1 {
		t.Fatal("PageOf boundaries wrong")
	}
	if VPN(3).Base() != Addr(3*hw.PageSize) {
		t.Fatalf("Base = %d", VPN(3).Base())
	}
}

func TestProtBits(t *testing.T) {
	p := ProtRead | ProtWrite
	if !p.Readable() || !p.Writable() {
		t.Fatal("bits not set")
	}
	if p.String() != "rw-" {
		t.Fatalf("String = %q", p)
	}
	if (ProtRead | ProtExec).String() != "r-x" {
		t.Fatalf("String = %q", ProtRead|ProtExec)
	}
}

func TestFrameAllocatorBasics(t *testing.T) {
	a, err := NewFrameAllocator(1, 100, 4)
	if err != nil {
		t.Fatalf("NewFrameAllocator: %v", err)
	}
	if a.Node() != 1 || a.Available() != 4 || a.InUse() != 0 {
		t.Fatal("fresh allocator state wrong")
	}
	f1, err := a.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if f1 != 100 {
		t.Fatalf("first frame = %d, want 100", f1)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Alloc(); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("exhausted allocator still allocated")
	}
	if err := a.Free(f1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if a.Available() != 1 {
		t.Fatalf("Available = %d after free", a.Available())
	}
}

// TestFrameAllocatorSequence pins the order frames are handed out in: first
// use ascending from the partition start, reuse last-freed-first ahead of any
// never-used frame, and a clean ascending restart after Reset. The expected
// IDs are what the original allocator (a stack pre-filled with every frame,
// descending) produced for this script; the page-placement half of every
// table depends on them.
func TestFrameAllocatorSequence(t *testing.T) {
	const start, count = 100, 6
	a, err := NewFrameAllocator(0, start, count)
	if err != nil {
		t.Fatal(err)
	}
	const (
		alloc = iota
		free
		reset
		exhausted
		badFree
	)
	script := []struct {
		op    int
		frame FrameID // alloc: the expected ID; free/badFree: the argument
		err   string  // exhausted/badFree: the exact error text
	}{
		{op: alloc, frame: 100},
		{op: alloc, frame: 101},
		{op: alloc, frame: 102},
		{op: free, frame: 101},
		{op: free, frame: 100},
		{op: alloc, frame: 100},
		{op: alloc, frame: 101},
		{op: alloc, frame: 103},
		{op: free, frame: 102},
		{op: badFree, frame: 102, err: "mem: double free of frame 102"},
		{op: badFree, frame: 104, err: "mem: double free of frame 104"}, // in range, never allocated
		{op: alloc, frame: 102},
		{op: alloc, frame: 104},
		{op: alloc, frame: 105},
		{op: exhausted, err: "mem: partition [100,106) on node 0 out of frames"},
		{op: badFree, frame: 99, err: "mem: frame 99 not in partition [100,106)"},
		{op: badFree, frame: 106, err: "mem: frame 106 not in partition [100,106)"},
		{op: free, frame: 103},
		{op: free, frame: 100},
		{op: alloc, frame: 100},
		{op: alloc, frame: 103},
		{op: exhausted, err: "mem: partition [100,106) on node 0 out of frames"},
		{op: reset},
		{op: alloc, frame: 100},
		{op: alloc, frame: 101},
		{op: free, frame: 100},
		{op: reset}, // forgets the freed frame too
		{op: alloc, frame: 100},
		{op: alloc, frame: 101},
		{op: alloc, frame: 102},
	}
	for i, st := range script {
		switch st.op {
		case alloc:
			if f, err := a.Alloc(); err != nil || f != st.frame {
				t.Fatalf("step %d: Alloc = %d, %v; want %d", i, f, err, st.frame)
			}
		case free:
			if err := a.Free(st.frame); err != nil {
				t.Fatalf("step %d: Free(%d): %v", i, st.frame, err)
			}
		case reset:
			a.Reset()
		case exhausted:
			if f, err := a.Alloc(); f != NoFrame || err == nil || err.Error() != st.err {
				t.Fatalf("step %d: Alloc = %d, %v; want NoFrame, %q", i, f, err, st.err)
			}
		case badFree:
			if err := a.Free(st.frame); err == nil || err.Error() != st.err {
				t.Fatalf("step %d: Free(%d) = %v; want %q", i, st.frame, err, st.err)
			}
		}
		// Every frame of the partition is either in use or available.
		if a.InUse()+a.Available() != count {
			t.Fatalf("step %d: InUse %d + Available %d != %d", i, a.InUse(), a.Available(), count)
		}
	}
}

func TestFrameAllocatorRejectsBadFrees(t *testing.T) {
	a, _ := NewFrameAllocator(0, 10, 4)
	if err := a.Free(9); err == nil {
		t.Error("freed frame below partition")
	}
	if err := a.Free(14); err == nil {
		t.Error("freed frame above partition")
	}
	f, _ := a.Alloc()
	if err := a.Free(f); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := a.Free(f); err == nil {
		t.Error("double free accepted")
	}
}

func TestFrameAllocatorValidation(t *testing.T) {
	if _, err := NewFrameAllocator(0, 0, 0); err == nil {
		t.Error("empty partition accepted")
	}
	if _, err := NewFrameAllocator(0, -5, 4); err == nil {
		t.Error("negative start accepted")
	}
}

func TestFrameAllocatorNoDoubleAllocationProperty(t *testing.T) {
	// Property: any interleaving of allocs and frees never hands out a
	// frame twice while it is outstanding.
	f := func(ops []bool) bool {
		a, err := NewFrameAllocator(0, 0, 16)
		if err != nil {
			return false
		}
		held := make(map[FrameID]bool)
		var order []FrameID
		for _, alloc := range ops {
			if alloc {
				fr, err := a.Alloc()
				if err != nil {
					continue // exhausted is fine
				}
				if held[fr] {
					return false // double allocation!
				}
				held[fr] = true
				order = append(order, fr)
			} else if len(order) > 0 {
				fr := order[0]
				order = order[1:]
				if err := a.Free(fr); err != nil {
					return false
				}
				delete(held, fr)
			}
		}
		return a.InUse() == len(held)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableSetLookupClear(t *testing.T) {
	pt := NewPageTable()
	if _, ok := pt.Lookup(5); ok {
		t.Fatal("empty table has entry")
	}
	pt.Set(5, PTE{Frame: 42, Prot: ProtRead})
	e, ok := pt.Lookup(5)
	if !ok || e.Frame != 42 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if len(pt.entries) != 1 {
		t.Fatalf("Len = %d", len(pt.entries))
	}
	if !pt.Clear(5) {
		t.Fatal("Clear returned false for present entry")
	}
	if pt.Clear(5) {
		t.Fatal("Clear returned true for absent entry")
	}
}

func TestPageTableClearRange(t *testing.T) {
	pt := NewPageTable()
	for v := VPN(0); v < 10; v++ {
		pt.Set(v, PTE{Frame: FrameID(v), Prot: ProtRead})
	}
	pt.Clear(5)
	var buf [8]PTE
	cleared := pt.ClearRange(buf[:1], 3, 8)
	want := []PTE{{}, {Frame: 3, Prot: ProtRead}, {Frame: 4, Prot: ProtRead}, {Frame: 6, Prot: ProtRead}, {Frame: 7, Prot: ProtRead}}
	if !slices.Equal(cleared, want) {
		t.Fatalf("ClearRange = %v, want dst's element then pages 3, 4, 6, 7 in order: %v", cleared, want)
	}
	if &cleared[0] != &buf[0] {
		t.Fatal("ClearRange did not fill dst's storage")
	}
	if len(pt.entries) != 5 {
		t.Fatalf("Len = %d, want 5", len(pt.entries))
	}
	if _, ok := pt.Lookup(3); ok {
		t.Fatal("entry 3 survived ClearRange")
	}
	if _, ok := pt.Lookup(8); !ok {
		t.Fatal("entry 8 (exclusive bound) was cleared")
	}
	// With room in dst, clearing allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		for v := VPN(0); v < 4; v++ {
			pt.Set(v, PTE{Frame: FrameID(v)})
		}
		if got := pt.ClearRange(buf[:0], 0, 4); len(got) != 4 {
			t.Fatalf("cleared %d entries, want 4", len(got))
		}
	})
	if allocs != 0 {
		t.Fatalf("ClearRange into a dst with room allocates %.1f per call, want 0", allocs)
	}
}

func TestPageTableProtect(t *testing.T) {
	pt := NewPageTable()
	pt.Set(1, PTE{Frame: 1, Prot: ProtRead | ProtWrite})
	pt.Set(2, PTE{Frame: 2, Prot: ProtRead})
	pt.Set(3, PTE{Frame: 3, Prot: ProtRead | ProtWrite})
	if n := pt.Protect(0, 3, ProtRead|ProtExec); n != 1 {
		t.Fatalf("Protect changed %d entries, want 1", n)
	}
	if e, _ := pt.Lookup(1); e.Prot != ProtRead || e.Frame != 1 {
		t.Fatalf("entry 1 = %+v, want read-only on frame 1", e)
	}
	if e, _ := pt.Lookup(2); e.Prot != ProtRead {
		t.Fatalf("entry 2 gained bits: %v", e.Prot)
	}
	if e, _ := pt.Lookup(3); e.Prot != ProtRead|ProtWrite {
		t.Fatalf("entry 3 (exclusive bound) changed to %v", e.Prot)
	}
	if n := pt.Protect(0, 10, 0); n != 3 || len(pt.entries) != 3 {
		t.Fatalf("Protect to none changed %d entries, Len %d; want 3, 3", n, len(pt.entries))
	}
}

func TestPageTableDrain(t *testing.T) {
	pt := NewPageTable()
	for _, v := range []VPN{9, 2, 5} {
		pt.Set(v, PTE{Frame: FrameID(v * 10), Prot: ProtRead})
	}
	got := pt.Drain()
	if len(got) != 3 || got[0].Frame != 20 || got[1].Frame != 50 || got[2].Frame != 90 {
		t.Fatalf("Drain = %v, want frames 20, 50, 90 in page order", got)
	}
	if len(pt.entries) != 0 {
		t.Fatalf("Len = %d after Drain, want 0", len(pt.entries))
	}
	if got := pt.Drain(); len(got) != 0 {
		t.Fatalf("second Drain = %v, want nothing", got)
	}
}

func TestOpApply(t *testing.T) {
	cases := []struct {
		op           Op
		cur          int64
		next, result int64
		wrote        bool
	}{
		{Op{Kind: OpLoad}, 7, 7, 7, false},
		{Op{Kind: OpStore, Val: 3}, 7, 3, 3, true},
		{Op{Kind: OpCAS, Old: 7, Val: 9}, 7, 9, 7, true},
		{Op{Kind: OpCAS, Old: 0, Val: 9}, 7, 7, 7, false},
		{Op{Kind: OpFetchAdd, Val: 5}, 7, 12, 7, true},
	}
	for _, c := range cases {
		next, result, wrote := c.op.Apply(c.cur)
		if next != c.next || result != c.result || wrote != c.wrote {
			t.Errorf("%+v.Apply(%d) = %d, %d, %v; want %d, %d, %v", c.op, c.cur, next, result, wrote, c.next, c.result, c.wrote)
		}
	}
}
