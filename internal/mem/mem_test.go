package mem

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

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

// TestFrameAllocatorBookkeeping drives random allocs, frees, bad frees and
// resets against a set of held frames: InUse and Available always agree
// with it, a frame not held (freed, never handed out, or held before a
// Reset) is a double free, one outside the partition is foreign, and the
// link slice never outgrows the watermark.
func TestFrameAllocatorBookkeeping(t *testing.T) {
	const start, count = 1000, 32
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewFrameAllocator(0, start, count)
		if err != nil {
			t.Fatal(err)
		}
		held := make(map[FrameID]bool)
		for step := 0; step < 500; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				f, err := a.Alloc()
				if len(held) == count {
					if err == nil {
						t.Fatalf("seed %d step %d: Alloc on a full partition = %d", seed, step, f)
					}
					break
				}
				if err != nil || f < start || f >= start+count || held[f] {
					t.Fatalf("seed %d step %d: Alloc = %d, %v with %d held", seed, step, f, err, len(held))
				}
				held[f] = true
			case op < 16:
				f := FrameID(start + rng.Intn(count))
				err := a.Free(f)
				if held[f] != (err == nil) {
					t.Fatalf("seed %d step %d: Free(%d) = %v, held %v", seed, step, f, err, held[f])
				}
				if err != nil && err.Error() != fmt.Sprintf("mem: double free of frame %d", f) {
					t.Fatalf("seed %d step %d: Free(%d) = %v, want a double free", seed, step, f, err)
				}
				delete(held, f)
			case op < 19:
				f := FrameID(start - 1 - rng.Intn(4))
				if rng.Intn(2) == 0 {
					f = FrameID(start + count + rng.Intn(4))
				}
				want := fmt.Sprintf("mem: frame %d not in partition [%d,%d)", f, start, start+count)
				if err := a.Free(f); err == nil || err.Error() != want {
					t.Fatalf("seed %d step %d: Free(%d) = %v, want %q", seed, step, f, err, want)
				}
			default:
				a.Reset()
				clear(held)
			}
			if a.InUse() != len(held) || a.Available() != count-len(held) {
				t.Fatalf("seed %d step %d: InUse %d, Available %d with %d held", seed, step, a.InUse(), a.Available(), len(held))
			}
			if len(a.link) != a.next {
				t.Fatalf("seed %d step %d: %d link slots past a watermark of %d", seed, step, len(a.link), a.next)
			}
		}
	}
}

func TestFrameAllocatorValidation(t *testing.T) {
	if _, err := NewFrameAllocator(0, 0, 0); err == nil {
		t.Error("empty partition accepted")
	}
	if _, err := NewFrameAllocator(0, -5, 4); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := NewFrameAllocator(0, 0, math.MaxInt32+1); err == nil {
		t.Error("partition past the free stack's int32 links accepted")
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

// entriesIn counts the pages of [lo, hi) that have an entry.
func entriesIn(pt *PageTable, lo, hi VPN) int {
	n := 0
	for v := lo; v < hi; v++ {
		if _, ok := pt.Lookup(v); ok {
			n++
		}
	}
	return n
}

func TestPageTableSetLookupClear(t *testing.T) {
	var pt PageTable
	if _, ok := pt.Lookup(5); ok {
		t.Fatal("empty table has entry")
	}
	pt.Set(5, PTE{Frame: 42, Word: -7, Prot: ProtRead, HomeNode: 1})
	e, ok := pt.Lookup(5)
	if !ok || e.Frame != 42 || e.Word != -7 || e.HomeNode != 1 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if n := entriesIn(&pt, 0, 10); n != 1 {
		t.Fatalf("%d entries, want 1", n)
	}
	if !pt.Clear(5) {
		t.Fatal("Clear returned false for present entry")
	}
	if pt.Clear(5) {
		t.Fatal("Clear returned true for absent entry")
	}
}

func TestPageTableClearRange(t *testing.T) {
	var pt PageTable
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
	if n := entriesIn(&pt, 0, 10); n != 5 {
		t.Fatalf("%d entries, want 5", n)
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
	var pt PageTable
	pt.Set(1, PTE{Frame: 1, Word: 11, Prot: ProtRead | ProtWrite})
	pt.Set(2, PTE{Frame: 2, Prot: ProtRead})
	pt.Set(3, PTE{Frame: 3, Prot: ProtRead | ProtWrite})
	if n := pt.Protect(0, 3, ProtRead|ProtExec); n != 1 {
		t.Fatalf("Protect changed %d entries, want 1", n)
	}
	if e, _ := pt.Lookup(1); e.Prot != ProtRead || e.Frame != 1 || e.Word != 11 {
		t.Fatalf("entry 1 = %+v, want read-only on frame 1 holding 11", e)
	}
	if e, _ := pt.Lookup(2); e.Prot != ProtRead {
		t.Fatalf("entry 2 gained bits: %v", e.Prot)
	}
	if e, _ := pt.Lookup(3); e.Prot != ProtRead|ProtWrite {
		t.Fatalf("entry 3 (exclusive bound) changed to %v", e.Prot)
	}
	if n := pt.Protect(0, 10, 0); n != 3 || entriesIn(&pt, 0, 10) != 3 {
		t.Fatalf("Protect to none changed %d entries, %d left; want 3, 3", n, entriesIn(&pt, 0, 10))
	}
}

// mapping is one entry together with its page, as Drain yields them.
type mapping struct {
	Page VPN
	PTE
}

// drain empties pt through Drain and returns what the walk yielded.
func drain(pt *PageTable) []mapping {
	var out []mapping
	for v, e := range pt.Drain {
		out = append(out, mapping{v, e})
	}
	return out
}

func TestPageTableDrain(t *testing.T) {
	var pt PageTable
	for _, v := range []VPN{9, 2, 5} {
		pt.Set(v, PTE{Frame: FrameID(v * 10), Word: int64(v), Prot: ProtRead})
	}
	got := drain(&pt)
	want := []mapping{{2, PTE{Frame: 20, Word: 2, Prot: ProtRead}}, {5, PTE{Frame: 50, Word: 5, Prot: ProtRead}}, {9, PTE{Frame: 90, Word: 9, Prot: ProtRead}}}
	if !slices.Equal(got, want) {
		t.Fatalf("Drain = %v, want pages 2, 5, 9 in order: %v", got, want)
	}
	if n := entriesIn(&pt, 0, 10); n != 0 {
		t.Fatalf("%d entries after Drain, want 0", n)
	}
	if got := drain(&pt); len(got) != 0 {
		t.Fatalf("second Drain = %v, want nothing", got)
	}
	// A teardown walks the detached leaves in place: it allocates nothing.
	// AllocsPerRun calls the function 101 times, each on a filled table.
	tables := make([]PageTable, 101)
	for i := range tables {
		for _, v := range []VPN{40, 9, 2, 5} {
			tables[i].Set(v, PTE{Frame: FrameID(v)})
		}
	}
	round := 0
	allocs := testing.AllocsPerRun(100, func() {
		var pages [4]VPN
		n := 0
		for v, e := range tables[round].Drain {
			if n < len(pages) && e.Frame == FrameID(v) {
				pages[n] = v
			}
			n++
		}
		if n != 4 || pages != [4]VPN{2, 5, 9, 40} {
			t.Fatalf("Drain yielded %d mappings %v, want pages 2, 5, 9, 40", n, pages)
		}
		round++
	})
	if allocs != 0 {
		t.Fatalf("Drain allocates %.1f per call, want 0", allocs)
	}
}

// TestPageTableDrainWhileSetting: a teardown's loop body may block, and
// another process may install pages meanwhile. Sets and unmaps into the
// table being drained land in fresh leaves; the walk still yields exactly
// the entries the table held when it began.
func TestPageTableDrainWhileSetting(t *testing.T) {
	var pt PageTable
	var want []mapping
	for _, v := range []VPN{3, 17, 18, 31, 40, 1 << 32} {
		e := PTE{Frame: FrameID(v), Word: int64(v), Prot: ProtRead}
		pt.Set(v, e)
		want = append(want, mapping{v, e})
	}
	var got []mapping
	for v, e := range pt.Drain {
		got = append(got, mapping{v, e})
		pt.Set(v, PTE{Frame: -2, Prot: ProtWrite})
		pt.Set(v+1, PTE{Frame: -3})
		pt.ClearRange(nil, 0, v) // frees the new leaves below v
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Drain while setting yielded %v, want %v", got, want)
	}
	// What the body left: pages 1<<32 and 1<<32+1, nothing below.
	if got := drain(&pt); len(got) != 2 || got[0].Page != 1<<32 || got[0].Frame != -2 || got[1].Page != 1<<32+1 {
		t.Fatalf("table after the walk = %v, want the body's two entries at 1<<32", got)
	}
}

// TestEmptyPageTableAllocatesNothing pins the cost of a table that never
// gets an entry (most of a run's tables): reading, clearing, protecting and
// draining it allocate nothing.
func TestEmptyPageTableAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		pt := new(PageTable)
		if _, ok := pt.Lookup(1); ok {
			t.Fatal("empty table has entry")
		}
		if pt.Clear(1) || len(pt.ClearRange(nil, 0, 64)) != 0 || pt.Protect(0, 64, 0) != 0 {
			t.Fatal("empty table reported entries")
		}
		for range pt.Drain {
			t.Fatal("empty table drained an entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("an empty table allocates %.1f per use, want 0", allocs)
	}
}

// TestRisingMapLoopAllocatesNothing: a process that maps, touches and
// unmaps 4 pages at ever-rising addresses (vm.Layout bumps its next mapping
// address) reuses the leaf each unmap frees, so once warm the loop
// allocates nothing.
func TestRisingMapLoopAllocatesNothing(t *testing.T) {
	var pt PageTable
	var buf [4]PTE
	next := VPN(1 << 32)
	loop := func() {
		for v := next; v < next+4; v++ {
			pt.Set(v, PTE{Frame: FrameID(v), Prot: ProtRead | ProtWrite})
		}
		if got := pt.ClearRange(buf[:0], next, next+4); len(got) != 4 || got[0].Frame != FrameID(next) {
			t.Fatalf("ClearRange at %d = %v, want its 4 entries", next, got)
		}
		next += 4
	}
	loop()
	if allocs := testing.AllocsPerRun(100, loop); allocs != 0 {
		t.Fatalf("a warm map/unmap loop at rising addresses allocates %.2f per round, want 0", allocs)
	}
}

// checkShape verifies the radix's invariants: the top level strictly
// ascending, the hint one of its slots or empty, and the spare, if any,
// empty and not in it.
func checkShape(t *testing.T, pt *PageTable, where string) {
	t.Helper()
	if pt.hint.l != nil && !slices.Contains(pt.top, pt.hint) {
		t.Fatalf("%s: hint %+v names no slot of the top level", where, pt.hint)
	}
	for i, s := range pt.top {
		if i > 0 && pt.top[i-1].key >= s.key {
			t.Fatalf("%s: top level out of order at %d: %d after %d", where, i, s.key, pt.top[i-1].key)
		}
		if s.l == pt.spare {
			t.Fatalf("%s: the spare leaf is also slot %d", where, i)
		}
	}
	if pt.spare != nil && pt.spare.present != 0 {
		t.Fatalf("%s: spare leaf holds entries %016b", where, pt.spare.present)
	}
}

// TestPageTableModel checks random sequences of Set, Clear, ClearRange,
// Protect and Drain against a plain map, the table's specification. Pages
// fall in two distant regions, a heap near page 1<<28 and an mmap area
// near 1<<32, each spanning several leaves from mid-leaf; range bounds fall
// anywhere in a leaf, and now and then a range spans both regions. Set
// overwrites the word as a write would, Protect and a write-bit downgrade
// (Lookup, strip, Set) must leave it alone.
func TestPageTableModel(t *testing.T) {
	regions := [2]VPN{1<<28 - 5, 1<<32 + 7}
	const span = 72 // pages per region: five leaves or six
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pt PageTable
		model := make(map[VPN]PTE)
		page := func() VPN { return regions[rng.Intn(2)] + VPN(rng.Intn(span)) }
		// inRange returns the model's pages in [lo, hi), ascending.
		inRange := func(lo, hi VPN) []VPN {
			var out []VPN
			for _, u := range slices.Sorted(maps.Keys(model)) {
				if lo <= u && u < hi {
					out = append(out, u)
				}
			}
			return out
		}
		for step := 0; step < 400; step++ {
			v := page()
			lo, hi := v, v+VPN(rng.Intn(40))
			if rng.Intn(8) == 0 && lo < regions[1] {
				hi = regions[1] + VPN(rng.Intn(span))
			}
			switch op := rng.Intn(20); {
			case op < 8:
				e := PTE{Frame: FrameID(rng.Intn(1000)), Word: rng.Int63n(100) - 50, Prot: Prot(rng.Intn(8)), HomeNode: int32(rng.Intn(4))}
				e.SetWriter(rng.Intn(64))
				pt.Set(v, e)
				model[v] = e
			case op < 11: // downgrade to read-only through the entry
				if e, ok := pt.Lookup(v); ok {
					e.Prot &^= ProtWrite
					pt.Set(v, e)
				}
				if e, ok := model[v]; ok {
					e.Prot &^= ProtWrite
					model[v] = e
				}
			case op < 13:
				_, want := model[v]
				if got := pt.Clear(v); got != want {
					t.Fatalf("seed %d step %d: Clear(%d) = %v, want %v", seed, step, v, got, want)
				}
				delete(model, v)
			case op < 16:
				var want []PTE
				for _, u := range inRange(lo, hi) {
					want = append(want, model[u])
					delete(model, u)
				}
				if got := pt.ClearRange(nil, lo, hi); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: ClearRange(%d, %d) = %v, want %v", seed, step, lo, hi, got, want)
				}
			case op < 19:
				prot := Prot(rng.Intn(8))
				want := 0
				for _, u := range inRange(lo, hi) {
					if e := model[u]; e.Prot&prot != e.Prot {
						e.Prot &= prot
						model[u] = e
						want++
					}
				}
				if got := pt.Protect(lo, hi, prot); got != want {
					t.Fatalf("seed %d step %d: Protect(%d, %d, %v) = %d, want %d", seed, step, lo, hi, prot, got, want)
				}
			default:
				var want []mapping
				for _, u := range inRange(0, ^VPN(0)) {
					want = append(want, mapping{Page: u, PTE: model[u]})
				}
				clear(model)
				if got := drain(&pt); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Drain = %v, want %v", seed, step, got, want)
				}
			}
			checkShape(t, &pt, fmt.Sprintf("seed %d step %d", seed, step))
			for _, base := range regions {
				for u := base - leafPages; u < base+span+leafPages; u++ {
					got, ok := pt.Lookup(u)
					want, wantOK := model[u]
					if ok != wantOK || got != want {
						t.Fatalf("seed %d step %d: Lookup(%d) = %+v, %v; want %+v, %v", seed, step, u, got, ok, want, wantOK)
					}
				}
			}
		}
	}
}

// BenchmarkPageTableLookup reads a table of 4, 64 and 4 096 resident pages
// in a scattered order (a full-period step through the pages; n is a power
// of two), so the larger tables mostly miss the one-slot hint.
func BenchmarkPageTableLookup(b *testing.B) {
	for _, n := range []int{4, 64, 4096} {
		b.Run(fmt.Sprintf("pages=%d", n), func(b *testing.B) {
			var pt PageTable
			const base = VPN(1 << 32)
			for i := 0; i < n; i++ {
				pt.Set(base+VPN(i), PTE{Frame: FrameID(i), Prot: ProtRead})
			}
			var sum FrameID
			i := 0
			b.ResetTimer()
			for range b.N {
				e, _ := pt.Lookup(base + VPN(i))
				sum += e.Frame
				i = (5*i + 1) & (n - 1)
			}
			if sum < 0 {
				b.Fatal("negative frame sum")
			}
		})
	}
}

func TestPTEWriter(t *testing.T) {
	var e PTE
	if c, ok := e.LastWriter(); ok {
		t.Fatalf("fresh entry has writer %d", c)
	}
	for _, core := range []int{0, 1, 63, math.MaxUint16 - 1} {
		e.SetWriter(core)
		if c, ok := e.LastWriter(); !ok || c != core {
			t.Fatalf("SetWriter(%d): LastWriter = %d, %v", core, c, ok)
		}
	}
	for _, core := range []int{-1, math.MaxUint16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetWriter(%d) did not panic", core)
				}
			}()
			e.SetWriter(core)
		}()
	}
}

// TestPTESize pins the entry at 24 bytes: the word and the writer fit beside
// the frame without growing the table.
func TestPTESize(t *testing.T) {
	if got := unsafe.Sizeof(PTE{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(PTE{}) = %d, want 24", got)
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
