package vm

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestFaultSelfHealsDirectoryDesync pins the NoCopy repair path: when the
// origin's directory lists a replica as a sharer of a page the replica never
// installed (an abandoned prefetch or a failed install left the directory
// ahead of the page table), a demand fault must disclaim the phantom copy
// and settle with a real transfer instead of redrawing a have-copy grant
// until the retry bound trips.
func TestFaultSelfHealsDirectoryDesync(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, err := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			t.Fatalf("Map: %v", err)
		}
		if _, err := sps[1].Load(p, 2, addr); err != nil {
			t.Fatalf("first Load: %v", err)
		}
		// Strip the replica's copy behind the directory's back, exactly the
		// state a failed install leaves: origin says sharer, page table says
		// nothing.
		vpn := mem.PageOf(addr)
		pte, ok := sps[1].pt.Lookup(vpn)
		if !ok {
			t.Fatal("replica has no PTE after Load")
		}
		sps[1].pt.Clear(vpn)
		ev.allocs[1].Free(pte.Frame)

		if v, err := sps[1].Load(p, 2, addr); err != nil || v != 0 {
			t.Fatalf("Load after desync = %d, %v; want 0, nil", v, err)
		}
	})
	if got := ev.svcs[1].metrics.Counter("vm.fault.desync").Value(); got == 0 {
		t.Error("replica never observed the have-copy miss (vm.fault.desync = 0)")
	}
	if got := ev.svcs[0].metrics.Counter("vm.dir.desync_repaired").Value(); got == 0 {
		t.Error("origin never repaired the stale sharer entry (vm.dir.desync_repaired = 0)")
	}
}

// TestPrefetchStopsAtHole pins the batch-contiguity rule: the origin records
// a sharer for every page of a (VPN, Count) batch grant, so a prefetch must
// not span a page it will not install. With page 1 already resident, a
// prefetch of pages 0..3 may install only page 0 — never pages 2 and 3
// across the hole.
func TestPrefetchStopsAtHole(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, err := sps[0].Map(p, 4*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			t.Fatalf("Map: %v", err)
		}
		if _, err := sps[1].Load(p, 2, addr+hw.PageSize); err != nil {
			t.Fatalf("Load: %v", err)
		}
		n, err := sps[1].Prefetch(p, 2, addr, 4)
		if err != nil {
			t.Fatalf("Prefetch: %v", err)
		}
		if n != 1 {
			t.Fatalf("Prefetch installed %d pages, want 1 (stop at the resident hole)", n)
		}
		for i, want := range []bool{true, true, false, false} {
			if _, ok := sps[1].pt.Lookup(mem.PageOf(addr) + mem.VPN(i)); ok != want {
				t.Errorf("page %d resident = %v, want %v", i, ok, want)
			}
		}
	})
}
