package vm

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// failoverEnv is newEnv with the fabric's failover plane attached, the one
// switch every service reads.
func failoverEnv(t *testing.T, kernels int) *env {
	t.Helper()
	ev := newEnv(t, kernels, 64)
	ev.fabric.EnableFailover()
	return ev
}

// promote fails gid's origin `dead` over to its ring successor the way the
// thread-group layer's promotion pass does: Promote, then register the group
// snapshot's surviving replicas (here: every other kernel), bump the epoch
// and re-point the survivors.
func (ev *env) promote(t *testing.T, gid GID, dead msg.NodeID) {
	t.Helper()
	succ := ev.fabric.Successor(dead)
	ev.svcs[succ].Promote(gid, dead)
	if _, kept := ev.svcs[succ].mirrors[gid]; kept {
		t.Errorf("kernel %d still mirrors group %d after promoting it", succ, gid)
	}
	for k := range ev.svcs {
		if n := msg.NodeID(k); n != dead && n != succ {
			if err := ev.svcs[succ].RegisterReplica(gid, n); err != nil {
				t.Fatalf("RegisterReplica(%d): %v", n, err)
			}
			ev.svcs[n].Retarget(gid, succ)
		}
	}
	ev.fabric.Promote(OriginKernelOf(gid), succ)
}

// TestPromotedOriginServesMirroredState drives real transactions against an
// origin, then promotes its successor from the mirror alone and requires the
// promoted directory to be observably identical: the layout resolves, the
// dead kernel's copies are purged but their written-back values survive, and
// reads and writes continue through the promoted origin.
func TestPromotedOriginServesMirroredState(t *testing.T) {
	ev := failoverEnv(t, 4)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, err := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			t.Fatalf("Map: %v", err)
		}
		if err := sps[0].Store(p, 0, addr, 7); err != nil {
			t.Fatalf("Store at origin: %v", err)
		}
		if v, err := sps[2].Load(p, 4, addr); err != nil || v != 7 {
			t.Fatalf("Load at k2 = %d, %v; want 7", v, err)
		}
		// Kernel 0 is declared dead: its successor promotes from the mirror,
		// the fabric records the handover, and the survivors re-point.
		ev.promote(t, 1, 0)
		if got := ev.svcs[1].metrics.Counter("dir.failover.promoted").Value(); got != 1 {
			t.Fatalf("dir.failover.promoted = %d, want 1", got)
		}
		// The dead kernel shared this page; its copy is purged but the
		// directory's value survives for a kernel that never held it.
		if v, err := sps[3].Load(p, 6, addr); err != nil || v != 7 {
			t.Errorf("Load at k3 after promotion = %d, %v; want 7", v, err)
		}
		// Writes keep flowing through the promoted origin.
		if err := sps[2].Store(p, 4, addr, 9); err != nil {
			t.Fatalf("Store at k2 after promotion: %v", err)
		}
		if v, err := sps[3].Load(p, 6, addr); err != nil || v != 9 {
			t.Errorf("Load at k3 after post-promotion store = %d, %v; want 9", v, err)
		}
	})
}

// TestMirrorValuePatchVersionGuard pins the replValue arithmetic on the
// mirror: the patch updates the value without advancing the entry version
// (so the origin's own replEntry for the same transaction still applies if
// the origin survives), and a fault-plan duplicate of the patch can never
// roll a newer value backwards.
func TestMirrorValuePatchVersionGuard(t *testing.T) {
	ev := newEnv(t, 2, 64)
	s := ev.svcs[1]
	s.applyRepl(&dirRepl{Kind: replEntry, GID: 7, VPN: 100, Entry: dirState{state: pageModified, owner: 2, value: 16, version: 5}})
	s.applyRepl(&dirRepl{Kind: replValue, GID: 7, VPN: 100, Entry: dirState{value: 17, version: 6}})
	me := s.mirrors[7].entries[100]
	if me.value != 17 {
		t.Errorf("patched value = %d, want 17", me.value)
	}
	if me.version != 5 {
		t.Errorf("value patch advanced entry version to %d; must stay 5", me.version)
	}
	// The origin survived to ship the transaction's own entry snapshot: it
	// must still apply over the patch.
	s.applyRepl(&dirRepl{Kind: replEntry, GID: 7, VPN: 100, Entry: dirState{state: pageModified, owner: 3, value: 17, version: 6}})
	if me = s.mirrors[7].entries[100]; me.owner != 3 || me.version != 6 {
		t.Errorf("same-version replEntry skipped after patch: owner %d version %d", me.owner, me.version)
	}
	// A duplicated patch (version no longer newer) is a no-op.
	s.applyRepl(&dirRepl{Kind: replValue, GID: 7, VPN: 100, Entry: dirState{value: 16, version: 6}})
	if me = s.mirrors[7].entries[100]; me.value != 17 {
		t.Errorf("stale duplicate patch rolled value back to %d", me.value)
	}
}

// TestSurrenderedValueDurableBeforeAck reproduces the revocation-surrender
// window: a remote owner's Modified copy is fully invalidated, the value
// exists only in the ack — and the origin dies before shipping its own
// entry snapshot. The revokee's preserve ship must already have patched the
// mirror, so after promotion both the disclaiming ex-owner (via the noCopy
// owner-desync repair) and a third kernel read the surrendered value, not
// the mirror's stale one.
func TestSurrenderedValueDurableBeforeAck(t *testing.T) {
	ev := failoverEnv(t, 4)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, err := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			t.Fatalf("Map: %v", err)
		}
		if err := sps[2].Store(p, 4, addr, 17); err != nil {
			t.Fatalf("Store at k2: %v", err)
		}
		vpn := mem.PageOf(addr)
		mver := ev.svcs[1].mirrors[1].entries[vpn].version
		// The origin's revocation arrives at the owner, but the origin dies
		// with the ack in flight: its replEntry for this transaction never
		// ships. Deliver the invalidation directly to the owner's handler.
		ev.svcs[2].handlePageInvalidate(p, 0, &pageInval{GID: 1, VPN: vpn, Version: mver + 1})
		me := ev.svcs[1].mirrors[1].entries[vpn]
		if me.value != 17 {
			t.Fatalf("mirror value after surrender = %d, want 17 (preserved before the ack)", me.value)
		}
		if me.version != mver {
			t.Errorf("surrender patch advanced mirror version %d -> %d", mver, me.version)
		}
		ev.promote(t, 1, 0)
		// The promoted directory still records k2 as Modified owner, but k2's
		// page table lost the copy: the retry disclaims it and the repair
		// transfers the preserved value instead of re-granting nothing.
		if v, err := sps[2].Load(p, 4, addr); err != nil || v != 17 {
			t.Errorf("ex-owner re-read = %d, %v; want 17", v, err)
		}
		if v, err := sps[3].Load(p, 6, addr); err != nil || v != 17 {
			t.Errorf("third-kernel read = %d, %v; want 17", v, err)
		}
	})
}

// TestMirrorMatchesOrigin runs every layout operation with failover on, once
// from the origin and once from a replica, and after each one requires the
// successor's mirror to hold exactly the origin's layout, version, allocator
// cursors and directory. The space promoted from the mirror must then match
// the origin too, less the dead origin's copies.
func TestMirrorMatchesOrigin(t *testing.T) {
	ev := failoverEnv(t, 4)
	sps := ev.group(t, 1)
	origin := sps[0]
	const rw = mem.ProtRead | mem.ProtWrite
	page := func(a mem.Addr, i int) mem.Addr { return a + mem.Addr(i*hw.PageSize) }
	ev.run(t, func(p *sim.Proc) {
		for _, k := range []int{0, 2} {
			sp, core := sps[k], 2*k
			var area, heap mem.Addr
			steps := []struct {
				name string
				op   func() error
			}{
				{"map", func() (err error) {
					area, err = sp.Map(p, 4*hw.PageSize, rw)
					return err
				}},
				{"touch", func() error {
					for i := 0; i < 4; i++ {
						if err := sp.Store(p, core, page(area, i), int64(i+1)); err != nil {
							return err
						}
					}
					_, err := sps[3].Load(p, 6, page(area, 1))
					return err
				}},
				{"unmap a hole", func() error { return sp.Unmap(p, page(area, 64), hw.PageSize) }},
				{"unmap a range", func() error { return sp.Unmap(p, page(area, 3), hw.PageSize) }},
				{"protect", func() error { return sp.Protect(p, area, hw.PageSize, mem.ProtRead) }},
				{"brk grow", func() (err error) {
					heap, err = sp.Sbrk(p, 2*hw.PageSize)
					return err
				}},
				{"touch heap", func() error { return sp.Store(p, core, page(heap, 1), 9) }},
				{"brk shrink", func() error { _, err := sp.Sbrk(p, -hw.PageSize); return err }},
				{"brk 0", func() error { _, err := sp.Sbrk(p, 0); return err }},
			}
			for _, st := range steps {
				if err := st.op(); err != nil {
					t.Fatalf("k%d %s: %v", k, st.name, err)
				}
				mir := ev.svcs[1].mirrors[1]
				if err := layoutDiff(&mir.layout, &origin.layout); err != nil {
					t.Fatalf("after k%d %s, mirror: %v", k, st.name, err)
				}
				if err := dirDiff(origin, mir.entries, func(de *dirEntry) {}); err != nil {
					t.Fatalf("after k%d %s, mirror: %v", k, st.name, err)
				}
			}
		}
		ev.promote(t, 1, 0)
		promoted := ev.svcs[1].spaces[1]
		if err := layoutDiff(&promoted.layout, &origin.layout); err != nil {
			t.Errorf("promoted: %v", err)
		}
		promotedDir := make(map[mem.VPN]dirState, len(promoted.dir))
		for vpn, de := range promoted.dir {
			promotedDir[vpn] = de.dirState
		}
		// Promotion takes a new entry version and purges the dead kernel.
		if err := dirDiff(origin, promotedDir, func(de *dirEntry) { de.version++; de.loseCopies(0) }); err != nil {
			t.Errorf("promoted: %v", err)
		}
	})
}

// layoutDiff reports how a copy's layout — areas, version and allocator
// cursors — differs from the origin's.
func layoutDiff(got, origin *Layout) error {
	if !slices.Equal(got.vmas.areas, origin.vmas.areas) {
		return fmt.Errorf("layout %v, origin %v", &got.vmas, &origin.vmas)
	}
	if got.version != origin.version || got.nextMap != origin.nextMap || got.brk != origin.brk {
		return fmt.Errorf("version %d nextMap %#x brk %#x, origin %d %#x %#x",
			got.version, uint64(got.nextMap), uint64(got.brk), origin.version, uint64(origin.nextMap), uint64(origin.brk))
	}
	return nil
}

// dirDiff reports how a copy's directory differs from the origin's, each
// origin entry first passed through want.
func dirDiff(origin *Space, entries map[mem.VPN]dirState, want func(de *dirEntry)) error {
	if len(entries) != len(origin.dir) {
		return fmt.Errorf("%d directory entries, origin %d", len(entries), len(origin.dir))
	}
	for _, vpn := range slices.Sorted(maps.Keys(origin.dir)) {
		exp := &dirEntry{dirState: origin.dir[vpn].dirState}
		want(exp)
		if got, ok := entries[vpn]; !ok || !reflect.DeepEqual(got, exp.dirState) {
			return fmt.Errorf("page %#x: %+v, want %+v", uint64(vpn.Base()), got, exp.dirState)
		}
	}
	return nil
}
