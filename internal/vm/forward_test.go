package vm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// enableForwarding turns the D5 mode on for every non-origin kernel.
func enableForwarding(ev *env) {
	for k := 1; k < len(ev.svcs); k++ {
		ev.svcs[k].SetWriteForwarding(true)
	}
}

func TestWriteForwardingBasicCoherence(t *testing.T) {
	ev := newEnv(t, 3, 64)
	sps := ev.group(t, 1)
	enableForwarding(ev)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		// Remote write forwards to the origin...
		if err := sps[1].Store(p, 2, addr, 7); err != nil {
			t.Fatalf("forwarded Store: %v", err)
		}
		// ...and is visible everywhere.
		for k := 0; k < 3; k++ {
			if v, err := sps[k].Load(p, 2*k, addr); err != nil || v != 7 {
				t.Fatalf("kernel %d Load = %d, %v; want 7", k, v, err)
			}
		}
		// The writing kernel must NOT have taken ownership: the origin
		// still writes locally without any invalidation round trip.
		before := ev.svcs[0].metrics.Counter("vm.inval.sent").Value()
		if err := sps[0].Store(p, 0, addr, 8); err != nil {
			t.Fatalf("origin Store: %v", err)
		}
		_ = before // sharers exist from the loads; invals may legitimately occur
		if got := ev.svcs[1].metrics.Counter("vm.write.forwarded").Value(); got != 1 {
			t.Fatalf("forwarded writes = %d, want 1", got)
		}
	})
}

func TestWriteForwardingAtomicsAcrossKernels(t *testing.T) {
	ev := newEnv(t, 4, 64)
	sps := ev.group(t, 1)
	enableForwarding(ev)
	wg := sim.NewWaitGroup()
	wg.Add(4)
	// seen counts each value a FetchAdd returned: the forwarded reply's value
	// is the only outcome a remote kernel gets, so every prior value 0..99
	// must come back exactly once.
	seen := make(map[int64]int)
	ev.e.Spawn("driver", func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for k := 0; k < 4; k++ {
			k := k
			ev.e.Spawn("adder", func(ap *sim.Proc) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					prior, err := sps[k].FetchAdd(ap, 2*k, addr, 1)
					if err != nil {
						t.Errorf("kernel %d FetchAdd: %v", k, err)
						return
					}
					seen[prior]++
				}
			})
		}
		wg.Wait(p)
		if v, _ := sps[0].Load(p, 0, addr); v != 100 {
			t.Errorf("counter = %d, want 100", v)
		}
		for v := int64(0); v < 100; v++ {
			if seen[v] != 1 {
				t.Errorf("FetchAdd returned %d %d times, want once", v, seen[v])
			}
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWriteForwardingCASSemantics(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	enableForwarding(ev)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		swapped, err := sps[1].CompareAndSwap(p, 2, addr, 0, 5)
		if err != nil || !swapped {
			t.Fatalf("forwarded CAS(0->5) = %v, %v", swapped, err)
		}
		swapped, err = sps[1].CompareAndSwap(p, 2, addr, 0, 9)
		if err != nil || swapped {
			t.Fatalf("forwarded CAS with wrong old = %v, %v; want false", swapped, err)
		}
		if v, _ := sps[0].Load(p, 0, addr); v != 5 {
			t.Fatalf("value = %d, want 5", v)
		}
	})
}

// TestForwardedCASReportsItsOwnOutcome serves three forwarded writes at the
// origin whose executions overlap: A's CAS(0->1) fails on the word's 1, C
// stores 0 while A is still in flight, and B's CAS(0->1) then succeeds. Each
// reply must carry its own CAS's outcome, not one another request left
// behind at the origin.
func TestForwardedCASReportsItsOwnOutcome(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	origin := ev.svcs[0]
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err := sps[0].Store(p, 0, addr, 1); err != nil {
			t.Fatalf("Store: %v", err)
		}
		forward := func(fp *sim.Proc, op mem.Op) pageGrant {
			return origin.handlePageFetch(fp, 1, &pageFetchReq{GID: 1, VPN: mem.PageOf(addr), Addr: addr, Op: op})
		}
		cas := mem.Op{Kind: mem.OpCAS, Old: 0, Val: 1}
		var a, b pageGrant
		wg := sim.NewWaitGroup()
		wg.Add(3)
		ev.e.Spawn("A", func(fp *sim.Proc) {
			defer wg.Done()
			a = forward(fp, cas)
		})
		ev.e.Spawn("C", func(fp *sim.Proc) {
			defer wg.Done()
			fp.Sleep(time.Nanosecond)
			forward(fp, mem.Op{Kind: mem.OpStore, Val: 0})
		})
		ev.e.Spawn("B", func(fp *sim.Proc) {
			defer wg.Done()
			fp.Sleep(2 * time.Nanosecond)
			b = forward(fp, cas)
		})
		wg.Wait(p)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("forwarded CAS errors: A %v, B %v", a.Err, b.Err)
		}
		aWon, bWon := a.Value == cas.Old, b.Value == cas.Old
		if aWon || !bWon {
			t.Fatalf("CAS outcomes A=%v B=%v, want A=false B=true", aWon, bWon)
		}
		if v, _ := sps[0].Load(p, 0, addr); v != 1 {
			t.Fatalf("word = %d, want 1", v)
		}
	})
}

// TestWriteForwardingErrors checks that a forwarded write's failure reaches
// the requester as the error the origin decided: its sentinel intact and its
// text written once. Each kernel has one frame.
func TestWriteForwardingErrors(t *testing.T) {
	ev := newEnv(t, 2, 1)
	sps := ev.group(t, 1)
	enableForwarding(ev)
	ev.run(t, func(p *sim.Proc) {
		err := sps[1].Store(p, 2, 0xdead000, 1)
		if !errors.Is(err, ErrSegv) {
			t.Fatalf("forwarded store to unmapped = %v, want ErrSegv", err)
		}
		roAddr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead)
		err = sps[1].Store(p, 2, roAddr, 1)
		if !errors.Is(err, ErrAccess) {
			t.Fatalf("forwarded store to read-only = %v, want ErrAccess", err)
		}
		if n := strings.Count(err.Error(), ErrAccess.Error()); n != 1 {
			t.Fatalf("forwarded store to read-only = %q: sentinel text %d times, want once", err, n)
		}
		// The origin's one frame goes to the first page; the forwarded store
		// to the second finds none left.
		rwAddr, _ := sps[0].Map(p, 2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err := sps[0].Store(p, 0, rwAddr, 1); err != nil {
			t.Fatalf("origin store: %v", err)
		}
		if err := sps[1].Store(p, 2, rwAddr+hw.PageSize, 1); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("forwarded store with no frame left = %v, want ErrNoSpace", err)
		}
	})
}

func TestWriteForwardingReadsStillReplicate(t *testing.T) {
	// Reads keep using MSI shared grants in forwarding mode: the second
	// read from the same kernel must be a local hit.
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	enableForwarding(ev)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		_ = sps[0].Store(p, 0, addr, 3)
		if v, err := sps[1].Load(p, 2, addr); err != nil || v != 3 {
			t.Fatalf("first read = %d, %v", v, err)
		}
		faultsBefore := ev.svcs[1].metrics.Counter("vm.fault.remote").Value()
		if v, _ := sps[1].Load(p, 2, addr); v != 3 {
			t.Fatalf("second read = %d", v)
		}
		if got := ev.svcs[1].metrics.Counter("vm.fault.remote").Value(); got != faultsBefore {
			t.Fatalf("second read faulted remotely (%d -> %d)", faultsBefore, got)
		}
	})
}

func TestPrefetchBatchesOneRoundTrip(t *testing.T) {
	ev := newEnv(t, 2, 128)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, 16*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for i := 0; i < 16; i++ {
			_ = sps[0].Store(p, 0, addr+mem.Addr(i*hw.PageSize), int64(100+i))
		}
		rpcsBefore := ev.fabric.Metrics().Counter("msg.rpc").Value()
		n, err := sps[1].Prefetch(p, 2, addr, 16)
		if err != nil {
			t.Fatalf("Prefetch: %v", err)
		}
		if n != 16 {
			t.Fatalf("installed %d pages, want 16", n)
		}
		rpcs := ev.fabric.Metrics().Counter("msg.rpc").Value() - rpcsBefore
		if rpcs > 17 {
			// One batch fetch plus the owner revocations at the origin.
			t.Fatalf("prefetch used %d RPCs", rpcs)
		}
		// All pages now local read copies: loads take no remote faults.
		faultsBefore := ev.svcs[1].metrics.Counter("vm.fault.remote").Value()
		for i := 0; i < 16; i++ {
			v, err := sps[1].Load(p, 2, addr+mem.Addr(i*hw.PageSize))
			if err != nil || v != int64(100+i) {
				t.Fatalf("Load %d = %d, %v", i, v, err)
			}
		}
		if got := ev.svcs[1].metrics.Counter("vm.fault.remote").Value(); got != faultsBefore {
			t.Fatalf("loads after prefetch still faulted remotely")
		}
	})
}

func TestPrefetchFasterThanDemandFaulting(t *testing.T) {
	elapsed := func(prefetch bool) sim.Time {
		ev := newEnv(t, 2, 128)
		sps := ev.group(t, 1)
		var done sim.Time
		ev.run(t, func(p *sim.Proc) {
			addr, _ := sps[0].Map(p, 32*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			for i := 0; i < 32; i++ {
				_ = sps[0].Store(p, 0, addr+mem.Addr(i*hw.PageSize), 1)
			}
			start := p.Now()
			if prefetch {
				if _, err := sps[1].Prefetch(p, 2, addr, 32); err != nil {
					t.Fatalf("Prefetch: %v", err)
				}
			}
			for i := 0; i < 32; i++ {
				if _, err := sps[1].Load(p, 2, addr+mem.Addr(i*hw.PageSize)); err != nil {
					t.Fatalf("Load: %v", err)
				}
			}
			done = sim.Time(p.Now().Sub(start))
		})
		return done
	}
	demand, batched := elapsed(false), elapsed(true)
	if batched >= demand {
		t.Fatalf("prefetch (%v) not faster than demand faulting (%v)", batched, demand)
	}
}

func TestPrefetchSkipsResidentAndUnmapped(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, 2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		// Make page 0 already resident at the replica.
		_, _ = sps[1].Load(p, 2, addr)
		// Prefetch across the mapping edge: page 1 granted, pages 2-3
		// unmapped and skipped.
		n, err := sps[1].Prefetch(p, 2, addr, 4)
		if err != nil {
			t.Fatalf("Prefetch: %v", err)
		}
		if n != 1 {
			t.Fatalf("installed %d, want 1 (page 0 resident, 2-3 unmapped)", n)
		}
		if n, err := sps[1].Prefetch(p, 2, addr, 0); err != nil || n != 0 {
			t.Fatalf("zero-page prefetch = %d, %v", n, err)
		}
	})
}
