package vm

import (
	"errors"
	"math"
	"testing"
	"time"
	"unsafe"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestDirEntrySize pins a directory entry in Go's 64-byte size class: every
// first-touched page allocates one, so its state packs to 24 bytes (a 32-bit
// version, a one-byte owner) beside a 40-byte mutex, and nothing else lives
// in it.
func TestDirEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(dirState{}); got > 24 {
		t.Errorf("unsafe.Sizeof(dirState{}) = %d, want <= 24", got)
	}
	if got := unsafe.Sizeof(dirEntry{}); got > 64 {
		t.Errorf("unsafe.Sizeof(dirEntry{}) = %d, want <= 64", got)
	}
}

// TestDirVersionOverflowPanics: a directory version is 32 bits, and a page
// that exhausts them stops rather than wrapping, which would let a stale
// grant pass the replicas' version order.
func TestDirVersionOverflowPanics(t *testing.T) {
	st := dirState{version: math.MaxUint32 - 1}
	if v := st.nextVersion(); v != math.MaxUint32 {
		t.Fatalf("nextVersion = %d, want %d", v, uint64(math.MaxUint32))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nextVersion past 32 bits did not panic")
		}
	}()
	st.nextVersion()
}

// simpleFrames adapts a raw allocator to FrameSource without lock costs.
type simpleFrames struct{ a *mem.FrameAllocator }

func (f *simpleFrames) AllocFrame(p *sim.Proc) (mem.FrameID, int, error) {
	fr, err := f.a.Alloc()
	return fr, f.a.Node(), err
}

func (f *simpleFrames) FreeFrame(p *sim.Proc, fr mem.FrameID) {
	if err := f.a.Free(fr); err != nil {
		panic(err)
	}
}

// env is a 4-kernel VM test environment over a dual-socket 8-core machine.
type env struct {
	e      sim.Engine
	fabric *msg.Fabric
	svcs   []*Service
	allocs []*mem.FrameAllocator
}

func newEnv(t *testing.T, kernels int, framesPerKernel int, opts ...sim.Option) *env {
	t.Helper()
	e := sim.NewEngine(append([]sim.Option{sim.WithSeed(1)}, opts...)...)
	t.Cleanup(e.Close)
	machine, err := hw.NewMachine(hw.Topology{Cores: 8, NUMANodes: 2}, hw.DefaultCostModel())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	cores := []int{0, 2, 4, 6}[:kernels]
	fabric, err := msg.NewFabric(e, machine, kernels, cores, msg.DefaultConfig(), stats.NewRegistry())
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	ev := &env{e: e, fabric: fabric}
	for k := 0; k < kernels; k++ {
		alloc, err := mem.NewFrameAllocator(machine.Topology.NodeOf(cores[k]), int64(k)<<20, framesPerKernel)
		if err != nil {
			t.Fatalf("NewFrameAllocator: %v", err)
		}
		ev.allocs = append(ev.allocs, alloc)
		ev.svcs = append(ev.svcs, NewService(e, machine, fabric, msg.NodeID(k), &simpleFrames{a: alloc}, 2, stats.NewRegistry()))
	}
	return ev
}

// group creates a distributed AS with origin kernel 0 and replicas on all
// other kernels, returning the per-kernel spaces.
func (ev *env) group(t *testing.T, gid GID) []*Space {
	t.Helper()
	spaces := make([]*Space, len(ev.svcs))
	sp, err := ev.svcs[0].Create(gid)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	spaces[0] = sp
	for k := 1; k < len(ev.svcs); k++ {
		r, err := ev.svcs[k].Attach(gid, 0)
		if err != nil {
			t.Fatalf("Attach(%d): %v", k, err)
		}
		if err := ev.svcs[0].RegisterReplica(gid, msg.NodeID(k)); err != nil {
			t.Fatalf("RegisterReplica(%d): %v", k, err)
		}
		spaces[k] = r
	}
	return spaces
}

// run executes fn as a simulation process and drains the engine.
func (ev *env) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	ev.e.Spawn("test", fn)
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMapLoadStoreAtOrigin(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, err := sps[0].Map(p, 2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			t.Errorf("Map: %v", err)
			return
		}
		if v, err := sps[0].Load(p, 0, addr); err != nil || v != 0 {
			t.Errorf("initial Load = %d, %v; want 0, nil", v, err)
		}
		if err := sps[0].Store(p, 0, addr, 42); err != nil {
			t.Errorf("Store: %v", err)
		}
		if v, _ := sps[0].Load(p, 0, addr); v != 42 {
			t.Errorf("Load after Store = %d, want 42", v)
		}
		// Second page is independent.
		if v, _ := sps[0].Load(p, 0, addr+hw.PageSize); v != 0 {
			t.Errorf("other page = %d, want 0", v)
		}
	})
}

func TestSegvOnUnmapped(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		if _, err := sps[0].Load(p, 0, 0xdead000); !errors.Is(err, ErrSegv) {
			t.Errorf("origin load of unmapped = %v, want ErrSegv", err)
		}
		if _, err := sps[1].Load(p, 2, 0xdead000); !errors.Is(err, ErrSegv) {
			t.Errorf("replica load of unmapped = %v, want ErrSegv", err)
		}
		if err := fetchErr(p, ev.svcs[0], mem.PageOf(0xdead000), false); !errors.Is(err, ErrSegv) {
			t.Errorf("page fetch of unmapped = %v, want ErrSegv", err)
		}
	})
}

// TestRefusedPageFetchReplySize pins what a refused page fetch costs on the
// wire: its grant carries no page, so its reply is as small as every other
// error reply, not a page grant's 4 KiB plus header (its zero Src once read as
// data from kernel 0).
func TestRefusedPageFetchReplySize(t *testing.T) {
	ev := newEnv(t, 2, 64)
	ev.group(t, 1)
	sizes := &pageFetchReplySizes{}
	ev.fabric.SetObserver(sizes)
	ev.run(t, func(p *sim.Proc) {
		req := pageFetchReq{GID: 1, VPN: mem.PageOf(0xdead000)}
		g, err := pageFetch.Call(p, ev.svcs[1].ep, 0, msg.NoRole, &req)
		if err != nil || !errors.Is(g.Err, ErrSegv) {
			t.Errorf("page fetch of unmapped = %v, %v; want a grant refused with ErrSegv", g.Err, err)
		}
	})
	if len(sizes.got) != 1 || sizes.got[0] != sizeVMAReply {
		t.Fatalf("refused page fetch reply sizes %v, want one of %d bytes", sizes.got, sizeVMAReply)
	}
}

// pageFetchReplySizes records the wire size of every page-fetch reply sent.
type pageFetchReplySizes struct{ got []int }

func (r *pageFetchReplySizes) MsgSent(_ *sim.Proc, m *msg.Message) {
	if m.IsReply && m.Type == msg.TypePageFetch {
		r.got = append(r.got, m.Size)
	}
}

func (r *pageFetchReplySizes) MsgDelivered(*sim.Proc, *msg.Message) {}

// fetchErr serves a page fetch from kernel 1 at origin and returns the
// grant's error as the requester receives it.
func fetchErr(p *sim.Proc, origin *Service, vpn mem.VPN, write bool) error {
	return origin.handlePageFetch(p, 1, &pageFetchReq{GID: 1, VPN: vpn, Write: write}).Err
}

func TestWriteToReadOnlyFails(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, err := sps[0].Map(p, hw.PageSize, mem.ProtRead)
		if err != nil {
			t.Fatalf("Map: %v", err)
		}
		if err := sps[0].Store(p, 0, addr, 1); !errors.Is(err, ErrAccess) {
			t.Errorf("origin store to RO = %v, want ErrAccess", err)
		}
		if err := sps[1].Store(p, 2, addr, 1); !errors.Is(err, ErrAccess) {
			t.Errorf("replica store to RO = %v, want ErrAccess", err)
		}
		if err := fetchErr(p, ev.svcs[0], mem.PageOf(addr), true); !errors.Is(err, ErrAccess) {
			t.Errorf("write fetch of RO = %v, want ErrAccess", err)
		}
	})
}

func TestReplicaSeesOriginWrites(t *testing.T) {
	ev := newEnv(t, 3, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err := sps[0].Store(p, 0, addr, 77); err != nil {
			t.Fatalf("origin Store: %v", err)
		}
		// Replica 1 reads: requires downgrading origin's modified copy.
		if v, err := sps[1].Load(p, 2, addr); err != nil || v != 77 {
			t.Errorf("replica1 Load = %d, %v; want 77", v, err)
		}
		// Replica 2 reads the now-shared page.
		if v, err := sps[2].Load(p, 4, addr); err != nil || v != 77 {
			t.Errorf("replica2 Load = %d, %v; want 77", v, err)
		}
	})
}

func TestWriteInvalidatesRemoteReaders(t *testing.T) {
	ev := newEnv(t, 3, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		_ = sps[0].Store(p, 0, addr, 1)
		_, _ = sps[1].Load(p, 2, addr)
		_, _ = sps[2].Load(p, 4, addr)
		// Replica 1 writes: replica 2 and origin copies must be revoked.
		if err := sps[1].Store(p, 2, addr, 2); err != nil {
			t.Fatalf("replica1 Store: %v", err)
		}
		if v, err := sps[2].Load(p, 4, addr); err != nil || v != 2 {
			t.Errorf("replica2 Load after remote write = %d, %v; want 2", v, err)
		}
		if v, err := sps[0].Load(p, 0, addr); err != nil || v != 2 {
			t.Errorf("origin Load after remote write = %d, %v; want 2", v, err)
		}
	})
}

func TestWritePingPongBetweenReplicas(t *testing.T) {
	ev := newEnv(t, 3, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for i := int64(0); i < 10; i++ {
			w := sps[1+int(i)%2]
			if err := w.Store(p, 2, addr, i); err != nil {
				t.Fatalf("Store %d: %v", i, err)
			}
			r := sps[1+int(i+1)%2]
			if v, err := r.Load(p, 4, addr); err != nil || v != i {
				t.Fatalf("Load %d = %d, %v", i, v, err)
			}
		}
	})
}

func TestUnmapPropagatesAndFreesFrames(t *testing.T) {
	ev := newEnv(t, 3, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, 4*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for i := 0; i < 4; i++ {
			off := mem.Addr(i * hw.PageSize)
			_ = sps[0].Store(p, 0, addr+off, int64(i))
			_, _ = sps[1].Load(p, 2, addr+off)
			_, _ = sps[2].Load(p, 4, addr+off)
		}
		if err := sps[0].Unmap(p, addr, 4*hw.PageSize); err != nil {
			t.Fatalf("Unmap: %v", err)
		}
		for k, sp := range sps {
			if _, err := sp.Load(p, 2*k, addr); !errors.Is(err, ErrSegv) {
				t.Errorf("kernel %d load after unmap = %v, want ErrSegv", k, err)
			}
		}
	})
	for k, a := range ev.allocs {
		if a.InUse() != 0 {
			t.Errorf("kernel %d still holds %d frames after unmap", k, a.InUse())
		}
	}
}

func TestUnmapMiddleSplitsMapping(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, 3*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		_ = sps[0].Store(p, 0, addr, 1)
		_ = sps[0].Store(p, 0, addr+2*hw.PageSize, 3)
		if err := sps[0].Unmap(p, addr+hw.PageSize, hw.PageSize); err != nil {
			t.Fatalf("Unmap: %v", err)
		}
		if v, err := sps[0].Load(p, 0, addr); err != nil || v != 1 {
			t.Errorf("left page = %d, %v", v, err)
		}
		if _, err := sps[0].Load(p, 0, addr+hw.PageSize); !errors.Is(err, ErrSegv) {
			t.Errorf("hole = %v, want ErrSegv", err)
		}
		if v, err := sps[0].Load(p, 0, addr+2*hw.PageSize); err != nil || v != 3 {
			t.Errorf("right page = %d, %v", v, err)
		}
	})
}

func TestProtectPropagates(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		_ = sps[1].Store(p, 2, addr, 5) // replica owns the page exclusively
		if err := sps[0].Protect(p, addr, hw.PageSize, mem.ProtRead); err != nil {
			t.Fatalf("Protect: %v", err)
		}
		if err := sps[1].Store(p, 2, addr, 6); !errors.Is(err, ErrAccess) {
			t.Errorf("replica store after mprotect(RO) = %v, want ErrAccess", err)
		}
		if err := sps[0].Store(p, 0, addr, 6); !errors.Is(err, ErrAccess) {
			t.Errorf("origin store after mprotect(RO) = %v, want ErrAccess", err)
		}
		// Value still readable and intact.
		if v, err := sps[0].Load(p, 0, addr); err != nil || v != 5 {
			t.Errorf("Load after mprotect = %d, %v; want 5", v, err)
		}
		// Restore write and verify stores work again.
		if err := sps[0].Protect(p, addr, hw.PageSize, mem.ProtRead|mem.ProtWrite); err != nil {
			t.Fatalf("Protect back: %v", err)
		}
		if err := sps[1].Store(p, 2, addr, 7); err != nil {
			t.Errorf("store after re-enable = %v", err)
		}
		if v, _ := sps[0].Load(p, 0, addr); v != 7 {
			t.Errorf("value after re-enable = %d, want 7", v)
		}
	})
}

func TestProtectUnmappedRangeFails(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		if err := sps[0].Protect(p, 0x100000, hw.PageSize, mem.ProtRead); err == nil {
			t.Error("mprotect of unmapped range succeeded")
		}
	})
}

func TestRemoteMapFromReplica(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, err := sps[1].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			t.Fatalf("remote Map: %v", err)
		}
		if err := sps[1].Store(p, 2, addr, 9); err != nil {
			t.Errorf("Store on remotely created mapping: %v", err)
		}
		// Origin can see it too.
		if v, err := sps[0].Load(p, 0, addr); err != nil || v != 9 {
			t.Errorf("origin Load = %d, %v; want 9", v, err)
		}
		// Remote unmap round-trips as well.
		if err := sps[1].Unmap(p, addr, hw.PageSize); err != nil {
			t.Fatalf("remote Unmap: %v", err)
		}
		if _, err := sps[1].Load(p, 2, addr); !errors.Is(err, ErrSegv) {
			t.Errorf("load after remote unmap = %v", err)
		}
	})
}

func TestBadRangesRejected(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		if _, err := sps[0].Map(p, 0, mem.ProtRead); !errors.Is(err, ErrBadRange) {
			t.Errorf("zero-length map = %v", err)
		}
		if err := sps[0].Unmap(p, 123, hw.PageSize); !errors.Is(err, ErrBadRange) {
			t.Errorf("unaligned unmap = %v", err)
		}
		if err := sps[0].Protect(p, 123, hw.PageSize, mem.ProtRead); !errors.Is(err, ErrBadRange) {
			t.Errorf("unaligned protect = %v", err)
		}
	})
}

func TestFrameExhaustion(t *testing.T) {
	ev := newEnv(t, 1, 2)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, 4*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for i := 0; i < 2; i++ {
			if err := sps[0].Store(p, 0, addr+mem.Addr(i*hw.PageSize), 1); err != nil {
				t.Fatalf("Store %d: %v", i, err)
			}
		}
		if err := sps[0].Store(p, 0, addr+2*hw.PageSize, 1); !errors.Is(err, ErrNoSpace) {
			t.Errorf("store past capacity = %v, want ErrNoSpace", err)
		}
	})
}

func TestRemoteFaultSlowerThanLocal(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	var local, remote time.Duration
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, 2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		start := p.Now()
		_ = sps[0].Store(p, 0, addr, 1)
		local = p.Now().Sub(start)
		start = p.Now()
		_ = sps[1].Store(p, 2, addr+hw.PageSize, 1)
		remote = p.Now().Sub(start)
	})
	if remote <= local {
		t.Fatalf("remote first-touch %v not slower than local %v", remote, local)
	}
}

func TestVMACacheAvoidsRepeatFetch(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, 8*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for i := 0; i < 8; i++ {
			if err := sps[1].Store(p, 2, addr+mem.Addr(i*hw.PageSize), 1); err != nil {
				t.Fatalf("Store: %v", err)
			}
		}
	})
	fetches := ev.svcs[1].metrics.Counter("vm.vmafetch").Value()
	if fetches > 1 {
		t.Fatalf("replica issued %d VMA fetches for one area, want <= 1", fetches)
	}
}

func TestConcurrentFaultsCoalesceLocally(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	var addr mem.Addr
	ev.e.Spawn("setup", func(p *sim.Proc) {
		addr, _ = sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for i := 0; i < 4; i++ {
			ev.e.Spawn("reader", func(rp *sim.Proc) {
				if v, err := sps[1].Load(rp, 2, addr); err != nil || v != 0 {
					t.Errorf("Load = %d, %v", v, err)
				}
			})
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := ev.svcs[1].metrics.Counter("vm.fault.coalesced").Value(); got == 0 {
		t.Error("concurrent faults did not coalesce")
	}
	if got := ev.svcs[1].metrics.Counter("vm.fault.remote").Value(); got != 1 {
		t.Errorf("remote faults = %d, want 1 (coalesced)", got)
	}
}

func TestDropFreesFrames(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, 4*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for i := 0; i < 4; i++ {
			_ = sps[1].Store(p, 2, addr+mem.Addr(i*hw.PageSize), 1)
		}
		ev.svcs[1].Drop(p, 1)
	})
	if got := ev.allocs[1].InUse(); got != 0 {
		t.Fatalf("replica still holds %d frames after Drop", got)
	}
	if _, ok := ev.svcs[1].Space(1); ok {
		t.Fatal("space still attached after Drop")
	}
}

func TestServiceValidation(t *testing.T) {
	ev := newEnv(t, 2, 8)
	if _, err := ev.svcs[0].Create(5); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := ev.svcs[0].Create(5); err == nil {
		t.Error("duplicate Create accepted")
	}
	if _, err := ev.svcs[0].Attach(6, 0); err == nil {
		t.Error("Attach with self origin accepted")
	}
	if _, err := ev.svcs[1].Attach(5, 0); err != nil {
		t.Errorf("Attach: %v", err)
	}
	if _, err := ev.svcs[1].Attach(5, 0); err == nil {
		t.Error("duplicate Attach accepted")
	}
	if err := ev.svcs[1].RegisterReplica(5, 1); err == nil {
		t.Error("RegisterReplica on non-origin accepted")
	}
}
