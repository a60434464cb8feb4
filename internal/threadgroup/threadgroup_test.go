package threadgroup

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/vm"
)

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

type env struct {
	e      sim.Engine
	fabric *msg.Fabric
	vms    []*vm.Service
	tgs    []*Service
	allocs []*mem.FrameAllocator
}

func newEnv(t *testing.T, kernels int, cfg Config) *env {
	t.Helper()
	e := sim.NewEngine(sim.WithSeed(9))
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
		alloc, _ := mem.NewFrameAllocator(machine.Topology.NodeOf(cores[k]), int64(k)<<20, 256)
		ev.allocs = append(ev.allocs, alloc)
		ev.vms = append(ev.vms, vm.NewService(e, machine, fabric, msg.NodeID(k), &simpleFrames{a: alloc}, 2, stats.NewRegistry()))
	}
	for k := 0; k < kernels; k++ {
		ev.tgs = append(ev.tgs, NewService(e, machine, fabric, msg.NodeID(k), ev.vms[k], cfg, stats.NewRegistry()))
	}
	return ev
}

func (ev *env) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	ev.e.Spawn("test", fn)
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCreateGroupMakesOriginAndMainThread(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, err := ev.tgs[0].CreateGroup(p)
		if err != nil {
			t.Fatalf("CreateGroup: %v", err)
		}
		if main == nil || main.Kernel != 0 || main.State != task.StateRunnable {
			t.Fatalf("main = %+v", main)
		}
		if _, ok := ev.vms[0].Space(gid); !ok {
			t.Fatal("origin has no address space")
		}
		members, err := ev.tgs[0].Members(gid)
		if err != nil || len(members) != 1 {
			t.Fatalf("Members = %v, %v", members, err)
		}
		if ev.tgs[0].LocalTasks(gid) != 1 {
			t.Fatalf("LocalTasks = %d", ev.tgs[0].LocalTasks(gid))
		}
	})
}

func TestPIDsAreGloballyUnique(t *testing.T) {
	ev := newEnv(t, 4, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, err := ev.tgs[0].CreateGroup(p)
		if err != nil {
			t.Fatalf("CreateGroup: %v", err)
		}
		seen := map[task.ID]bool{main.ID: true}
		for k := 0; k < 4; k++ {
			for i := 0; i < 10; i++ {
				tk, err := ev.tgs[0].Spawn(p, gid, msg.NodeID(k))
				if err != nil {
					t.Fatalf("Spawn on %d: %v", k, err)
				}
				if seen[tk.ID] {
					t.Fatalf("duplicate task ID %d", tk.ID)
				}
				seen[tk.ID] = true
			}
		}
	})
}

func TestRemoteSpawnSetsUpReplica(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, _, _ := ev.tgs[0].CreateGroup(p)
		tk, err := ev.tgs[0].Spawn(p, gid, 1)
		if err != nil {
			t.Fatalf("remote Spawn: %v", err)
		}
		if tk.Kernel != 1 {
			t.Fatalf("task kernel = %d, want 1", tk.Kernel)
		}
		if _, ok := ev.vms[1].Space(gid); !ok {
			t.Fatal("kernel 1 has no address-space replica")
		}
		if ev.tgs[1].LocalTasks(gid) != 1 {
			t.Fatalf("kernel 1 LocalTasks = %d", ev.tgs[1].LocalTasks(gid))
		}
		members, _ := ev.tgs[0].Members(gid)
		if members[tk.ID] != 1 {
			t.Fatalf("origin thinks task is on kernel %d", members[tk.ID])
		}
		// The shared address space really is shared: origin writes, the
		// remote thread's kernel reads.
		sp0, _ := ev.vms[0].Space(gid)
		sp1, _ := ev.vms[1].Space(gid)
		addr, _ := sp0.Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		_ = sp0.Store(p, 0, addr, 55)
		if v, err := sp1.Load(p, 2, addr); err != nil || v != 55 {
			t.Fatalf("replica Load = %d, %v; want 55", v, err)
		}
	})
}

func TestSpawnOnUnknownGroupFails(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	ev.run(t, func(p *sim.Proc) {
		if _, err := ev.tgs[0].Spawn(p, 999, 1); err == nil {
			t.Fatal("Spawn on unknown group succeeded")
		}
	})
}

func TestMigrationMovesThread(t *testing.T) {
	ev := newEnv(t, 3, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		moved, err := ev.tgs[0].Migrate(p, gid, main.ID, 1)
		if err != nil {
			t.Fatalf("Migrate: %v", err)
		}
		if moved.ID != main.ID {
			t.Fatalf("migrated task changed ID: %d -> %d", main.ID, moved.ID)
		}
		if moved.Kernel != 1 || moved.State != task.StateRunnable {
			t.Fatalf("moved = %+v", moved)
		}
		if moved.Migrations != 1 {
			t.Fatalf("Migrations = %d, want 1", moved.Migrations)
		}
		// Source keeps a shadow.
		if ev.tgs[0].Shadows(gid) != 1 {
			t.Fatalf("source shadows = %d, want 1", ev.tgs[0].Shadows(gid))
		}
		if ev.tgs[0].LocalTasks(gid) != 0 || ev.tgs[1].LocalTasks(gid) != 1 {
			t.Fatal("task counts wrong after migration")
		}
		// Origin member table tracks the move.
		members, _ := ev.tgs[0].Members(gid)
		if members[main.ID] != 1 {
			t.Fatalf("origin thinks task on kernel %d, want 1", members[main.ID])
		}
	})
}

func TestBackMigrationRevivesShadow(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		moved, err := ev.tgs[0].Migrate(p, gid, main.ID, 1)
		if err != nil {
			t.Fatalf("Migrate out: %v", err)
		}
		back, err := ev.tgs[1].Migrate(p, gid, moved.ID, 0)
		if err != nil {
			t.Fatalf("Migrate back: %v", err)
		}
		if back != main {
			t.Fatal("back-migration created a new task instead of reviving the shadow")
		}
		if ev.tgs[0].Shadows(gid) != 0 {
			t.Fatalf("shadow not consumed: %d", ev.tgs[0].Shadows(gid))
		}
		if ev.tgs[1].Shadows(gid) != 1 {
			t.Fatalf("kernel 1 should now hold the shadow, has %d", ev.tgs[1].Shadows(gid))
		}
		if back.Migrations != 2 {
			t.Fatalf("Migrations = %d, want 2", back.Migrations)
		}
		if len(back.Hops) != 1 || back.Hops[0] != 1 {
			t.Fatalf("Hops = %v, want [1]", back.Hops)
		}
	})
}

func TestChainMigrationLeavesShadowTrail(t *testing.T) {
	ev := newEnv(t, 3, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		t1, err := ev.tgs[0].Migrate(p, gid, main.ID, 1)
		if err != nil {
			t.Fatalf("hop 1: %v", err)
		}
		t2, err := ev.tgs[1].Migrate(p, gid, t1.ID, 2)
		if err != nil {
			t.Fatalf("hop 2: %v", err)
		}
		if ev.tgs[0].Shadows(gid) != 1 || ev.tgs[1].Shadows(gid) != 1 {
			t.Fatal("shadow trail missing")
		}
		if len(t2.Hops) != 2 {
			t.Fatalf("Hops = %v, want two entries", t2.Hops)
		}
	})
}

func TestMigrateInvalidRequests(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		if _, err := ev.tgs[0].Migrate(p, gid, main.ID, 0); err == nil {
			t.Error("self-migration accepted")
		}
		if _, err := ev.tgs[0].Migrate(p, gid, 424242, 1); err == nil {
			t.Error("migration of unknown task accepted")
		}
		if _, err := ev.tgs[1].Migrate(p, gid, main.ID, 0); err == nil {
			t.Error("migration from non-hosting kernel accepted")
		}
	})
}

func TestExitReapsShadowsAndTearsDownGroup(t *testing.T) {
	ev := newEnv(t, 3, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		// Build state everywhere: a remote thread and a migrated main.
		worker, err := ev.tgs[0].Spawn(p, gid, 1)
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		moved, err := ev.tgs[0].Migrate(p, gid, main.ID, 2)
		if err != nil {
			t.Fatalf("Migrate: %v", err)
		}
		// Fault some pages on each kernel so teardown has frames to free.
		sp0, _ := ev.vms[0].Space(gid)
		addr, _ := sp0.Map(p, 4*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for k, vs := range ev.vms[:3] {
			sp, ok := vs.Space(gid)
			if !ok {
				t.Fatalf("kernel %d missing space", k)
			}
			_ = sp.Store(p, 2*k, addr+mem.Addr(k*hw.PageSize), int64(k))
		}
		// Exit both threads.
		if err := ev.tgs[1].Exit(p, gid, worker.ID); err != nil {
			t.Fatalf("worker Exit: %v", err)
		}
		if err := ev.tgs[2].Exit(p, gid, moved.ID); err != nil {
			t.Fatalf("main Exit: %v", err)
		}
		// Let the reap messages drain.
		p.Sleep(time.Millisecond)
	})
	for k := 0; k < 3; k++ {
		if _, ok := ev.vms[k].Space(1); ok {
			t.Errorf("kernel %d still has a space after group exit", k)
		}
		if got := ev.allocs[k].InUse(); got != 0 {
			t.Errorf("kernel %d leaked %d frames", k, got)
		}
	}
}

func TestWaitEmptyBlocksUntilLastExit(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	var emptyAt, exitAt sim.Time
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		worker, _ := ev.tgs[0].Spawn(p, gid, 1)
		ev.e.Spawn("waiter", func(wp *sim.Proc) {
			if err := ev.tgs[0].WaitMembers(wp, gid, 0); err != nil {
				t.Errorf("WaitMembers: %v", err)
			}
			emptyAt = wp.Now()
		})
		p.Sleep(time.Millisecond)
		_ = ev.tgs[0].Exit(p, gid, main.ID)
		p.Sleep(time.Millisecond)
		exitAt = p.Now()
		_ = ev.tgs[1].Exit(p, gid, worker.ID)
	})
	if emptyAt < exitAt {
		t.Fatalf("WaitMembers(0) returned at %v, before last exit at %v", emptyAt, exitAt)
	}
}

func TestDummyPoolSpeedsUpMigration(t *testing.T) {
	migrateTime := func(pool int) time.Duration {
		ev := newEnv(t, 2, Config{DummyPool: pool})
		var elapsed time.Duration
		ev.run(t, func(p *sim.Proc) {
			gid, main, _ := ev.tgs[0].CreateGroup(p)
			start := p.Now()
			if _, err := ev.tgs[0].Migrate(p, gid, main.ID, 1); err != nil {
				t.Fatalf("Migrate: %v", err)
			}
			elapsed = p.Now().Sub(start)
		})
		return elapsed
	}
	withPool, withoutPool := migrateTime(4), migrateTime(0)
	if withPool >= withoutPool {
		t.Fatalf("dummy pool migration %v not faster than cold %v", withPool, withoutPool)
	}
}

func TestRemoteSpawnFirstVsWarmReplica(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	var first, second time.Duration
	ev.run(t, func(p *sim.Proc) {
		gid, _, _ := ev.tgs[0].CreateGroup(p)
		start := p.Now()
		if _, err := ev.tgs[0].Spawn(p, gid, 1); err != nil {
			t.Fatalf("Spawn 1: %v", err)
		}
		first = p.Now().Sub(start)
		start = p.Now()
		if _, err := ev.tgs[0].Spawn(p, gid, 1); err != nil {
			t.Fatalf("Spawn 2: %v", err)
		}
		second = p.Now().Sub(start)
	})
	if second >= first {
		t.Fatalf("warm remote spawn %v not faster than cold %v", second, first)
	}
}

func TestThirdPartySpawn(t *testing.T) {
	// A non-origin kernel clones onto another non-origin kernel; the
	// origin must still learn about the member.
	ev := newEnv(t, 3, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, _, _ := ev.tgs[0].CreateGroup(p)
		w1, err := ev.tgs[0].Spawn(p, gid, 1)
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		_ = w1
		w2, err := ev.tgs[1].Spawn(p, gid, 2)
		if err != nil {
			t.Fatalf("third-party Spawn: %v", err)
		}
		members, _ := ev.tgs[0].Members(gid)
		if members[w2.ID] != 2 {
			t.Fatalf("origin records task on kernel %d, want 2 (members=%v)", members[w2.ID], members)
		}
	})
}

func TestLocalSpawnOnReplicaRegistersWithOrigin(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, _, _ := ev.tgs[0].CreateGroup(p)
		if _, err := ev.tgs[0].Spawn(p, gid, 1); err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		// Kernel 1 now hosts the group; it clones locally.
		w, err := ev.tgs[1].Spawn(p, gid, 1)
		if err != nil {
			t.Fatalf("local Spawn on replica: %v", err)
		}
		members, _ := ev.tgs[0].Members(gid)
		if members[w.ID] != 1 {
			t.Fatalf("origin did not record replica-local spawn: %v", members)
		}
	})
}

func TestConcurrentSpawnsAndMigrations(t *testing.T) {
	ev := newEnv(t, 4, Config{DummyPool: 2})
	done := sim.NewWaitGroup()
	done.Add(4)
	ev.e.Spawn("driver", func(p *sim.Proc) {
		gid, main, err := ev.tgs[0].CreateGroup(p)
		if err != nil {
			t.Errorf("CreateGroup: %v", err)
			return
		}
		for k := 0; k < 4; k++ {
			k := k
			ev.e.Spawn(fmt.Sprintf("spawner%d", k), func(sp *sim.Proc) {
				defer done.Done()
				for i := 0; i < 5; i++ {
					tk, err := ev.tgs[0].Spawn(sp, gid, msg.NodeID(k))
					if err != nil {
						t.Errorf("spawn: %v", err)
						return
					}
					dst := msg.NodeID((k + 1) % 4)
					moved, err := ev.tgs[k].Migrate(sp, gid, tk.ID, dst)
					if err != nil {
						t.Errorf("migrate: %v", err)
						return
					}
					if err := ev.tgs[dst].Exit(sp, gid, moved.ID); err != nil {
						t.Errorf("exit: %v", err)
						return
					}
				}
			})
		}
		done.Wait(p)
		members, err := ev.tgs[0].Members(gid)
		if err != nil {
			t.Errorf("Members: %v", err)
			return
		}
		if len(members) != 1 {
			t.Errorf("members = %v, want just main", members)
		}
		_ = main
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestOneWayExitNotifyAnsweredOnlyOnFailure: exit notifications that are sent
// one-way (a reap, a ghost drop) are answered when they fail — a ghost drop
// for a group the kernel does not hold — and a reap, which never fails, is
// not. The stray answer is dropped as an orphan at the sender.
func TestOneWayExitNotifyAnsweredOnlyOnFailure(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	sent := ev.fabric.Metrics().Counter("msg.sent")
	ev.run(t, func(p *sim.Proc) {
		exitNotify.Send(p, ev.tgs[0].ep, 1, &exitReq{GID: 42, TaskID: 7, Reap: true})
		exitNotify.Send(p, ev.tgs[0].ep, 1, &exitReq{GID: 42, TaskID: 7, Ghost: true})
	})
	if got := sent.Value(); got != 3 {
		t.Errorf("msg.sent = %d, want 3: two notifications and the ghost drop's error reply", got)
	}
	if got := ev.fabric.Metrics().Counter("msg.rpc.orphan").Value(); got != 1 {
		t.Errorf("msg.rpc.orphan = %d, want 1", got)
	}
}
