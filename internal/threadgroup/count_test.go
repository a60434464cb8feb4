package threadgroup_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/osi"
	"repro/internal/sim"
)

// TestWarmMigrationEventAndHandoffCounts records what one migration onto a
// kernel that already holds the thread's shadow costs the engine, on the
// two-kernel machine popbench's threadgroup.migrate rig boots: 15 events —
// unchanged since the pump went in — of which 3 switch into a process (9
// before a send in flight became an event and a next-in-line Sleep stopped
// parking). A PR that changes the schedule on purpose moves these numbers and
// says so. Beside them, what a hop costs the allocator, so that the next
// per-message allocation fails here, not in popbench.
func TestWarmMigrationEventAndHandoffCounts(t *testing.T) {
	const hops = 200
	const wantEvents, wantHandoffs = 15, 3
	// measured 0.00: the request carries the source's hop list by reference
	// and the revived context rebuilds its own in place (3.00 while both were
	// fresh slices, 6.00 while the messages were fresh objects, 12 before this
	// budget existed)
	const maxMallocs = 0.5
	topo := hw.Topology{Cores: 16, NUMANodes: 2}
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = 2
	o, err := core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	e := o.Engine()
	var events, handoffs uint64
	var before, after runtime.MemStats
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := o.StartProcessOn(p, 0)
		must(err)
		must(pr.Spawn(p, 0, func(th osi.Thread) {
			// One round trip first, so both kernels hold a shadow to revive.
			must(th.Migrate(1))
			must(th.Migrate(0))
			events, handoffs = e.EventsProcessed(), e.Handoffs()
			runtime.ReadMemStats(&before)
			for i := 0; i < hops; i++ {
				must(th.Migrate(1 - th.KernelID()))
			}
			runtime.ReadMemStats(&after)
			events, handoffs = e.EventsProcessed()-events, e.Handoffs()-handoffs
		}))
		pr.Wait(p)
		must(pr.Close(p))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if events != wantEvents*hops || handoffs != wantHandoffs*hops {
		t.Fatalf("%d warm migrations: %d events, %d hand-offs; want %d and %d (%d and %d per hop)",
			hops, events, handoffs, wantEvents*hops, wantHandoffs*hops, wantEvents, wantHandoffs)
	}
	if got := float64(after.Mallocs-before.Mallocs) / hops; got > maxMallocs {
		t.Fatalf("%.2f mallocs per warm migration, want <= %.1f", got, maxMallocs)
	}
}

// TestColdHopRefillAllocs pins the dummy refill's host cost: a thread's first
// hop onto a kernel that has a pre-created dummy takes it, and the refill
// that replaces it runs on a record the kernel pools, so once the kernel has
// made its first record a hop costs the same allocations as a hop onto a
// kernel with no dummy pool at all (the thread setup then runs inline, and
// nothing is refilled). Only the refill differs between the two machines.
func TestColdHopRefillAllocs(t *testing.T) {
	const warm, hops = 4, 32
	perHop := func(pool int) float64 {
		// A core per thread on each kernel: a parked thread keeps its core.
		topo := hw.Topology{Cores: 2 * (warm + hops), NUMANodes: 2}
		machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		cc := kernel.DefaultClusterConfig(machine)
		cc.Kernels = 2
		cc.TG.DummyPool = pool
		o, err := core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		e := o.Engine()
		var before, after runtime.MemStats
		var hits uint64
		e.Spawn("driver", func(p *sim.Proc) {
			pr, err := o.StartProcessOn(p, 0)
			must(err)
			// Each thread parks on kernel 0 until the driver sends it on
			// its one hop to kernel 1, then parks there until the end.
			threads := make([]*sim.Proc, warm+hops)
			for i := range threads {
				must(pr.Spawn(p, 0, func(th osi.Thread) {
					threads[i] = th.Proc()
					th.Proc().Suspend()
					must(th.Migrate(1))
					threads[i] = th.Proc()
					p.Resume()
					th.Proc().Suspend()
				}))
			}
			p.Sleep(time.Millisecond)
			hop := func(i int) {
				threads[i].Resume()
				p.Suspend()
				p.Sleep(time.Millisecond) // the refill lands before the next hop
			}
			for i := 0; i < warm; i++ {
				hop(i)
			}
			hit := o.Metrics().Counter("tg.migrate.dummyhit")
			hits = hit.Value()
			runtime.ReadMemStats(&before)
			for i := warm; i < warm+hops; i++ {
				hop(i)
			}
			runtime.ReadMemStats(&after)
			hits = hit.Value() - hits
			for _, tp := range threads {
				tp.Resume()
			}
			pr.Wait(p)
			must(pr.Close(p))
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if want := uint64(min(pool, 1) * hops); hits != want {
			t.Fatalf("dummy pool %d: %d of %d hops took a dummy, want %d", pool, hits, hops, want)
		}
		return float64(after.Mallocs-before.Mallocs) / hops
	}
	withPool, without := perHop(2), perHop(0)
	t.Logf("mallocs per cold hop: %.2f taking a dummy, %.2f with no dummy pool", withPool, without)
	if withPool > without+0.1 {
		t.Fatalf("a cold hop that takes a dummy allocates %.2f, %.2f more than one with no pool: the refill allocates",
			withPool, withPool-without)
	}
}
