package vm_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
)

// faultRig boots the k-kernel machine popbench's vm rigs run on, starts one
// process at kernel 0 and hands body its driver.
func faultRig(t *testing.T, k int, body func(o *core.OS, p *sim.Proc, pr osi.Process)) {
	t.Helper()
	topo := hw.Topology{Cores: 8 * k, NUMANodes: 2}
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = k
	o, err := core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.Engine().Spawn("driver", func(p *sim.Proc) {
		pr, err := o.StartProcessOn(p, 0)
		must(err)
		body(o, p, pr)
		pr.Wait(p)
		must(pr.Close(p))
	})
	if err := o.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// onKernel runs fn as a thread on kernel k and blocks the driver until it
// returns.
func onKernel(p *sim.Proc, pr osi.Process, k int, fn osi.ThreadFunc) {
	var done sim.WaitGroup
	done.Add(1)
	must(pr.Spawn(p, k, func(th osi.Thread) {
		defer done.Done()
		fn(th)
	}))
	done.Wait(p)
}

// mallocsPer measures what ops runs of op cost the allocator, per run, from
// inside the simulated thread that performs them.
func mallocsPer(ops int, op func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// TestFaultAllocationBudgets holds the two remote fault shapes popbench's rigs
// time to their allocation counts, through core.OS on the rigs' machines: a
// fault's messages come out of the fabric's pool and its sharer set is a word,
// so what a fault allocates is what the page tables and the directory keep,
// and the next per-message or per-fault allocation fails here, in tier-1, not
// in popbench.
func TestFaultAllocationBudgets(t *testing.T) {
	const pages = 512
	page := func(a mem.Addr, i int) mem.Addr { return a + mem.Addr(i*hw.PageSize) }
	populate := func(th osi.Thread) mem.Addr {
		a, err := th.Mmap(pages*hw.PageSize, mem.ProtRead|mem.ProtWrite)
		must(err)
		for i := 0; i < pages; i++ {
			must(th.Store(page(a, i), 1))
		}
		return a
	}

	// Kernel 0 owns the pages; a thread on kernel 1 reads each once: a fetch
	// round trip to the origin with the owner's downgrade nested in it, local
	// here. Measured 0.03 (4.03 with a fresh request and grant per fault and
	// a map per sharer set, 10.03 before this budget existed): the growth of
	// the reader's page table and value map.
	t.Run("remote read fault", func(t *testing.T) {
		const max = 0.03 + 0.5
		var got float64
		faultRig(t, 2, func(o *core.OS, p *sim.Proc, pr osi.Process) {
			var a, warm mem.Addr
			onKernel(p, pr, 0, func(th osi.Thread) { warm, a = populate(th), populate(th) })
			onKernel(p, pr, 1, func(th osi.Thread) {
				read := func(a mem.Addr) func(int) {
					return func(i int) { _, err := th.Load(page(a, i)); must(err) }
				}
				mallocsPer(pages, read(warm)) // pools, tables, handles
				got = mallocsPer(pages, read(a))
			})
		})
		if got > max {
			t.Fatalf("%.2f mallocs per remote read fault, want <= %.2f", got, max)
		}
	})

	// Kernels 1–3 hold read copies; the origin writes each page: a local fault
	// whose directory transaction fans three invalidations out and collects
	// their acks. Measured 1.01 (10.01 with fresh messages, reply and error
	// slices and request builder per fan-out, 44.01 before this budget
	// existed): on a page's first such fault only, the entry's scratch list
	// of kernels to revoke.
	t.Run("write fault with three sharers", func(t *testing.T) {
		const max = 1.01 + 0.5
		var got float64
		faultRig(t, 4, func(o *core.OS, p *sim.Proc, pr osi.Process) {
			var a, warm mem.Addr
			onKernel(p, pr, 0, func(th osi.Thread) { warm, a = populate(th), populate(th) })
			for k := 1; k <= 3; k++ {
				onKernel(p, pr, k, func(th osi.Thread) {
					for i := 0; i < pages; i++ {
						_, err := th.Load(page(warm, i))
						must(err)
						_, err = th.Load(page(a, i))
						must(err)
					}
				})
			}
			onKernel(p, pr, 0, func(th osi.Thread) {
				write := func(a mem.Addr) func(int) {
					return func(i int) { must(th.Store(page(a, i), 2)) }
				}
				mallocsPer(pages, write(warm))
				got = mallocsPer(pages, write(a))
			})
		})
		if got > max {
			t.Fatalf("%.2f mallocs per write fault with three sharers, want <= %.2f", got, max)
		}
	})
}

// TestLayoutAllocationBudget holds popbench's mmap_local loop — map a page,
// touch it, unmap it, all at the origin — to its allocation count: every
// layout operation commits through one path (Space.layout, originLayout,
// publish), and a closure or an interface boxed on that path would show up
// here first. Measured 5.00 per iteration both before and after the layout
// operations came to share one commit.
func TestLayoutAllocationBudget(t *testing.T) {
	const (
		iters = 512
		max   = 5.00 + 0.05
	)
	var got float64
	faultRig(t, 1, func(o *core.OS, p *sim.Proc, pr osi.Process) {
		onKernel(p, pr, 0, func(th osi.Thread) {
			cycle := func(int) {
				a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
				must(err)
				must(th.Store(a, 1))
				must(th.Munmap(a, hw.PageSize))
			}
			mallocsPer(iters, cycle) // pools, tables, handles
			got = mallocsPer(iters, cycle)
		})
	})
	if got > max {
		t.Fatalf("%.2f mallocs per map/touch/unmap, want <= %.2f", got, max)
	}
}
