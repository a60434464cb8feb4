package futex_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
)

// TestRemotePairEventAndHandoffCounts records what one FutexWait and the
// FutexWake that releases it cost the engine, on the two-kernel machine
// popbench's futex.remote_pair rig boots. Remote (waiter on kernel 1, home and
// waker on kernel 0): 38 events — unchanged since the pump went in — of which
// 12 switch into a process (33 before a send in flight became an event and a
// next-in-line Sleep stopped parking). Home (waiter and waker both on the home
// kernel 0): 6 events and 4 hand-offs, the in-place path that sends nothing. A
// PR that changes the schedule on purpose moves these numbers and says so.
// Beside them, what the pair costs the allocator: nothing — its messages come
// out of the fabric's pool, and blocking, handling and bookkeeping allocate
// nothing either — so the next per-message allocation fails here, not in
// popbench.
func TestRemotePairEventAndHandoffCounts(t *testing.T) {
	cases := []struct {
		name                     string
		waiter                   int
		wantEvents, wantHandoffs uint64
		maxMallocs               float64
	}{
		// measured 0.00 (3.00 while request, reply and wake-up were fresh
		// objects, 27 before this budget existed)
		{"remote", 1, 38, 12, 0 + 0.5},
		// measured 0.00: the home call runs in place
		{"home", 0, 6, 4, 0 + 0.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			events, handoffs, mallocs := futexPairCosts(t, c.waiter)
			if events != c.wantEvents*pairs || handoffs != c.wantHandoffs*pairs {
				t.Fatalf("%d pairs: %d events, %d hand-offs; want %d and %d (%d and %d per pair)",
					pairs, events, handoffs, c.wantEvents*pairs, c.wantHandoffs*pairs, c.wantEvents, c.wantHandoffs)
			}
			if mallocs > c.maxMallocs {
				t.Fatalf("%.2f mallocs per pair, want <= %.1f", mallocs, c.maxMallocs)
			}
		})
	}
}

const pairs = 200

// futexPairCosts runs a waiter on kernel waiterKernel against a waker on the
// home kernel 0 and returns the engine events and hand-offs of the measured
// pairs after a warm-up, and their mallocs per pair.
func futexPairCosts(t *testing.T, waiterKernel int) (events, handoffs uint64, mallocs float64) {
	const warm = 50
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
	var before, after runtime.MemStats
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := o.StartProcessOn(p, 0)
		must(err)
		ready := sim.NewWaitGroup()
		ready.Add(1)
		var word mem.Addr
		must(pr.Spawn(p, 0, func(th osi.Thread) {
			defer ready.Done()
			word, err = th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			must(err)
			must(th.Store(word, 0))
		}))
		ready.Wait(p)
		must(pr.Spawn(p, waiterKernel, func(th osi.Thread) {
			for i := 0; i < warm+pairs; i++ {
				must(th.FutexWait(word, 0))
			}
		}))
		must(pr.Spawn(p, 0, func(th osi.Thread) {
			// The waker retries until the waiter is queued, as a lock holder
			// that found the queue empty would; retries are part of the pair.
			wake := func(n int) {
				for i := 0; i < n; i++ {
					for {
						woken, err := th.FutexWake(word, 1)
						must(err)
						if woken == 1 {
							break
						}
						th.Compute(200 * time.Nanosecond)
					}
				}
			}
			wake(warm)
			events, handoffs = e.EventsProcessed(), e.Handoffs()
			runtime.ReadMemStats(&before)
			wake(pairs)
			runtime.ReadMemStats(&after)
			events, handoffs = e.EventsProcessed()-events, e.Handoffs()-handoffs
		}))
		pr.Wait(p)
		must(pr.Close(p))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return events, handoffs, float64(after.Mallocs-before.Mallocs) / pairs
}
