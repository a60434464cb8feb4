package osi_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/smp"
	"repro/internal/vm"
)

// bootAll returns one freshly booted OS per flavour implementing osi.OS.
func bootAll(t *testing.T) map[string]osi.OS {
	t.Helper()
	topo := hw.Topology{Cores: 8, NUMANodes: 2}
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = 4
	cc.FramesPerKernel = 4096
	pop, err := core.Boot(core.Config{Topology: topo, Cluster: &cc})
	if err != nil {
		t.Fatalf("Boot popcorn: %v", err)
	}
	t.Cleanup(pop.Close)
	sm, err := smp.Boot(smp.Config{Topology: topo, FramesPerNode: 8192})
	if err != nil {
		t.Fatalf("Boot smp: %v", err)
	}
	t.Cleanup(sm.Close)
	return map[string]osi.OS{"popcorn": pop, "smp": sm}
}

// TestConformanceIdenticalSemantics runs the same program on both OSes and
// requires identical observable results — the paper's claim that the
// replicated-kernel interface is indistinguishable from SMP Linux.
func TestConformanceIdenticalSemantics(t *testing.T) {
	type outcome struct {
		finalSum   int64
		segv       bool
		access     bool
		casSecond  bool
		fetchAddV  int64
		afterUnmap bool
	}
	results := make(map[string]outcome)
	for name, o := range bootAll(t) {
		var out outcome
		e := o.Engine()
		e.Spawn("program", func(p *sim.Proc) {
			pr, err := o.StartProcess(p)
			if err != nil {
				t.Errorf("%s: StartProcess: %v", name, err)
				return
			}
			var base mem.Addr
			ready := sim.NewWaitGroup()
			ready.Add(1)
			done := sim.NewWaitGroup()
			done.Add(4)
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				a, err := th.Mmap(4*hw.PageSize, mem.ProtRead|mem.ProtWrite)
				if err != nil {
					panic(err)
				}
				base = a
				ready.Done()
				done.Wait(th.Proc())
				// Collect observable state.
				v, err := th.Load(base)
				if err != nil {
					panic(err)
				}
				out.finalSum = v
				_, err = th.Load(0xbad0000)
				out.segv = errors.Is(err, vm.ErrSegv)
				if err := th.Mprotect(base+hw.PageSize, hw.PageSize, mem.ProtRead); err != nil {
					panic(err)
				}
				err = th.Store(base+hw.PageSize, 1)
				out.access = errors.Is(err, vm.ErrAccess)
				ok1, err := th.CompareAndSwap(base+2*hw.PageSize, 0, 5)
				if err != nil || !ok1 {
					panic(fmt.Sprintf("first CAS = %v, %v", ok1, err))
				}
				out.casSecond, _ = th.CompareAndSwap(base+2*hw.PageSize, 0, 6)
				out.fetchAddV, _ = th.FetchAdd(base+2*hw.PageSize, 10)
				if err := th.Munmap(base+3*hw.PageSize, hw.PageSize); err != nil {
					panic(err)
				}
				_, err = th.Load(base + 3*hw.PageSize)
				out.afterUnmap = errors.Is(err, vm.ErrSegv)
			}); err != nil {
				t.Errorf("%s: Spawn: %v", name, err)
				return
			}
			// Four incrementers spread over whatever kernels exist.
			for i := 0; i < 4; i++ {
				k := 0
				if o.Kernels() > 1 {
					k = i % o.Kernels()
				}
				if err := pr.Spawn(p, k, func(th osi.Thread) {
					ready.Wait(th.Proc())
					for j := 0; j < 10; j++ {
						if _, err := th.FetchAdd(base, 1); err != nil {
							panic(err)
						}
					}
					done.Done()
				}); err != nil {
					t.Errorf("%s: Spawn worker: %v", name, err)
					return
				}
			}
			pr.Wait(p)
			if err := pr.Close(p); err != nil {
				t.Errorf("%s: Close: %v", name, err)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		results[name] = out
	}
	pop, smp := results["popcorn"], results["smp"]
	if pop != smp {
		t.Fatalf("observable semantics differ:\npopcorn: %+v\nsmp:     %+v", pop, smp)
	}
	if pop.finalSum != 40 {
		t.Fatalf("finalSum = %d, want 40", pop.finalSum)
	}
	if !pop.segv || !pop.access || !pop.afterUnmap {
		t.Fatalf("error semantics wrong: %+v", pop)
	}
	if pop.casSecond || pop.fetchAddV != 5 {
		t.Fatalf("atomic semantics wrong: %+v", pop)
	}
}

// TestConformanceSignalsAndRequeue checks the newer syscall surface —
// cross-thread signals and FUTEX_CMP_REQUEUE — behaves identically on both
// OS flavours.
func TestConformanceSignalsAndRequeue(t *testing.T) {
	type outcome struct {
		sigs      int
		sigVal    int
		woken     int
		requeued  int
		badExpect bool
	}
	results := make(map[string]outcome)
	for name, o := range bootAll(t) {
		var out outcome
		e := o.Engine()
		e.Spawn("program", func(p *sim.Proc) {
			pr, err := o.StartProcess(p)
			if err != nil {
				t.Errorf("%s: StartProcess: %v", name, err)
				return
			}
			var base mem.Addr
			var victim int64
			ready := sim.NewWaitGroup()
			ready.Add(1)
			victimUp := sim.NewWaitGroup()
			victimUp.Add(1)
			_ = pr.Spawn(p, 0, func(th osi.Thread) {
				base, _ = th.Mmap(2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
				ready.Done()
			})
			ready.Wait(p)
			// Victim waits for a signal on another kernel when possible.
			k := 0
			if o.Kernels() > 1 {
				k = 1
			}
			_ = pr.Spawn(p, k, func(th osi.Thread) {
				victim = th.ID()
				victimUp.Done()
				sigs, err := th.SigWait()
				if err != nil {
					panic(err)
				}
				out.sigs = len(sigs)
				if len(sigs) > 0 {
					out.sigVal = sigs[0]
				}
			})
			// Three waiters sleep on word 0; a requeuer moves them to word 1.
			parked := sim.NewWaitGroup()
			for i := 0; i < 3; i++ {
				parked.Add(1)
				_ = pr.Spawn(p, 0, func(th osi.Thread) {
					parked.Done()
					if err := th.FutexWait(base, 0); err != nil {
						panic(err)
					}
				})
			}
			_ = pr.Spawn(p, 0, func(th osi.Thread) {
				victimUp.Wait(th.Proc())
				parked.Wait(th.Proc())
				th.Compute(50 * time.Microsecond) // let the waiters queue
				if err := th.Kill(victim, 10); err != nil {
					panic(err)
				}
				// Requeue with a wrong expectation first.
				if _, _, err := th.FutexRequeue(base, base+hw.PageSize, 99, 1, 10); err != nil {
					out.badExpect = true
				}
				w, r, err := th.FutexRequeue(base, base+hw.PageSize, 0, 1, 10)
				if err != nil {
					panic(err)
				}
				out.woken, out.requeued = w, r
				// Release the requeued waiters so the run can finish.
				if _, err := th.FutexWake(base+hw.PageSize, 10); err != nil {
					panic(err)
				}
			})
			pr.Wait(p)
			_ = pr.Close(p)
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		results[name] = out
	}
	pop, smp := results["popcorn"], results["smp"]
	if pop != smp {
		t.Fatalf("signal/requeue semantics differ:\npopcorn: %+v\nsmp:     %+v", pop, smp)
	}
	if pop.sigs != 1 || pop.sigVal != 10 {
		t.Fatalf("signal outcome wrong: %+v", pop)
	}
	if !pop.badExpect {
		t.Fatalf("requeue with wrong expect did not error: %+v", pop)
	}
	if pop.woken != 1 || pop.requeued != 2 {
		t.Fatalf("requeue outcome = woken %d, requeued %d; want 1, 2", pop.woken, pop.requeued)
	}
}

// TestConformanceSbrk checks brk semantics match across flavours: grow,
// touch, shrink, then access below and above the break.
func TestConformanceSbrk(t *testing.T) {
	type outcome struct {
		old1, old2, old3 mem.Addr
		val              int64
		aboveSegv        bool
	}
	results := make(map[string]outcome)
	for name, o := range bootAll(t) {
		var out outcome
		e := o.Engine()
		e.Spawn("program", func(p *sim.Proc) {
			pr, err := o.StartProcess(p)
			if err != nil {
				t.Errorf("%s: StartProcess: %v", name, err)
				return
			}
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				old1, err := th.Sbrk(3 * hw.PageSize)
				if err != nil {
					panic(err)
				}
				out.old1 = old1
				if err := th.Store(old1, 77); err != nil {
					panic(err)
				}
				if err := th.Store(old1+2*hw.PageSize, 88); err != nil {
					panic(err)
				}
				old2, err := th.Sbrk(-hw.PageSize) // shrink: drop page 2
				if err != nil {
					panic(err)
				}
				out.old2 = old2
				v, err := th.Load(old1)
				if err != nil {
					panic(err)
				}
				out.val = v
				_, err = th.Load(old1 + 2*hw.PageSize)
				out.aboveSegv = err != nil
				old3, err := th.Sbrk(0)
				if err != nil {
					panic(err)
				}
				out.old3 = old3
			}); err != nil {
				t.Errorf("%s: Spawn: %v", name, err)
				return
			}
			pr.Wait(p)
			_ = pr.Close(p)
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		results[name] = out
	}
	pop, smp := results["popcorn"], results["smp"]
	if pop != smp {
		t.Fatalf("sbrk semantics differ:\npopcorn: %+v\nsmp:     %+v", pop, smp)
	}
	if pop.val != 77 || !pop.aboveSegv {
		t.Fatalf("sbrk outcome wrong: %+v", pop)
	}
	if pop.old3 != pop.old1+2*hw.PageSize {
		t.Fatalf("final break = %#x, want %#x", uint64(pop.old3), uint64(pop.old1+2*hw.PageSize))
	}
}

// TestConformanceBadRanges runs the layout calls that must be rejected or
// ignored on both flavours: each must reach the same ErrBadRange verdict,
// and the next mapping after it must land at the same address — a rejected
// call moves no cursor, and both flavours place mappings alike.
func TestConformanceBadRanges(t *testing.T) {
	type verdict struct {
		badRange bool
		next     mem.Addr
	}
	cases := []struct {
		name     string
		call     func(th osi.Thread, base mem.Addr) error
		badRange bool
	}{
		{"zero-length mmap", func(th osi.Thread, _ mem.Addr) error {
			_, err := th.Mmap(0, mem.ProtRead)
			return err
		}, true},
		{"unaligned munmap", func(th osi.Thread, base mem.Addr) error { return th.Munmap(base+1, hw.PageSize) }, true},
		{"munmap of a hole", func(th osi.Thread, base mem.Addr) error { return th.Munmap(base+64*hw.PageSize, hw.PageSize) }, false},
		{"mprotect over a hole", func(th osi.Thread, base mem.Addr) error {
			return th.Mprotect(base+hw.PageSize, 64*hw.PageSize, mem.ProtRead)
		}, true},
		{"brk below the heap base", func(th osi.Thread, _ mem.Addr) error {
			_, err := th.Sbrk(-hw.PageSize)
			return err
		}, true},
	}
	results := make(map[string][]verdict)
	for name, o := range bootAll(t) {
		e := o.Engine()
		e.Spawn("program", func(p *sim.Proc) {
			pr, err := o.StartProcess(p)
			if err != nil {
				t.Errorf("%s: StartProcess: %v", name, err)
				return
			}
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				base, err := th.Mmap(2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
				if err != nil {
					panic(err)
				}
				for _, c := range cases {
					err := c.call(th, base)
					if err != nil && !errors.Is(err, vm.ErrBadRange) {
						t.Errorf("%s: %s: %v, want ErrBadRange or nil", name, c.name, err)
					}
					v := verdict{badRange: err != nil}
					if v.next, err = th.Mmap(hw.PageSize, mem.ProtRead); err != nil {
						panic(err)
					}
					results[name] = append(results[name], v)
				}
			}); err != nil {
				t.Errorf("%s: Spawn: %v", name, err)
				return
			}
			pr.Wait(p)
			_ = pr.Close(p)
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
	}
	pop, smp := results["popcorn"], results["smp"]
	if len(pop) != len(cases) || len(smp) != len(cases) {
		t.Fatalf("ran %d and %d cases, want %d", len(pop), len(smp), len(cases))
	}
	for i, c := range cases {
		if pop[i] != smp[i] {
			t.Errorf("%s: popcorn %+v, smp %+v", c.name, pop[i], smp[i])
		}
		if pop[i].badRange != c.badRange {
			t.Errorf("%s: ErrBadRange = %v, want %v", c.name, pop[i].badRange, c.badRange)
		}
	}
}
