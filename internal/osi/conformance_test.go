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
	"repro/internal/workload"
)

// bootAll returns one freshly booted OS per flavour implementing osi.OS, on
// a dual-socket 8-core machine that popcorn splits into 4 kernels.
func bootAll(t *testing.T) map[string]osi.OS {
	t.Helper()
	return bootAllCost(t, hw.DefaultCostModel())
}

// bootAllCost is bootAll on a machine with the given cost model.
func bootAllCost(t *testing.T, cost hw.CostModel) map[string]osi.OS {
	t.Helper()
	oses := make(map[string]osi.OS, len(boots))
	for name, boot := range boots {
		o, err := boot(hw.Topology{Cores: 8, NUMANodes: 2}, 4, cost)
		if err != nil {
			t.Fatalf("Boot %s: %v", name, err)
		}
		t.Cleanup(o.Close)
		oses[name] = o
	}
	return oses
}

// booted is an OS a test booted, and must Close.
type booted interface {
	osi.OS
	Close()
}

// boots boots each flavour on topo with the given costs; popcorn splits it
// into kernels kernels.
var boots = map[string]func(topo hw.Topology, kernels int, cost hw.CostModel) (booted, error){
	"popcorn": func(topo hw.Topology, kernels int, cost hw.CostModel) (booted, error) {
		machine, err := hw.NewMachine(topo, cost)
		if err != nil {
			return nil, err
		}
		cc := kernel.DefaultClusterConfig(machine)
		cc.Kernels = kernels
		cc.FramesPerKernel = 4096
		return core.Boot(core.Config{Topology: topo, Cost: &cost, Cluster: &cc})
	},
	"smp": func(topo hw.Topology, _ int, cost hw.CostModel) (booted, error) {
		return smp.Boot(smp.Config{Topology: topo, Cost: &cost, FramesPerNode: 8192})
	},
}

// program is a conformance program: it spawns the threads of the process pr
// on o, run by the driver proc p, and they record what they observe in out.
type program[T any] func(o osi.OS, p *sim.Proc, pr osi.Process, out *T) error

// outcome is what one OS's run of a program left: the program's result and
// the OS's digest.
type outcome[T any] struct {
	res    T
	digest uint64
}

// runEach runs prog as one process on each flavour, booted by bootAllCost
// with cost: the driver starts the process, prog spawns its threads, and the
// driver waits for them and closes the process. It fails t on any OS's
// error and returns each OS's outcome.
func runEach[T any](t *testing.T, cost hw.CostModel, prog program[T]) map[string]outcome[T] {
	t.Helper()
	outs := make(map[string]outcome[T])
	for name, o := range bootAllCost(t, cost) {
		var out T
		err := workload.Drive(o, "program", func(p *sim.Proc) error {
			pr, err := o.StartProcess(p)
			if err != nil {
				return err
			}
			if err := prog(o, p, pr, &out); err != nil {
				return err
			}
			pr.Wait(p)
			return pr.Close(p)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outs[name] = outcome[T]{res: out, digest: o.Digest()}
	}
	return outs
}

// agree reports how popcorn's outcome differs from smp's, or nil.
func agree[T comparable](outs map[string]outcome[T]) error {
	pop, smp := outs["popcorn"], outs["smp"]
	if pop.res != smp.res {
		return fmt.Errorf("results differ:\npopcorn: %+v\nsmp:     %+v", pop.res, smp.res)
	}
	if pop.digest != smp.digest {
		return fmt.Errorf("digests differ: popcorn %#x, smp %#x", pop.digest, smp.digest)
	}
	return nil
}

// conform is the cross-OS oracle: it runs prog on both flavours at default
// costs and requires the same result and the same digest — the paper's
// claim that the replicated kernel is indistinguishable from SMP Linux, for
// what the threads saw and for the memory and layout they left. It returns
// the result.
func conform[T comparable](t *testing.T, prog program[T]) T {
	t.Helper()
	outs := runEach(t, hw.DefaultCostModel(), prog)
	if err := agree(outs); err != nil {
		t.Fatal(err)
	}
	return outs["popcorn"].res
}

// TestConformanceIdenticalSemantics: loads, stores, atomics and the error
// semantics of unmapped, protected and unmapped-again pages, with four
// incrementers spread over the kernels.
func TestConformanceIdenticalSemantics(t *testing.T) {
	type result struct {
		finalSum   int64
		segv       bool
		access     bool
		casSecond  bool
		fetchAddV  int64
		afterUnmap bool
	}
	got := conform(t, func(o osi.OS, p *sim.Proc, pr osi.Process, out *result) error {
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
			if out.finalSum, err = th.Load(base); err != nil {
				panic(err)
			}
			_, err = th.Load(0xbad0000)
			out.segv = errors.Is(err, vm.ErrSegv)
			if err := th.Mprotect(base+hw.PageSize, hw.PageSize, mem.ProtRead); err != nil {
				panic(err)
			}
			out.access = errors.Is(th.Store(base+hw.PageSize, 1), vm.ErrAccess)
			if ok, err := th.CompareAndSwap(base+2*hw.PageSize, 0, 5); err != nil || !ok {
				panic(fmt.Sprintf("first CAS = %v, %v", ok, err))
			}
			out.casSecond, _ = th.CompareAndSwap(base+2*hw.PageSize, 0, 6)
			out.fetchAddV, _ = th.FetchAdd(base+2*hw.PageSize, 10)
			if err := th.Munmap(base+3*hw.PageSize, hw.PageSize); err != nil {
				panic(err)
			}
			_, err = th.Load(base + 3*hw.PageSize)
			out.afterUnmap = errors.Is(err, vm.ErrSegv)
		}); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if err := pr.Spawn(p, i%o.Kernels(), func(th osi.Thread) {
				ready.Wait(th.Proc())
				for j := 0; j < 10; j++ {
					if _, err := th.FetchAdd(base, 1); err != nil {
						panic(err)
					}
				}
				done.Done()
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if got.finalSum != 40 {
		t.Fatalf("finalSum = %d, want 40", got.finalSum)
	}
	if !got.segv || !got.access || !got.afterUnmap {
		t.Fatalf("error semantics wrong: %+v", got)
	}
	if got.casSecond || got.fetchAddV != 5 {
		t.Fatalf("atomic semantics wrong: %+v", got)
	}
}

// TestConformanceSignalsAndRequeue checks the newer syscall surface —
// cross-thread signals and FUTEX_CMP_REQUEUE, onto another word and onto the
// word the waiters wait on — behaves identically on both OS flavours.
func TestConformanceSignalsAndRequeue(t *testing.T) {
	type result struct {
		sigs      int
		sigVal    int
		woken     int
		requeued  int
		badExpect bool
		// A requeue of three waiters onto their own word: what it reports,
		// and the order the waiters wake in (requeue first, then one wake
		// at a time).
		selfWoken, selfRequeued int
		selfOrder               string
	}
	got := conform(t, func(o osi.OS, p *sim.Proc, pr osi.Process, out *result) error {
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
		// The victim waits for a signal on another kernel when there is one.
		_ = pr.Spawn(p, min(1, o.Kernels()-1), func(th osi.Thread) {
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
		return pr.Spawn(p, 0, func(th osi.Thread) {
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
			// Three more waiters on word 0, requeued onto word 0: one
			// wakes, and the other two move to its tail once each.
			again := sim.NewWaitGroup()
			for i := 0; i < 3; i++ {
				again.Add(1)
				_ = th.Spawn(0, func(wt osi.Thread) {
					again.Done()
					if err := wt.FutexWait(base, 0); err != nil {
						panic(err)
					}
					out.selfOrder += fmt.Sprint(i)
				})
			}
			again.Wait(th.Proc())
			th.Compute(50 * time.Microsecond)
			if out.selfWoken, out.selfRequeued, err = th.FutexRequeue(base, base, 0, 1, 10); err != nil {
				panic(err)
			}
			for i := 0; i < 2; i++ {
				th.Compute(50 * time.Microsecond)
				if _, err := th.FutexWake(base, 1); err != nil {
					panic(err)
				}
			}
		})
	})
	if got.sigs != 1 || got.sigVal != 10 {
		t.Fatalf("signal outcome wrong: %+v", got)
	}
	if !got.badExpect {
		t.Fatalf("requeue with wrong expect did not error: %+v", got)
	}
	if got.woken != 1 || got.requeued != 2 {
		t.Fatalf("requeue outcome = woken %d, requeued %d; want 1, 2", got.woken, got.requeued)
	}
	if got.selfWoken != 1 || got.selfRequeued != 2 || got.selfOrder != "012" {
		t.Fatalf("requeue onto itself = woken %d, requeued %d, wake order %q; want 1, 2, \"012\"", got.selfWoken, got.selfRequeued, got.selfOrder)
	}
}

// TestConformanceStoreRacingMprotect runs a store against an mprotect that
// revokes its write right, with line transfers slowed to a millisecond so the
// store is still in flight when the mprotect returns. A load after the
// mprotect reads the word; the store must then either fail with ErrAccess or
// be ordered before that load. A store that returns nil after the load read
// the old word has written through a right the mprotect had already taken,
// and no sequential order explains the history. The race is the point, so
// each OS may order it either way: the checks are per OS, and no digest is
// compared.
func TestConformanceStoreRacingMprotect(t *testing.T) {
	type result struct {
		storeErr     error
		loaded, word int64
	}
	cost := hw.DefaultCostModel()
	cost.LineTransferLocal, cost.LineTransferRemote = time.Millisecond, time.Millisecond
	outs := runEach(t, cost, func(o osi.OS, p *sim.Proc, pr osi.Process, out *result) error {
		var addr mem.Addr
		written, protected, stored := sim.NewWaitGroup(), sim.NewWaitGroup(), sim.NewWaitGroup()
		written.Add(1)
		protected.Add(1)
		stored.Add(1)
		// The writer stores 5 and keeps its core while it waits, so the
		// store of 9 runs on another core and must pull the line; then it
		// loads the word once the mprotect has returned.
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			addr = a
			if err := th.Store(addr, 5); err != nil {
				panic(err)
			}
			written.Done()
			protected.Wait(th.Proc())
			if out.loaded, err = th.Load(addr); err != nil {
				panic(err)
			}
			stored.Wait(th.Proc())
			if out.word, err = th.Load(addr); err != nil {
				panic(err)
			}
		}); err != nil {
			return err
		}
		written.Wait(p)
		if err := pr.Spawn(p, min(1, o.Kernels()-1), func(th osi.Thread) {
			out.storeErr = th.Store(addr, 9)
			stored.Done()
		}); err != nil {
			return err
		}
		return pr.Spawn(p, 0, func(th osi.Thread) {
			th.Compute(time.Microsecond)
			if err := th.Mprotect(addr, hw.PageSize, mem.ProtRead); err != nil {
				panic(err)
			}
			protected.Done()
		})
	})
	for name, o := range outs {
		out := o.res
		t.Logf("%s: store %v, load after mprotect %d, word at the end %d", name, out.storeErr, out.loaded, out.word)
		switch {
		case out.storeErr == nil && out.loaded != 9:
			t.Errorf("%s: the store returned nil but the load after the mprotect read %d, and the word then reads %d: the store wrote through a revoked right",
				name, out.loaded, out.word)
		case out.storeErr != nil && !errors.Is(out.storeErr, vm.ErrAccess):
			t.Errorf("%s: store = %v, want nil or %v", name, out.storeErr, vm.ErrAccess)
		case out.storeErr != nil && (out.loaded != 5 || out.word != 5):
			t.Errorf("%s: the refused store left the word at %d (load after the mprotect %d), want 5", name, out.word, out.loaded)
		}
	}
}

// TestConformanceSbrk checks brk semantics: grow, touch, shrink, then access
// below and above the break.
func TestConformanceSbrk(t *testing.T) {
	type result struct {
		old1, old2, old3 mem.Addr
		val              int64
		aboveSegv        bool
	}
	got := conform(t, func(_ osi.OS, p *sim.Proc, pr osi.Process, out *result) error {
		return pr.Spawn(p, 0, func(th osi.Thread) {
			var err error
			if out.old1, err = th.Sbrk(3 * hw.PageSize); err != nil {
				panic(err)
			}
			if err := th.Store(out.old1, 77); err != nil {
				panic(err)
			}
			if err := th.Store(out.old1+2*hw.PageSize, 88); err != nil {
				panic(err)
			}
			if out.old2, err = th.Sbrk(-hw.PageSize); err != nil { // shrink: drop page 2
				panic(err)
			}
			if out.val, err = th.Load(out.old1); err != nil {
				panic(err)
			}
			_, err = th.Load(out.old1 + 2*hw.PageSize)
			out.aboveSegv = err != nil
			if out.old3, err = th.Sbrk(0); err != nil {
				panic(err)
			}
		})
	})
	if got.val != 77 || !got.aboveSegv {
		t.Fatalf("sbrk outcome wrong: %+v", got)
	}
	if got.old3 != got.old1+2*hw.PageSize {
		t.Fatalf("final break = %#x, want %#x", uint64(got.old3), uint64(got.old1+2*hw.PageSize))
	}
}

// TestConformanceBadRanges runs the layout calls that must be rejected or
// ignored on both flavours: each must reach the same ErrBadRange verdict,
// and the next mapping after it must land at the same address — a rejected
// call moves no cursor, and both flavours place mappings alike. The thread
// issues every case on kernel 0, the process's origin, and again after
// migrating to kernel 1, a replica that forwards its layout calls to the
// origin: the forwarded error keeps its identity. SMP does not migrate.
func TestConformanceBadRanges(t *testing.T) {
	type verdict struct {
		badRange bool
		next     mem.Addr
	}
	cases := [...]struct {
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
	// One verdict per case on kernel 0, then on kernel 1.
	type verdicts [2][len(cases)]verdict
	got := conform(t, func(o osi.OS, p *sim.Proc, pr osi.Process, out *verdicts) error {
		return pr.Spawn(p, 0, func(th osi.Thread) {
			base, err := th.Mmap(2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			for k := range out {
				if err := th.Migrate(k); err != nil && !errors.Is(err, osi.ErrUnsupported) {
					panic(err)
				}
				for i, c := range cases {
					err := c.call(th, base)
					if err != nil && !errors.Is(err, vm.ErrBadRange) {
						t.Errorf("%s: kernel %d: %s: %v, want ErrBadRange or nil", o.Name(), k, c.name, err)
					}
					out[k][i].badRange = err != nil
					if out[k][i].next, err = th.Mmap(hw.PageSize, mem.ProtRead); err != nil {
						panic(err)
					}
				}
			}
			if o.Name() == "popcorn" && th.KernelID() != 1 {
				t.Errorf("popcorn: thread ended on kernel %d, want the replica 1", th.KernelID())
			}
		})
	})
	for k := range got {
		for i, c := range cases {
			if got[k][i].badRange != c.badRange {
				t.Errorf("kernel %d: %s: ErrBadRange = %v, want %v", k, c.name, got[k][i].badRange, c.badRange)
			}
		}
	}
}
