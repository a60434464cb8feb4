package smp

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/futex"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

func boot(t *testing.T) *OS {
	t.Helper()
	os, err := Boot(Config{Topology: hw.Topology{Cores: 8, NUMANodes: 2}, FramesPerNode: 4096})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(os.Close)
	return os
}

// drive runs body in a driver proc through workload.Drive, which also
// requires every zone's frames back when the engine drains.
func drive(t *testing.T, os *OS, body func(p *sim.Proc)) {
	t.Helper()
	if err := workload.Drive(os, "driver", func(p *sim.Proc) error { body(p); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestBoot(t *testing.T) {
	os := boot(t)
	if os.Name() != "smp" || os.Kernels() != 1 {
		t.Fatalf("Name=%q Kernels=%d", os.Name(), os.Kernels())
	}
}

// TestBootRejectsMachineBeyondPTE: a PTE holds a 32-bit frame number and an
// 8-bit NUMA node; boot refuses a machine whose zones go past either, and a
// zone larger than the stride between zones.
func TestBootRejectsMachineBeyondPTE(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Topology: hw.Topology{Cores: 8, NUMANodes: 2}, FramesPerNode: 1<<31 - 1}, "the stride between parts"},
		{Config{Topology: hw.Topology{Cores: 256, NUMANodes: 256}}, "do not fit a 32-bit frame number"},
	} {
		if o, err := Boot(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Boot(%+v) = %v, want a refusal containing %q", tc.cfg, err, tc.want)
			if err == nil {
				o.Close()
			}
		}
	}
}

func TestMapStoreLoad(t *testing.T) {
	os := boot(t)
	drive(t, os, func(p *sim.Proc) {
		pr, err := os.StartProcess(p)
		if err != nil {
			t.Errorf("StartProcess: %v", err)
			return
		}
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			addr, err := th.Mmap(2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				t.Errorf("Mmap: %v", err)
				return
			}
			if err := th.Store(addr, 42); err != nil {
				t.Errorf("Store: %v", err)
			}
			if v, _ := th.Load(addr); v != 42 {
				t.Errorf("Load = %d", v)
			}
			if _, err := th.Load(0xdead000); !errors.Is(err, vm.ErrSegv) {
				t.Errorf("unmapped Load = %v, want segv", err)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
}

func TestThreadsShareMemoryCoherently(t *testing.T) {
	os := boot(t)
	drive(t, os, func(p *sim.Proc) {
		pr, _ := os.StartProcess(p)
		var addr mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		done := sim.NewWaitGroup()
		done.Add(4)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			addr, _ = th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			ready.Done()
			done.Wait(th.Proc())
			if v, _ := th.Load(addr); v != 4*25 {
				t.Errorf("counter = %d, want 100", v)
			}
		})
		for i := 0; i < 4; i++ {
			_ = pr.Spawn(p, 0, func(th osi.Thread) {
				ready.Wait(th.Proc())
				for j := 0; j < 25; j++ {
					if _, err := th.FetchAdd(addr, 1); err != nil {
						t.Errorf("FetchAdd: %v", err)
						return
					}
				}
				done.Done()
			})
		}
		pr.Wait(p)
		_ = pr.Close(p)
	})
}

func TestMunmapThenAccessSegfaults(t *testing.T) {
	os := boot(t)
	drive(t, os, func(p *sim.Proc) {
		pr, _ := os.StartProcess(p)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			addr, _ := th.Mmap(2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			_ = th.Store(addr, 1)
			_ = th.Store(addr+hw.PageSize, 2)
			if err := th.Munmap(addr, hw.PageSize); err != nil {
				t.Errorf("Munmap: %v", err)
			}
			if _, err := th.Load(addr); !errors.Is(err, vm.ErrSegv) {
				t.Errorf("Load after munmap = %v", err)
			}
			if v, err := th.Load(addr + hw.PageSize); err != nil || v != 2 {
				t.Errorf("surviving page = %d, %v", v, err)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
}

func TestMprotectEnforced(t *testing.T) {
	os := boot(t)
	drive(t, os, func(p *sim.Proc) {
		pr, _ := os.StartProcess(p)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			addr, _ := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			_ = th.Store(addr, 9)
			if err := th.Mprotect(addr, hw.PageSize, mem.ProtRead); err != nil {
				t.Errorf("Mprotect: %v", err)
			}
			if err := th.Store(addr, 10); !errors.Is(err, vm.ErrAccess) {
				t.Errorf("Store on RO = %v", err)
			}
			if err := th.Mprotect(addr, hw.PageSize, mem.ProtRead|mem.ProtWrite); err != nil {
				t.Errorf("Mprotect back: %v", err)
			}
			if err := th.Store(addr, 10); err != nil {
				t.Errorf("Store after re-enable: %v", err)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
}

func TestFutexWaitWake(t *testing.T) {
	os := boot(t)
	var wokenAt, wakeAt sim.Time
	drive(t, os, func(p *sim.Proc) {
		pr, _ := os.StartProcess(p)
		var addr mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			addr, _ = th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			ready.Done()
			if err := th.FutexWait(addr, 0); err != nil {
				t.Errorf("FutexWait: %v", err)
			}
			wokenAt = th.Proc().Now()
		})
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			ready.Wait(th.Proc())
			th.Compute(time.Millisecond)
			_ = th.Store(addr, 1)
			wakeAt = th.Proc().Now()
			if n, err := th.FutexWake(addr, 1); err != nil || n != 1 {
				t.Errorf("FutexWake = %d, %v", n, err)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if wokenAt < wakeAt {
		t.Fatalf("woken at %v before wake at %v", wokenAt, wakeAt)
	}
}

func TestFutexEagain(t *testing.T) {
	os := boot(t)
	drive(t, os, func(p *sim.Proc) {
		pr, _ := os.StartProcess(p)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			addr, _ := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			_ = th.Store(addr, 5)
			if err := th.FutexWait(addr, 0); !errors.Is(err, futex.ErrWouldBlock) {
				t.Errorf("FutexWait on changed value = %v", err)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
}

func TestFutexIsolatedBetweenProcesses(t *testing.T) {
	// Two processes use the same virtual address: a wake in one must not
	// wake the other's waiter even though they hash to the same bucket.
	os := boot(t)
	crossWake := false
	drive(t, os, func(p *sim.Proc) {
		prA, _ := os.StartProcess(p)
		prB, _ := os.StartProcess(p)
		var addrA, addrB mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(2)
		_ = prA.Spawn(p, 0, func(th osi.Thread) {
			addrA, _ = th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			ready.Done()
			if err := th.FutexWait(addrA, 0); err == nil {
				crossWake = true // must only happen via A's own wake below
			}
		})
		_ = prB.Spawn(p, 0, func(th osi.Thread) {
			addrB, _ = th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			ready.Done()
			th.Proc().Sleep(time.Millisecond)
			// B wakes its own address — which equals A's numerically.
			if addrA != addrB {
				t.Errorf("test setup: addresses differ (%#x vs %#x)", uint64(addrA), uint64(addrB))
			}
			if n, _ := th.FutexWake(addrB, 10); n != 0 {
				t.Errorf("B woke %d waiters of A", n)
			}
		})
		prB.Wait(p)
		// Now wake A properly so the test can finish.
		_ = prA.Spawn(p, 0, func(th osi.Thread) {
			if _, err := th.FutexWake(addrA, 1); err != nil {
				t.Errorf("A wake: %v", err)
			}
		})
		prA.Wait(p)
		_ = prA.Close(p)
		_ = prB.Close(p)
	})
	if crossWake {
		// A woke: fine only if it was A's own wake; the error cases above
		// would have flagged B's cross-wake already.
		_ = crossWake
	}
}

// futexScript runs waiters of two processes, A and B, each waiting on one of
// its words after a staggered delay, then each process's wakers in turn, one
// operation a millisecond apart. It returns the waiters in the order they
// woke, each tagged with the operation that woke it.
type futexScript struct {
	// words are the futex words, offsets into one mapping every process makes
	// at the same address.
	words   map[string]mem.Addr
	waiters []futexWaiterSpec // in the order they queue
	ops     []futexOpSpec     // in the order they run
}

type futexWaiterSpec struct {
	name, proc, word string
}

type futexOpSpec struct {
	proc string
	// wake wakes up to n waiters of word; requeue (to != "") wakes up to n
	// and moves up to move of the rest onto to.
	word, to string
	n, move  int
	// want is the operation's (woken, requeued) count.
	want [2]int
}

func (fs futexScript) run(t *testing.T) []string {
	t.Helper()
	os := boot(t)
	var woke []string
	op := -1
	var base mem.Addr // where every process maps its words
	drive(t, os, func(p *sim.Proc) {
		procs := map[string]osi.Process{}
		for _, name := range []string{"A", "B"} {
			pr, err := os.StartProcess(p)
			if err != nil {
				t.Errorf("StartProcess: %v", err)
				return
			}
			procs[name] = pr
			// Map and fault in the words first, so that every waiter's
			// enqueue costs the same and they queue in script order.
			_ = pr.Spawn(p, 0, func(th osi.Thread) {
				at, err := th.Mmap(8*hw.PageSize, mem.ProtRead|mem.ProtWrite)
				if base == 0 {
					base = at
				}
				if err != nil || at != base {
					t.Errorf("Mmap = %#x, %v; want every process's words at %#x", uint64(at), err, uint64(base))
				}
				for _, w := range fs.words {
					_ = th.Store(base+w, 0)
				}
			})
			pr.Wait(p)
		}
		for i, ws := range fs.waiters {
			_ = procs[ws.proc].Spawn(p, 0, func(th osi.Thread) {
				th.Proc().Sleep(time.Duration(i+1) * 100 * time.Microsecond)
				if err := th.FutexWait(base+fs.words[ws.word], 0); err != nil {
					t.Errorf("%s: FutexWait: %v", ws.name, err)
				}
				woke = append(woke, fmt.Sprintf("%s@%d", ws.name, op))
			})
		}
		p.Sleep(time.Duration(len(fs.waiters)+1) * 100 * time.Microsecond)
		for i, o := range fs.ops {
			_ = procs[o.proc].Spawn(p, 0, func(th osi.Thread) {
				op = i
				var got [2]int
				var err error
				if o.to == "" {
					got[0], err = th.FutexWake(base+fs.words[o.word], o.n)
				} else {
					got[0], got[1], err = th.FutexRequeue(base+fs.words[o.word], base+fs.words[o.to], 0, o.n, o.move)
				}
				if err != nil || got != o.want {
					t.Errorf("op %d (%+v): %v, %v; want %v", i, o, got, err, o.want)
				}
			})
			p.Sleep(time.Millisecond)
		}
		for _, pr := range procs {
			pr.Wait(p)
			_ = pr.Close(p)
		}
	})
	return woke
}

// TestFutexTableSharedBuckets drives the futex hash table with waiters of two
// processes queued on one word, on a second word in the same bucket, and
// requeued onto a word in another bucket: a wake or requeue takes only its
// own process's waiters, oldest first, and leaves every other waiter queued
// in its place, once.
func TestFutexTableSharedBuckets(t *testing.T) {
	fs := futexScript{
		words: map[string]mem.Addr{
			"x": 0,
			"y": futexBuckets * hw.CacheLineSize, // x's bucket
			"z": hw.CacheLineSize,                // the next bucket
		},
		waiters: []futexWaiterSpec{
			{"A1", "A", "x"}, {"B1", "B", "x"}, {"A2", "A", "x"}, {"A3", "A", "x"},
			{"B2", "B", "x"}, {"A4", "A", "x"}, {"A5", "A", "x"},
			{"A6", "A", "y"}, {"B3", "B", "y"}, {"A7", "A", "y"}, {"B4", "B", "y"},
		},
		ops: []futexOpSpec{
			{proc: "A", word: "x", n: 2, want: [2]int{2, 0}},                   // 0: A1, A2
			{proc: "A", word: "x", to: "z", n: 1, move: 1, want: [2]int{1, 1}}, // 1: A3; A4 → z
			{proc: "A", word: "y", n: 1, want: [2]int{1, 0}},                   // 2: A6
			{proc: "B", word: "y", to: "z", n: 0, move: 1, want: [2]int{0, 1}}, // 3: B3 → z
			{proc: "B", word: "x", n: 1, want: [2]int{1, 0}},                   // 4: B1
			{proc: "A", word: "z", n: 5, want: [2]int{1, 0}},                   // 5: A4
			{proc: "B", word: "z", n: 5, want: [2]int{1, 0}},                   // 6: B3
			{proc: "A", word: "x", n: 5, want: [2]int{1, 0}},                   // 7: A5
			{proc: "A", word: "y", to: "z", n: 1, move: 5, want: [2]int{1, 0}}, // 8: A7
			{proc: "B", word: "y", to: "z", n: 0, move: 5, want: [2]int{0, 1}}, // 9: B4 → z
			{proc: "B", word: "x", to: "z", n: 5, move: 5, want: [2]int{1, 0}}, // 10: B2
			{proc: "B", word: "z", n: 5, want: [2]int{1, 0}},                   // 11: B4
			{proc: "A", word: "z", n: 5, want: [2]int{0, 0}},                   // 12: none left
		},
	}
	want := "A1@0 A2@0 A3@1 A6@2 B1@4 A4@5 B3@6 A5@7 A7@8 B2@10 B4@11"
	if got := strings.Join(fs.run(t), " "); got != want {
		t.Fatalf("woken %s\nwant  %s", got, want)
	}
}

// TestFutexRequeueOntoItself requeues waiters onto the word they wait on: the
// requeued ones go to the back of its queue, as they do on the replicated
// kernel, rather than out of every queue.
func TestFutexRequeueOntoItself(t *testing.T) {
	fs := futexScript{
		words:   map[string]mem.Addr{"x": 0},
		waiters: []futexWaiterSpec{{"A1", "A", "x"}, {"A2", "A", "x"}, {"A3", "A", "x"}},
		ops: []futexOpSpec{
			{proc: "A", word: "x", to: "x", n: 1, move: 1, want: [2]int{1, 1}}, // 0: A1; A2 to the back
			{proc: "A", word: "x", n: 1, want: [2]int{1, 0}},                   // 1: A3
			{proc: "A", word: "x", n: 1, want: [2]int{1, 0}},                   // 2: A2
		},
	}
	want := "A1@0 A3@1 A2@2"
	if got := strings.Join(fs.run(t), " "); got != want {
		t.Fatalf("woken %s\nwant  %s", got, want)
	}
}

// Two requeues whose words share buckets crosswise: R1 moves a -> a+64
// (buckets 0 -> 1) and R2 moves a+64 -> a+16384 (buckets 1 -> 0). Address
// order is not a lock order here: it takes bucket 0 first for R1 and bucket
// 1 first for R2. A FutexWake(a) holding bucket 0 lines them up so that R1
// queues on bucket 0 while R2 takes bucket 1; the two requeues then wait on
// each other unless the buckets are locked in index order.
func TestFutexRequeueCrossedBucketsDoNotDeadlock(t *testing.T) {
	os := boot(t)
	drive(t, os, func(p *sim.Proc) {
		pr, _ := os.StartProcess(p)
		var a, gate mem.Addr
		mapped := sim.NewWaitGroup()
		mapped.Add(1)
		waiting := sim.NewWaitGroup()
		waiting.Add(3)
		gated := func(op func(th osi.Thread)) {
			_ = pr.Spawn(p, 0, func(th osi.Thread) {
				mapped.Wait(th.Proc())
				waiting.Done()
				if err := th.FutexWait(gate, 0); err != nil {
					t.Errorf("FutexWait(gate): %v", err)
				}
				op(th)
			})
		}
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			base, _ := th.Mmap(12*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			a = (base + 16<<10 - 1) &^ (16<<10 - 1)
			gate = a + hw.PageSize // its own page: memory holds one word per page
			mapped.Done()
			waiting.Wait(th.Proc())
			th.Compute(time.Millisecond)
			_ = th.Store(gate, 1)
			if n, err := th.FutexWake(gate, 3); err != nil || n != 3 {
				t.Errorf("FutexWake(gate) = %d, %v; want all 3 released", n, err)
			}
		})
		gated(func(th osi.Thread) { _, _ = th.FutexWake(a, 1) })
		for _, r := range [][2]mem.Addr{{0, hw.CacheLineSize}, {hw.CacheLineSize, 16 << 10}} {
			gated(func(th osi.Thread) {
				if w, q, err := th.FutexRequeue(a+r[0], a+r[1], 0, 1, 1); w != 0 || q != 0 || err != nil {
					t.Errorf("FutexRequeue(a+%#x, a+%#x) = %d, %d, %v; want 0, 0, nil", r[0], r[1], w, q, err)
				}
			})
		}
		pr.Wait(p)
		_ = pr.Close(p)
	})
}

func TestMigrateUnsupported(t *testing.T) {
	os := boot(t)
	drive(t, os, func(p *sim.Proc) {
		pr, _ := os.StartProcess(p)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			if err := th.Migrate(1); !errors.Is(err, osi.ErrUnsupported) {
				t.Errorf("Migrate(1) = %v, want ErrUnsupported", err)
			}
			if err := th.Migrate(0); err != nil {
				t.Errorf("Migrate(0) = %v, want nil no-op", err)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
}

func TestSpawnRejectsNonZeroKernel(t *testing.T) {
	os := boot(t)
	drive(t, os, func(p *sim.Proc) {
		pr, _ := os.StartProcess(p)
		if err := pr.Spawn(p, 3, func(th osi.Thread) {}); err == nil {
			t.Error("Spawn on kernel 3 accepted by single-kernel OS")
		}
		pr.Wait(p)
		_ = pr.Close(p)
	})
}

// TestCloseFreesFrames touches eight pages and closes the process: drive
// fails the test unless every zone has its frames back.
func TestCloseFreesFrames(t *testing.T) {
	os := boot(t)
	drive(t, os, func(p *sim.Proc) {
		pr, _ := os.StartProcess(p)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			addr, _ := th.Mmap(8*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			for i := 0; i < 8; i++ {
				_ = th.Store(addr+mem.Addr(i*hw.PageSize), 1)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
}

func TestContentionGrowsLockWait(t *testing.T) {
	// More concurrently cloning threads must produce more tasklist
	// contention — the mechanism behind F1.
	cloneStorm := func(threads int) time.Duration {
		os := boot(t)
		var wait time.Duration
		drive(t, os, func(p *sim.Proc) {
			pr, _ := os.StartProcess(p)
			done := sim.NewWaitGroup()
			done.Add(threads)
			for i := 0; i < threads; i++ {
				_ = pr.Spawn(p, 0, func(th osi.Thread) {
					for j := 0; j < 5; j++ {
						if err := th.Spawn(0, func(osi.Thread) {}); err != nil {
							t.Errorf("nested Spawn: %v", err)
							return
						}
					}
					done.Done()
				})
			}
			done.Wait(p)
			pr.Wait(p)
			_ = pr.Close(p)
			wait = os.tasklistWait
		})
		return wait
	}
	low, high := cloneStorm(1), cloneStorm(6)
	if high <= low {
		t.Fatalf("tasklist wait with 6 cloners (%v) not above 1 cloner (%v)", high, low)
	}
}

// TestRacedFirstTouchReturnsFrame runs F7's CG kernel at full scale, where
// threads first-touch the same shared pages at once: a fault that finds the
// entry installed after its frame allocation must give the frame back and
// use the entry, so Close leaves every zone empty (ComputeKernel's driver
// checks).
func TestRacedFirstTouchReturnsFrame(t *testing.T) {
	o, err := Boot(Config{Topology: hw.Topology{Cores: 64, NUMANodes: 2}, FramesPerNode: 1 << 18})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(o.Close)
	spec := workload.ComputeKernelSpec{Kernel: workload.KernelCG, Threads: 32, Iters: 4, Work: 5 * time.Millisecond}
	if _, err := workload.ComputeKernel(o, spec); err != nil {
		t.Fatalf("ComputeKernel: %v", err)
	}
}

// TestAccessRacingUnmapInstallsNothing pins a store whose page is unmapped
// while it pulls the line from the page's last writer: it lands on a zero
// word and leaves nothing behind, so the heap page mapped again at the same
// address reads zero.
func TestAccessRacingUnmapInstallsNothing(t *testing.T) {
	cost := hw.DefaultCostModel()
	cost.LineTransferLocal, cost.LineTransferRemote = time.Millisecond, time.Millisecond
	o, err := Boot(Config{Topology: hw.Topology{Cores: 8, NUMANodes: 2}, FramesPerNode: 4096, Cost: &cost})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(o.Close)
	drive(t, o, func(p *sim.Proc) {
		pr, _ := o.StartProcess(p)
		mm := pr.(*Process).mm
		var addr mem.Addr
		written := sim.NewWaitGroup()
		written.Add(1)
		// The writer keeps its core busy, so the storer runs on another one
		// and must pull the line.
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			addr, _ = th.Sbrk(hw.PageSize)
			if err := th.Store(addr, 5); err != nil {
				t.Errorf("first Store: %v", err)
			}
			written.Done()
			th.Compute(10 * time.Millisecond)
		})
		written.Wait(p)
		stored := sim.NewWaitGroup()
		stored.Add(1)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			if err := th.Store(addr, 9); err != nil {
				t.Errorf("racing Store: %v", err)
			}
			if _, ok := mm.pt.Lookup(mem.PageOf(addr)); ok {
				t.Error("the store reinstalled the unmapped page's entry")
			}
			stored.Done()
		})
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			th.Compute(time.Microsecond)
			if _, err := th.Sbrk(-hw.PageSize); err != nil {
				t.Errorf("shrinking Sbrk: %v", err)
			}
			stored.Wait(th.Proc())
			again, err := th.Sbrk(hw.PageSize)
			if err != nil || again != addr {
				t.Errorf("regrown heap at %#x, %v; want %#x", uint64(again), err, uint64(addr))
				return
			}
			if v, err := th.Load(again); err != nil || v != 0 {
				t.Errorf("Load of the remapped page = %d, %v; want 0, nil", v, err)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
}
