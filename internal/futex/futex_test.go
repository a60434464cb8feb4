package futex

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// testResolver maps all groups to origin kernel 0 and looks up spaces in
// the per-kernel VM services.
type testResolver struct {
	vms  []*vm.Service
	node msg.NodeID
}

func (r *testResolver) FutexHome(gid vm.GID) (msg.NodeID, bool) { return 0, true }

func (r *testResolver) GroupSpace(gid vm.GID) (*vm.Space, bool) {
	return r.vms[r.node].Space(gid)
}

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
	vms    []*vm.Service
	futexs []*Service
	spaces []*vm.Space
}

func newEnv(t *testing.T, kernels int) *env {
	t.Helper()
	e := sim.NewEngine(sim.WithSeed(3))
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
	ev := &env{e: e}
	for k := 0; k < kernels; k++ {
		alloc, _ := mem.NewFrameAllocator(machine.Topology.NodeOf(cores[k]), int64(k)<<20, 256)
		ev.vms = append(ev.vms, vm.NewService(e, machine, fabric, msg.NodeID(k), &simpleFrames{a: alloc}, 2, stats.NewRegistry()))
	}
	for k := 0; k < kernels; k++ {
		res := &testResolver{vms: ev.vms, node: msg.NodeID(k)}
		ev.futexs = append(ev.futexs, NewService(e, fabric, msg.NodeID(k), cores[k], res, stats.NewRegistry()))
	}
	sp, err := ev.vms[0].Create(1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	ev.spaces = append(ev.spaces, sp)
	for k := 1; k < kernels; k++ {
		r, err := ev.vms[k].Attach(1, 0)
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		if err := ev.vms[0].RegisterReplica(1, msg.NodeID(k)); err != nil {
			t.Fatalf("RegisterReplica: %v", err)
		}
		ev.spaces = append(ev.spaces, r)
	}
	return ev
}

func TestWaitReturnsEagainOnChangedValue(t *testing.T) {
	ev := newEnv(t, 2)
	ev.e.Spawn("test", func(p *sim.Proc) {
		addr, _ := ev.spaces[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		_ = ev.spaces[0].Store(p, 0, addr, 5)
		if err := ev.futexs[0].Wait(p, 1, addr, 4); !errors.Is(err, ErrWouldBlock) {
			t.Errorf("local Wait with wrong expect = %v, want ErrWouldBlock", err)
		}
		if err := ev.futexs[1].Wait(p, 1, addr, 4); err != ErrWouldBlock {
			t.Errorf("remote Wait with wrong expect = %v, want ErrWouldBlock", err)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWaitWakeLocal(t *testing.T) {
	ev := newEnv(t, 2)
	var wokenAt, wakeAt sim.Time
	ev.e.Spawn("setup", func(p *sim.Proc) {
		addr, _ := ev.spaces[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		ev.e.Spawn("waiter", func(wp *sim.Proc) {
			if err := ev.futexs[0].Wait(wp, 1, addr, 0); err != nil {
				t.Errorf("Wait: %v", err)
			}
			wokenAt = wp.Now()
		})
		ev.e.Spawn("waker", func(kp *sim.Proc) {
			kp.Sleep(time.Millisecond)
			wakeAt = kp.Now()
			n, err := ev.futexs[0].Wake(kp, 1, addr, 1)
			if err != nil || n != 1 {
				t.Errorf("Wake = %d, %v; want 1", n, err)
			}
		})
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokenAt < wakeAt {
		t.Fatalf("waiter woke at %v before the wake at %v", wokenAt, wakeAt)
	}
}

func TestWaitWakeCrossKernel(t *testing.T) {
	ev := newEnv(t, 3)
	woken := 0
	ev.e.Spawn("setup", func(p *sim.Proc) {
		addr, _ := ev.spaces[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		// Waiters on kernels 1 and 2, waker on kernel 0 (the home).
		for k := 1; k <= 2; k++ {
			k := k
			ev.e.Spawn(fmt.Sprintf("waiter%d", k), func(wp *sim.Proc) {
				if err := ev.futexs[k].Wait(wp, 1, addr, 0); err != nil {
					t.Errorf("waiter %d: %v", k, err)
					return
				}
				woken++
			})
		}
		ev.e.Spawn("waker", func(kp *sim.Proc) {
			kp.Sleep(time.Millisecond)
			n, err := ev.futexs[0].Wake(kp, 1, addr, 10)
			if err != nil || n != 2 {
				t.Errorf("Wake = %d, %v; want 2", n, err)
			}
		})
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woken != 2 {
		t.Fatalf("woken = %d, want 2", woken)
	}
}

func TestWakeLimitsCount(t *testing.T) {
	ev := newEnv(t, 2)
	order := 0
	ev.e.Spawn("setup", func(p *sim.Proc) {
		addr, _ := ev.spaces[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for i := 0; i < 3; i++ {
			ev.e.Spawn("waiter", func(wp *sim.Proc) {
				if err := ev.futexs[1].Wait(wp, 1, addr, 0); err == nil {
					order++
				}
			})
		}
		ev.e.Spawn("waker", func(kp *sim.Proc) {
			kp.Sleep(time.Millisecond)
			if n, _ := ev.futexs[0].Wake(kp, 1, addr, 1); n != 1 {
				t.Errorf("first Wake = %d, want 1", n)
			}
			kp.Sleep(time.Millisecond)
			if order != 1 {
				t.Errorf("after Wake(1): %d woken, want 1", order)
			}
			if n, _ := ev.futexs[0].Wake(kp, 1, addr, 10); n != 2 {
				t.Errorf("second Wake = %d, want 2", n)
			}
		})
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if order != 3 {
		t.Fatalf("woken = %d, want 3", order)
	}
}

func TestWakeWithNoWaiters(t *testing.T) {
	ev := newEnv(t, 2)
	ev.e.Spawn("test", func(p *sim.Proc) {
		addr, _ := ev.spaces[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if n, err := ev.futexs[0].Wake(p, 1, addr, 5); err != nil || n != 0 {
			t.Errorf("Wake on empty queue = %d, %v", n, err)
		}
		if n, err := ev.futexs[1].Wake(p, 1, addr, 5); err != nil || n != 0 {
			t.Errorf("remote Wake on empty queue = %d, %v", n, err)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWaitOnUnmappedAddressErrors: the home's failed word load reaches the
// remote waiter as a futex error that still unwraps to vm's sentinel.
func TestWaitOnUnmappedAddressErrors(t *testing.T) {
	ev := newEnv(t, 2)
	ev.e.Spawn("test", func(p *sim.Proc) {
		err := ev.futexs[1].Wait(p, 1, 0xbad000, 0)
		if !errors.Is(err, vm.ErrSegv) || errors.Is(err, ErrWouldBlock) {
			t.Errorf("Wait on unmapped = %v, want ErrSegv", err)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "futex: ") {
			t.Errorf("Wait on unmapped = %q, want a futex: error", err)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFutexMutexNoLostWakeups builds a real mutex out of CAS + futex (the
// glibc low-level lock) and has threads across kernels hammer a critical
// section. Mutual exclusion violations or a deadlock would fail the run —
// this is the no-lost-wakeup property end to end.
func TestFutexMutexNoLostWakeups(t *testing.T) {
	const (
		kernels    = 4
		perKernel  = 3
		iterations = 8
	)
	ev := newEnv(t, kernels)
	inCS := 0
	total := 0
	done := sim.NewWaitGroup()
	done.Add(kernels * perKernel)
	ev.e.Spawn("setup", func(p *sim.Proc) {
		lockAddr, _ := ev.spaces[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for k := 0; k < kernels; k++ {
			for i := 0; i < perKernel; i++ {
				k := k
				ev.e.Spawn(fmt.Sprintf("locker-%d-%d", k, i), func(lp *sim.Proc) {
					defer done.Done()
					sp, fx := ev.spaces[k], ev.futexs[k]
					core := 2 * k
					for n := 0; n < iterations; n++ {
						// Lock: 0=unlocked, 1=locked. Spin once via CAS,
						// then futex-wait.
						for {
							swapped, err := sp.CompareAndSwap(lp, core, lockAddr, 0, 1)
							if err != nil {
								t.Errorf("CAS: %v", err)
								return
							}
							if swapped {
								break
							}
							if err := fx.Wait(lp, 1, lockAddr, 1); err != nil && !errors.Is(err, ErrWouldBlock) {
								t.Errorf("Wait: %v", err)
								return
							}
						}
						inCS++
						if inCS != 1 {
							t.Errorf("mutual exclusion violated: %d threads in CS", inCS)
						}
						lp.Sleep(2 * time.Microsecond)
						total++
						inCS--
						if err := sp.Store(lp, core, lockAddr, 0); err != nil {
							t.Errorf("unlock Store: %v", err)
							return
						}
						if _, err := fx.Wake(lp, 1, lockAddr, 1); err != nil {
							t.Errorf("Wake: %v", err)
							return
						}
					}
				})
			}
		}
		done.Wait(p)
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := kernels * perKernel * iterations; total != want {
		t.Fatalf("completed %d critical sections, want %d", total, want)
	}
}

func TestRequeueMovesWaiters(t *testing.T) {
	ev := newEnv(t, 3)
	woken := make([]int, 4)
	ev.e.Spawn("setup", func(p *sim.Proc) {
		from, _ := ev.spaces[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		to, _ := ev.spaces[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		for i := 0; i < 4; i++ {
			i := i
			k := 1 + i%2 // waiters on kernels 1 and 2
			ev.e.Spawn(fmt.Sprintf("waiter%d", i), func(wp *sim.Proc) {
				if err := ev.futexs[k].Wait(wp, 1, from, 0); err != nil {
					t.Errorf("waiter %d: %v", i, err)
					return
				}
				woken[i]++
			})
		}
		ev.e.Spawn("requeuer", func(rp *sim.Proc) {
			rp.Sleep(time.Millisecond)
			// Wrong expectation: EAGAIN, nothing moves.
			if _, _, err := ev.futexs[1].Requeue(rp, 1, from, to, 99, 1, 10); err != ErrWouldBlock {
				t.Errorf("remote requeue with wrong expect = %v, want ErrWouldBlock", err)
			}
			w, r, err := ev.futexs[1].Requeue(rp, 1, from, to, 0, 1, 10)
			if err != nil || w != 1 || r != 3 {
				t.Errorf("Requeue = %d woken, %d requeued, %v; want 1, 3", w, r, err)
			}
			rp.Sleep(time.Millisecond)
			total := woken[0] + woken[1] + woken[2] + woken[3]
			if total != 1 {
				t.Errorf("woken after requeue = %d, want 1", total)
			}
			// Waking the target key releases the requeued three.
			if n, err := ev.futexs[0].Wake(rp, 1, to, 10); err != nil || n != 3 {
				t.Errorf("Wake(to) = %d, %v; want 3", n, err)
			}
		})
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, w := range woken {
		if w != 1 {
			t.Fatalf("waiter %d woken %d times (%v)", i, w, woken)
		}
	}
}

func TestRequeueSameWordPair(t *testing.T) {
	// Requeue where from == to must not deadlock on the bucket locks.
	ev := newEnv(t, 2)
	ev.e.Spawn("test", func(p *sim.Proc) {
		addr, _ := ev.spaces[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if _, _, err := ev.futexs[0].Requeue(p, 1, addr, addr, 0, 1, 1); err != nil {
			t.Errorf("self-pair requeue: %v", err)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestDeadlockReportNamesBucket: a waiter stuck on a futex's home bucket is
// reported against futex.bucket, the label every bucket points at.
func TestDeadlockReportNamesBucket(t *testing.T) {
	ev := newEnv(t, 1)
	var addr mem.Addr
	ev.e.Spawn("setup", func(p *sim.Proc) {
		addr, _ = ev.spaces[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	b := ev.futexs[0].bucket(key{gid: 1, addr: addr})
	ev.e.Spawn("holder", func(p *sim.Proc) {
		b.mu.Lock(p)
		p.Suspend()
	})
	ev.e.Spawn("stuck", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		_ = ev.futexs[0].Wait(p, 1, addr, 0)
	})
	var dl *sim.DeadlockError
	if err := ev.e.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	if !slices.ContainsFunc(dl.Waits, func(w sim.ProcWait) bool {
		return w.Name == "stuck" && w.Resource == "futex.bucket" && w.HolderName == "holder"
	}) {
		t.Errorf("report does not name futex.bucket held by holder: %+v", dl.Waits)
	}
}
