package workload

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
)

// ThreadBombSpec drives F1: concurrent thread creation. Each of Spawners
// threads creates Children threads (trivial bodies) and waits for them.
// On the replicated kernel each spawner's clones are kernel-local
// (partitioned task lists); on SMP every clone crosses the global
// task-list and PID locks.
type ThreadBombSpec struct {
	Spawners int
	Children int
}

// ThreadBomb runs the F1 workload on o.
func ThreadBomb(o osi.OS, spec ThreadBombSpec) (Result, error) {
	name := "threadbomb"
	return measure(o, name, spec.Spawners, func(p *sim.Proc, _ *Result) (uint64, error) {
		// One process per spawner: server-style independent processes.
		var procs []osi.Process
		for i := 0; i < spec.Spawners; i++ {
			pr, err := o.StartProcess(p)
			if err != nil {
				return 0, err
			}
			procs = append(procs, pr)
		}
		kernels := o.Kernels()
		for i, pr := range procs {
			k := i % kernels
			spawnErr := pr.Spawn(p, k, func(th osi.Thread) {
				for c := 0; c < spec.Children; c++ {
					if err := th.Spawn(th.KernelID(), func(osi.Thread) {}); err != nil {
						panic(fmt.Errorf("threadbomb child spawn: %w", err))
					}
				}
			})
			if spawnErr != nil {
				return 0, spawnErr
			}
		}
		if err := closeAll(p, procs); err != nil {
			return 0, err
		}
		return uint64(spec.Spawners * spec.Children), nil
	})
}

// MmapStormSpec drives F4: map/touch/unmap loops. Shared=false runs one
// process per thread (server-style, the paper's web-workload shape);
// Shared=true puts all threads in one process, which concentrates VMA
// operations at the group origin on the replicated kernel — the honest
// worst case for Popcorn's design.
type MmapStormSpec struct {
	Threads int
	Iters   int
	Pages   int
	Shared  bool
}

// MmapStorm runs the F4 workload on o.
func MmapStorm(o osi.OS, spec MmapStormSpec) (Result, error) {
	name := "mmapstorm"
	if spec.Shared {
		name = "mmapstorm-shared"
	}
	return measure(o, name, spec.Threads, func(p *sim.Proc, _ *Result) (uint64, error) {
		kernels := o.Kernels()
		body := func(th osi.Thread) {
			for i := 0; i < spec.Iters; i++ {
				addr, err := th.Mmap(uint64(spec.Pages)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
				if err != nil {
					panic(fmt.Errorf("mmapstorm mmap: %w", err))
				}
				for pg := 0; pg < spec.Pages; pg++ {
					if err := th.Store(addr+mem.Addr(pg*hw.PageSize), int64(i)); err != nil {
						panic(fmt.Errorf("mmapstorm touch: %w", err))
					}
				}
				if err := th.Munmap(addr, uint64(spec.Pages)*hw.PageSize); err != nil {
					panic(fmt.Errorf("mmapstorm munmap: %w", err))
				}
			}
		}
		var procs []osi.Process
		if spec.Shared {
			pr, err := o.StartProcess(p)
			if err != nil {
				return 0, err
			}
			for i := 0; i < spec.Threads; i++ {
				k := i % kernels
				if err := pr.Spawn(p, k, body); err != nil {
					return 0, err
				}
			}
			procs = append(procs, pr)
		} else {
			for i := 0; i < spec.Threads; i++ {
				pr, err := o.StartProcess(p)
				if err != nil {
					return 0, err
				}
				k := i % kernels
				if err := pr.Spawn(p, k, body); err != nil {
					return 0, err
				}
				procs = append(procs, pr)
			}
		}
		if err := closeAll(p, procs); err != nil {
			return 0, err
		}
		return uint64(spec.Threads * spec.Iters), nil
	})
}

// FaultSweepSpec drives F6: page-fault-dominated first touch of large
// private regions, one process per thread.
type FaultSweepSpec struct {
	Threads int
	Pages   int
}

// FaultSweep runs the F6 workload on o.
func FaultSweep(o osi.OS, spec FaultSweepSpec) (Result, error) {
	return measure(o, "faultsweep", spec.Threads, func(p *sim.Proc, _ *Result) (uint64, error) {
		kernels := o.Kernels()
		var procs []osi.Process
		for i := 0; i < spec.Threads; i++ {
			pr, err := o.StartProcess(p)
			if err != nil {
				return 0, err
			}
			k := i % kernels
			if err := pr.Spawn(p, k, func(th osi.Thread) {
				addr, err := th.Mmap(uint64(spec.Pages)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
				if err != nil {
					panic(fmt.Errorf("faultsweep mmap: %w", err))
				}
				for pg := 0; pg < spec.Pages; pg++ {
					if err := th.Store(addr+mem.Addr(pg*hw.PageSize), 1); err != nil {
						panic(fmt.Errorf("faultsweep touch: %w", err))
					}
				}
			}); err != nil {
				return 0, err
			}
			procs = append(procs, pr)
		}
		if err := closeAll(p, procs); err != nil {
			return 0, err
		}
		return uint64(spec.Threads * spec.Pages), nil
	})
}

// FutexChainSpec drives F5: contended lock/unlock cycles. Shared=false
// gives each kernel-partition its own process and lock (server-style);
// Shared=true contends one process-wide lock from every kernel.
type FutexChainSpec struct {
	Threads int
	Iters   int
	// CS is the critical-section length.
	CS time.Duration
	// Shared selects one lock in one process (true) or a process+lock per
	// kernel partition (false).
	Shared bool
}

// FutexChain runs the F5 workload on o.
func FutexChain(o osi.OS, spec FutexChainSpec) (Result, error) {
	name := "futexchain"
	if spec.Shared {
		name = "futexchain-shared"
	}
	return measure(o, name, spec.Threads, func(p *sim.Proc, _ *Result) (uint64, error) {
		kernels := o.Kernels()
		groups := kernels
		if spec.Shared {
			groups = 1
		}
		if groups > spec.Threads {
			groups = spec.Threads
		}
		spawned := 0
		var procs []osi.Process
		for g := 0; g < groups; g++ {
			pr, err := o.StartProcess(p)
			if err != nil {
				return 0, err
			}
			procs = append(procs, pr)
			// One thread maps the lock word, then the group hammers it.
			ready := sim.NewWaitGroup()
			ready.Add(1)
			var lockAddr mem.Addr
			kHome := g % kernels
			if err := pr.Spawn(p, kHome, func(th osi.Thread) {
				a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
				if err != nil {
					panic(fmt.Errorf("futexchain mmap: %w", err))
				}
				lockAddr = a
				ready.Done()
			}); err != nil {
				return 0, err
			}
			members := spec.Threads / groups
			for m := 0; m < members; m++ {
				k := kHome
				if spec.Shared {
					k = m % kernels
				}
				if err := pr.Spawn(p, k, func(th osi.Thread) {
					ready.Wait(th.Proc())
					lock := NewFutexMutex(lockAddr)
					for i := 0; i < spec.Iters; i++ {
						if err := lock.Lock(th); err != nil {
							panic(fmt.Errorf("futexchain lock: %w", err))
						}
						if spec.CS > 0 {
							th.Compute(spec.CS)
						}
						if err := lock.Unlock(th); err != nil {
							panic(fmt.Errorf("futexchain unlock: %w", err))
						}
					}
				}); err != nil {
					return 0, err
				}
				spawned++
			}
		}
		if err := closeAll(p, procs); err != nil {
			return 0, err
		}
		return uint64(spawned * spec.Iters), nil
	})
}
