package core

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
)

func boot(t *testing.T, kernels int) *OS {
	t.Helper()
	cfg := Config{Topology: hw.Topology{Cores: 8, NUMANodes: 2}}
	if kernels > 0 {
		machine, err := hw.NewMachine(cfg.Topology, hw.DefaultCostModel())
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		cc := kernel.DefaultClusterConfig(machine)
		cc.Kernels = kernels
		cc.FramesPerKernel = 4096
		cfg.Cluster = &cc
	}
	os, err := Boot(cfg)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(os.Close)
	return os
}

func TestBootDefaults(t *testing.T) {
	os, err := Boot(Config{})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer os.Close()
	if os.Name() != "popcorn" {
		t.Fatalf("Name = %q", os.Name())
	}
	if os.Kernels() != 2 {
		t.Fatalf("Kernels = %d, want one per NUMA node", os.Kernels())
	}
	if os.Machine().Topology.Cores != 64 {
		t.Fatalf("default cores = %d", os.Machine().Topology.Cores)
	}
}

func TestSingleSystemImageSharedMemory(t *testing.T) {
	os := boot(t, 4)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := os.StartProcessOn(p, 0)
		if err != nil {
			t.Errorf("StartProcess: %v", err)
			return
		}
		var addr mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		// Thread on kernel 0 maps and writes; threads on other kernels
		// read the same memory transparently.
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				t.Errorf("Mmap: %v", err)
				return
			}
			if err := th.Store(a, 1234); err != nil {
				t.Errorf("Store: %v", err)
				return
			}
			addr = a
			ready.Done()
		}); err != nil {
			t.Errorf("Spawn: %v", err)
			return
		}
		for k := 1; k < 4; k++ {
			k := k
			if err := pr.Spawn(p, k, func(th osi.Thread) {
				ready.Wait(th.Proc())
				if th.KernelID() != k {
					t.Errorf("thread on kernel %d, want %d", th.KernelID(), k)
				}
				v, err := th.Load(addr)
				if err != nil || v != 1234 {
					t.Errorf("kernel %d Load = %d, %v; want 1234", k, v, err)
				}
			}); err != nil {
				t.Errorf("Spawn %d: %v", k, err)
				return
			}
		}
		pr.Wait(p)
		if err := pr.Close(p); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestThreadMigrationMidExecution(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		pr, _ := os.StartProcessOn(p, 0)
		err := pr.Spawn(p, 0, func(th osi.Thread) {
			addr, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				t.Errorf("Mmap: %v", err)
				return
			}
			if err := th.Store(addr, 7); err != nil {
				t.Errorf("Store before migrate: %v", err)
				return
			}
			before := th.KernelID()
			if err := th.Migrate(1); err != nil {
				t.Errorf("Migrate: %v", err)
				return
			}
			if th.KernelID() != 1 || before != 0 {
				t.Errorf("kernel %d -> %d, want 0 -> 1", before, th.KernelID())
			}
			// Memory written before the migration is visible after.
			v, err := th.Load(addr)
			if err != nil || v != 7 {
				t.Errorf("Load after migrate = %d, %v; want 7", v, err)
			}
			// And writable: the page follows the thread.
			if err := th.Store(addr, 8); err != nil {
				t.Errorf("Store after migrate: %v", err)
			}
			// Migrate back (shadow revival) and re-check.
			if err := th.Migrate(0); err != nil {
				t.Errorf("Migrate back: %v", err)
				return
			}
			if v, _ := th.Load(addr); v != 8 {
				t.Errorf("Load after back-migration = %d, want 8", v)
			}
		})
		if err != nil {
			t.Errorf("Spawn: %v", err)
		}
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMigrateToSameKernelIsNoop(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		pr, _ := os.StartProcessOn(p, 0)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			if err := th.Migrate(0); err != nil {
				t.Errorf("self Migrate: %v", err)
			}
			if ct := th.(*Thread); ct.task.Migrations != 0 {
				t.Errorf("Migrations = %d after no-op", ct.task.Migrations)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestThreadSpawnsSibling(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	ran := false
	e.Spawn("driver", func(p *sim.Proc) {
		pr, _ := os.StartProcessOn(p, 0)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			if err := th.Spawn(1, func(sib osi.Thread) {
				if sib.KernelID() != 1 {
					t.Errorf("sibling on kernel %d", sib.KernelID())
				}
				ran = true
			}); err != nil {
				t.Errorf("sibling Spawn: %v", err)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("sibling never ran")
	}
}

func TestFutexAcrossKernels(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	var wokenAt, wakeAt sim.Time
	e.Spawn("driver", func(p *sim.Proc) {
		pr, _ := os.StartProcessOn(p, 0)
		var addr mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			a, _ := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			addr = a
			ready.Done()
			if err := th.FutexWait(addr, 0); err != nil {
				t.Errorf("FutexWait: %v", err)
			}
			wokenAt = th.Proc().Now()
		})
		_ = pr.Spawn(p, 1, func(th osi.Thread) {
			ready.Wait(th.Proc())
			th.Compute(time.Millisecond)
			if err := th.Store(addr, 1); err != nil {
				t.Errorf("Store: %v", err)
			}
			wakeAt = th.Proc().Now()
			if _, err := th.FutexWake(addr, 1); err != nil {
				t.Errorf("FutexWake: %v", err)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokenAt < wakeAt {
		t.Fatalf("waiter woke at %v before wake at %v", wokenAt, wakeAt)
	}
}

func TestComputeOccupiesCores(t *testing.T) {
	// 2 kernels x 4 cores; 8 compute-bound threads with balanced placement
	// should finish in ~1 quantum sum, while 8 on one kernel take ~2x.
	elapsed := func(spread bool) time.Duration {
		os := boot(t, 2)
		e := os.Engine()
		var total sim.Time
		e.Spawn("driver", func(p *sim.Proc) {
			pr, _ := os.StartProcessOn(p, 0)
			start := p.Now()
			for i := 0; i < 8; i++ {
				k := 0
				if spread {
					k = i % 2
				}
				_ = pr.Spawn(p, k, func(th osi.Thread) {
					th.Compute(time.Millisecond)
				})
			}
			pr.Wait(p)
			total = p.Now()
			_ = start
			_ = pr.Close(p)
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return time.Duration(total)
	}
	spread, packed := elapsed(true), elapsed(false)
	if spread >= packed {
		t.Fatalf("spread placement %v not faster than packed %v", spread, packed)
	}
}

func TestAutoPlacementRoundRobins(t *testing.T) {
	os := boot(t, 4)
	e := os.Engine()
	counts := make(map[int]int)
	e.Spawn("driver", func(p *sim.Proc) {
		pr, _ := os.StartProcessOn(p, 0)
		for i := 0; i < 8; i++ {
			_ = pr.Spawn(p, osi.AnyKernel, func(th osi.Thread) {
				counts[th.KernelID()]++
			})
		}
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for k := 0; k < 4; k++ {
		if counts[k] != 2 {
			t.Fatalf("placement counts = %v, want 2 per kernel", counts)
		}
	}
}

func TestManyProcessesIsolated(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		var procs []*Process
		addrs := make([]mem.Addr, 3)
		for i := 0; i < 3; i++ {
			pr, err := os.StartProcessOn(p, i%2)
			if err != nil {
				t.Errorf("StartProcess %d: %v", i, err)
				return
			}
			procs = append(procs, pr)
		}
		for i, pr := range procs {
			i, pr := i, pr
			_ = pr.Spawn(p, i%2, func(th osi.Thread) {
				a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
				if err != nil {
					t.Errorf("Mmap: %v", err)
					return
				}
				addrs[i] = a
				_ = th.Store(a, int64(100+i))
			})
		}
		for _, pr := range procs {
			pr.Wait(p)
		}
		// Each process sees only its own value (same virtual addresses do
		// not collide across groups).
		for i, pr := range procs {
			i, pr := i, pr
			_ = pr.Spawn(p, 0, func(th osi.Thread) {
				v, err := th.Load(addrs[i])
				if err != nil || v != int64(100+i) {
					t.Errorf("process %d Load = %d, %v; want %d", i, v, err, 100+i)
				}
			})
		}
		for _, pr := range procs {
			pr.Wait(p)
			_ = pr.Close(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMigrateValidation(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		pr, _ := os.StartProcessOn(p, 0)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			if err := th.Migrate(99); err == nil {
				t.Error("Migrate to bogus kernel accepted")
			}
			if err := th.Migrate(osi.AnyKernel); err == nil {
				t.Error("Migrate without destination accepted")
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestStartProcessOnBadKernel(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		if _, err := os.StartProcessOn(p, 5); err == nil {
			t.Error("StartProcessOn(5) accepted with 2 kernels")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMigrationBringsPagesAlong(t *testing.T) {
	// After migration, repeated writes from the new kernel must be local
	// (fast), demonstrating page ownership follows the thread.
	os := boot(t, 2)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		pr, _ := os.StartProcessOn(p, 0)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			addr, _ := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			_ = th.Store(addr, 1)
			_ = th.Migrate(1)
			// First store after migration pulls the page (slow)...
			start := th.Proc().Now()
			_ = th.Store(addr, 2)
			first := th.Proc().Now().Sub(start)
			// ...subsequent stores are local (fast).
			start = th.Proc().Now()
			for i := 0; i < 10; i++ {
				_ = th.Store(addr, int64(i))
			}
			rest := th.Proc().Now().Sub(start) / 10
			if rest*4 > first {
				t.Errorf("page did not follow thread: first=%v steady=%v", first, rest)
			}
		})
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestManyThreadsManyKernelsStress(t *testing.T) {
	os := boot(t, 4)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		pr, _ := os.StartProcessOn(p, 0)
		var base mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			base, _ = th.Mmap(16*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			ready.Done()
		})
		for i := 0; i < 16; i++ {
			i := i
			_ = pr.Spawn(p, i%4, func(th osi.Thread) {
				ready.Wait(th.Proc())
				for j := 0; j < 20; j++ {
					a := base + mem.Addr(((i+j)%16)*hw.PageSize)
					if _, err := th.FetchAdd(a, 1); err != nil {
						t.Errorf("FetchAdd: %v", err)
						return
					}
					th.Compute(time.Microsecond)
					if j%5 == 0 {
						if err := th.Migrate((th.KernelID() + 1) % 4); err != nil {
							t.Errorf("Migrate: %v", err)
							return
						}
					}
				}
			})
		}
		pr.Wait(p)
		// Sum of all counters must equal total increments (16*20).
		total := int64(0)
		_ = pr.Spawn(p, 0, func(th osi.Thread) {
			for pg := 0; pg < 16; pg++ {
				v, err := th.Load(base + mem.Addr(pg*hw.PageSize))
				if err != nil {
					t.Errorf("final Load: %v", err)
					return
				}
				total += v
			}
		})
		pr.Wait(p)
		if total != 16*20 {
			t.Errorf("total increments = %d, want %d", total, 16*20)
		}
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
