package bench

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ablationDummyThread (D2) compares migration latency with and without the
// pre-created dummy-thread pool.
func ablationDummyThread(s Scale) (*stats.Table, error) {
	tab := stats.NewTable("D2: dummy-thread pre-creation", "variant", "migration-us")
	iters := 16
	if s == Quick {
		iters = 4
	}
	for _, pool := range []int{0, 2} {
		o, err := bootPopcorn(kernel.Testbed(), popcornKernels, func(cc *kernel.ClusterConfig) { cc.TG.DummyPool = pool })
		if err != nil {
			return nil, err
		}
		_, err = runProcess(o, ringHops(o, iters))
		mean := o.Metrics().Histogram("tg.migrate.total").Mean()
		o.Close()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("pool=%d (pre-created)", pool)
		if pool == 0 {
			name = "pool=0 (create on arrival)"
		}
		tab.AddRow(name, us(mean))
	}
	return tab, nil
}

// ablationSlotSize (D4) sweeps the message ring slot size against the
// migration-payload round trip.
func ablationSlotSize(s Scale) (*stats.Series, error) {
	slots := []int{64, 128, 256, 512, 1024}
	if s == Quick {
		slots = []int{64, 256, 1024}
	}
	xs := make([]float64, len(slots))
	for i, sz := range slots {
		xs[i] = float64(sz)
	}
	series := stats.NewSeries("D4: ring slot size vs RTT", "slot-bytes", "rtt-us", xs...)
	payloads := []int{64, 4096}
	err := addLines(series, len(slots), []string{"64B payload", "4096B payload"}, func(l, x int) (float64, error) {
		cfg := msg.DefaultConfig()
		cfg.SlotBytes = slots[x]
		rtt, err := onePing([]int{0, 8}, 1, cfg, payloads[l], nil)
		return float64(rtt.Nanoseconds()) / 1000, err
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// ablationVMAPush (D1) compares lazy mmap propagation (the paper's design)
// with eager pushing, on a workload where remote threads fault into fresh
// mappings.
func ablationVMAPush(s Scale) (*stats.Table, error) {
	tab := stats.NewTable("D1: mmap propagation policy", "variant", "elapsed-us", "vma-fetch RPCs", "update pushes")
	iters := 8
	if s == Quick {
		iters = 3
	}
	for _, eager := range []bool{false, true} {
		o, err := bootPopcorn(kernel.Testbed(), popcornKernels)
		if err != nil {
			return nil, err
		}
		for k := 0; k < o.Kernels(); k++ {
			o.Kernel(k).VM.SetEagerMapPush(eager)
		}
		var elapsed time.Duration
		_, err = runProcess(o, func(p *sim.Proc, pr osi.Process) {
			others := kernelRange(1, o.Kernels()-1)
			// Warm replicas on every kernel first.
			onKernels(p, pr, func(th osi.Thread) {
				a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
				must(err)
				must(th.Store(a, 1))
			}, others...)
			start := p.Now()
			for i := 0; i < iters; i++ {
				var addr mem.Addr
				onKernels(p, pr, func(th osi.Thread) {
					a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
					must(err)
					addr = a
				}, 0)
				// Every kernel faults into the new mapping.
				onKernels(p, pr, func(th osi.Thread) { mustV(th.Load(addr)) }, others...)
			}
			elapsed = p.Now().Sub(start)
		})
		fetches := o.Metrics().Counter("vm.vmafetch").Value()
		pushes := o.Metrics().Counter("vm.update.pushed").Value()
		o.Close()
		if err != nil {
			return nil, err
		}
		name := "lazy (paper design)"
		if eager {
			name = "eager push"
		}
		tab.AddRow(name, us(elapsed), fmt.Sprint(fetches), fmt.Sprint(pushes))
	}
	return tab, nil
}

// ablationKernelCount (D3) sweeps kernels-per-machine for the mmap storm:
// the partitioning granularity trade-off (more kernels = less intra-kernel
// contention but more cross-kernel traffic for shared work).
func ablationKernelCount(s Scale) (*stats.Series, error) {
	kernelCounts := []int{1, 2, 4, 8, 16}
	if s == Quick {
		kernelCounts = []int{1, 4, 16}
	}
	threads, iters := 32, 6
	if s == Quick {
		threads, iters = 16, 3
	}
	xs := make([]float64, len(kernelCounts))
	for i, k := range kernelCounts {
		xs[i] = float64(k)
	}
	series := stats.NewSeries("D3: kernel count vs mmap-storm throughput", "kernels", "cycles/ms", xs...)
	err := addLines(series, len(kernelCounts), []string{"popcorn"}, func(_, x int) (float64, error) {
		o, err := bootPopcorn(kernel.Testbed(), kernelCounts[x])
		if err != nil {
			return 0, err
		}
		defer o.Close()
		res, err := workload.MmapStorm(o, workload.MmapStormSpec{Threads: threads, Iters: iters, Pages: 4})
		return res.Throughput() / 1000, err
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// ablationPageOwnership (D5) compares the paper's ownership-migration
// protocol (MSI) against forwarding every remote write to the origin, on
// the two patterns that separate them: repeated writes from one remote
// kernel (locality: MSI amortises one transfer over many writes) and
// fine-grained alternation between two kernels (ping-pong: MSI moves the
// page twice per round, forwarding pays one RPC per write).
func ablationPageOwnership(s Scale) (*stats.Table, error) {
	writes := 64
	if s == Quick {
		writes = 16
	}
	tab := stats.NewTable("D5: page ownership vs write forwarding (elapsed µs)",
		"pattern", "ownership (paper)", "write-forwarding")
	patterns := []struct {
		name string
		body func(p *sim.Proc, pr osi.Process)
	}{
		{"repeated remote writes", func(p *sim.Proc, pr osi.Process) {
			must(pr.Spawn(p, 1, func(th osi.Thread) {
				addr, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
				must(err)
				for i := 0; i < writes; i++ {
					must(th.Store(addr, int64(i)))
				}
			}))
		}},
		{"alternating writers", func(p *sim.Proc, pr osi.Process) {
			var addr mem.Addr
			onKernels(p, pr, func(th osi.Thread) {
				a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
				must(err)
				addr = a
			}, 0)
			// Two writers on kernels 1 and 2 strictly alternate.
			onKernels(p, pr, func(th osi.Thread) {
				w := th.KernelID() - 1
				for i := 0; i < writes/2; i++ {
					for {
						v, err := th.Load(addr)
						must(err)
						if int(v)%2 == w {
							break
						}
						th.Compute(200 * time.Nanosecond)
					}
					must(th.Store(addr, int64(2*i+w+1)))
				}
			}, 1, 2)
		}},
	}
	for _, pat := range patterns {
		var cells [2]string
		for mode := 0; mode < 2; mode++ {
			o, err := bootPopcorn(kernel.Testbed(), popcornKernels)
			if err != nil {
				return nil, err
			}
			if mode == 1 {
				for k := 0; k < o.Kernels(); k++ {
					o.Kernel(k).VM.SetWriteForwarding(true)
				}
			}
			// The driver starts at time zero: the close instant is the
			// pattern's elapsed time.
			elapsed, err := runProcess(o, pat.body)
			o.Close()
			if err != nil {
				return nil, err
			}
			cells[mode] = us(elapsed)
		}
		tab.AddRow(pat.name, cells[0], cells[1])
	}
	return tab, nil
}
