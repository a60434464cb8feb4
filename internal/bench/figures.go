package bench

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/multikernel"
	"repro/internal/osi"
	"repro/internal/stats"
	"repro/internal/workload"
)

// f1ThreadBomb sweeps concurrent thread creation across OSes (figure 1).
func f1ThreadBomb(s Scale) (*stats.Series, error) {
	children := 16
	if s == Quick {
		children = 4
	}
	return sweep(s, "F1: thread-creation scalability", "creates/ms",
		func(o osi.OS, threads int) (workload.Result, error) {
			return workload.ThreadBomb(o, workload.ThreadBombSpec{Spawners: threads, Children: children})
		},
		func(o *multikernel.OS, threads int) (workload.Result, error) {
			return workload.MKThreadBomb(o, workload.ThreadBombSpec{Spawners: threads, Children: children})
		})
}

// f4MmapStorm sweeps the map/touch/unmap loop (the headline figure: the
// abstract's "up to 40% faster" claim lands here).
func f4MmapStorm(s Scale) (*stats.Series, error) {
	iters, pages := 8, 4
	if s == Quick {
		iters = 3
	}
	return sweep(s, "F4: mmap-storm scalability", "map-unmap-cycles/ms",
		func(o osi.OS, threads int) (workload.Result, error) {
			return workload.MmapStorm(o, workload.MmapStormSpec{Threads: threads, Iters: iters, Pages: pages})
		},
		func(o *multikernel.OS, threads int) (workload.Result, error) {
			return workload.MKMemStorm(o, workload.MmapStormSpec{Threads: threads, Iters: iters, Pages: pages})
		})
}

// f4bSharedMmapStorm is the honest companion to F4: all threads share one
// process, so every VMA operation funnels through the group origin — the
// replicated kernel's known weak spot for this operation class.
func f4bSharedMmapStorm(s Scale) (*stats.Series, error) {
	iters, pages := 6, 2
	if s == Quick {
		iters = 2
	}
	return sweep(s, "F4b: mmap-storm, one shared process", "map-unmap-cycles/ms",
		func(o osi.OS, threads int) (workload.Result, error) {
			return workload.MmapStorm(o, workload.MmapStormSpec{Threads: threads, Iters: iters, Pages: pages, Shared: true})
		}, nil)
}

// f5FutexChain sweeps contended futex lock/unlock cycles (partitioned,
// server-style: one lock per kernel partition).
func f5FutexChain(s Scale) (*stats.Series, error) {
	iters := 16
	if s == Quick {
		iters = 5
	}
	return sweep(s, "F5: futex scalability (partitioned locks)", "lock-cycles/ms",
		func(o osi.OS, threads int) (workload.Result, error) {
			return workload.FutexChain(o, workload.FutexChainSpec{Threads: threads, Iters: iters, CS: 2 * time.Microsecond})
		}, nil)
}

// f6FaultSweep sweeps concurrent first-touch faulting.
func f6FaultSweep(s Scale) (*stats.Series, error) {
	pages := 128
	if s == Quick {
		pages = 32
	}
	return sweep(s, "F6: page-fault scalability", "faults/ms",
		func(o osi.OS, threads int) (workload.Result, error) {
			return workload.FaultSweep(o, workload.FaultSweepSpec{Threads: threads, Pages: pages})
		},
		func(o *multikernel.OS, threads int) (workload.Result, error) {
			return workload.MKFaultSweep(o, workload.FaultSweepSpec{Threads: threads, Pages: pages})
		})
}

// f7ComputeKernels runs the NPB-like kernels at a fixed thread count on all
// three OSes (table-style figure: one row per kernel).
func f7ComputeKernels(s Scale) (*stats.Table, error) {
	// NPB-class kernels are compute-dominated: class-S-like sizing gives
	// several milliseconds of work between synchronisation phases.
	threads, iters, work := 32, 4, 5*time.Millisecond
	if s == Quick {
		threads, iters, work = 8, 2, 100*time.Microsecond
	}
	tab := stats.NewTable(
		fmt.Sprintf("F7: NPB-like kernels, %d threads (elapsed ms, lower is better)", threads),
		"kernel", "popcorn", "smp", "multikernel", "popcorn/smp")
	kernels := []string{workload.KernelEP, workload.KernelIS, workload.KernelCG, workload.KernelMG, workload.KernelFT}
	oses := flavours(workload.ComputeKernel, workload.MKComputeKernel)
	elapsed := make([][]time.Duration, len(kernels))
	for k := range elapsed {
		elapsed[k] = make([]time.Duration, len(oses))
	}
	err := cells(len(kernels)*len(oses), func(i int) error {
		k, f := i/len(oses), i%len(oses)
		spec := workload.ComputeKernelSpec{Kernel: kernels[k], Threads: threads, Iters: iters, Work: work}
		res, err := oses[f].run(spec)
		if err != nil {
			return fmt.Errorf("%s %s: %w", oses[f].name, kernels[k], err)
		}
		elapsed[k][f] = res.Elapsed
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, e := range elapsed {
		tab.AddRow(kernels[k],
			fmt.Sprintf("%.3f", e[0].Seconds()*1000),
			fmt.Sprintf("%.3f", e[1].Seconds()*1000),
			fmt.Sprintf("%.3f", e[2].Seconds()*1000),
			fmt.Sprintf("%.2f", float64(e[0])/float64(e[1])))
	}
	return tab, nil
}

// f8MigrationBenefit sweeps data-set size for the follow-the-data decision:
// the crossover where migrating the thread beats pulling pages.
func f8MigrationBenefit(s Scale) (*stats.Series, error) {
	pageCounts := []int{1, 4, 16, 64, 256}
	if s == Quick {
		pageCounts = []int{1, 16, 128}
	}
	xs := make([]float64, len(pageCounts))
	for i, c := range pageCounts {
		xs[i] = float64(c)
	}
	series := stats.NewSeries("F8: migrate-to-data vs pull-data vs batched prefetch", "data-pages", "elapsed-us", xs...)
	strategies := []workload.MigrationBenefitSpec{{Rounds: 1}, {Rounds: 1, Migrate: true}, {Rounds: 1, Prefetch: true}}
	lineNames := []string{"stay (demand pull)", "migrate to data", "stay + prefetch batch"}
	err := addLines(series, len(pageCounts), lineNames, func(l, x int) (float64, error) {
		o, err := bootPopcorn(kernel.Testbed(), popcornKernels)
		if err != nil {
			return 0, err
		}
		defer o.Close()
		spec := strategies[l]
		spec.Pages = pageCounts[x]
		res, err := workload.MigrationBenefit(o, spec)
		if err != nil {
			return 0, err
		}
		return float64(res.Elapsed.Nanoseconds()) / 1000, nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// f9KVStore sweeps request locality for a sharded, get-heavy key-value
// store in ONE process — the SSI's hardest macro case. With random routing
// every access is a coherence miss and SMP's hardware coherence wins by an
// order of magnitude; as requests are routed to shard-local clients (as
// real sharded servers do), the replicated kernel's gap closes. The
// prefork webserver example is the complementary case where Popcorn wins
// outright.
func f9KVStore(s Scale) (*stats.Series, error) {
	localities := []int{0, 50, 90, 100}
	ops, clients := 24, 32
	if s == Quick {
		localities = []int{0, 100}
		ops, clients = 8, 16
	}
	xs := make([]float64, len(localities))
	for i, l := range localities {
		xs[i] = float64(l)
	}
	series := stats.NewSeries("F9: sharded KV store vs request locality (32 clients, 10% puts)",
		"locality-pct", "requests/ms", xs...)
	oses := flavours(func(o osi.OS, loc int) (workload.Result, error) {
		return workload.KVStore(o, workload.KVStoreSpec{
			Shards: 32, Clients: clients, OpsPerClient: ops,
			PutRatioPct: 10, LocalityPct: loc, KeysPerShard: 2,
			Think: 2 * time.Microsecond, Seed: 3,
		})
	}, nil)
	err := addLines(series, len(localities), names(oses), func(l, x int) (float64, error) {
		res, err := oses[l].run(localities[x])
		if err != nil {
			return 0, fmt.Errorf("%s locality=%d: %w", oses[l].name, localities[x], err)
		}
		return res.Throughput() / 1000, nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// f5SharedFutex is the honest companion to F5: one process-wide lock
// contended from every kernel, where the replicated kernel pays message
// round trips per contended operation.
func f5SharedFutex(s Scale) (*stats.Series, error) {
	iters := 16
	if s == Quick {
		iters = 5
	}
	return sweep(s, "F5b: futex scalability (one shared lock)", "lock-cycles/ms",
		func(o osi.OS, threads int) (workload.Result, error) {
			return workload.FutexChain(o, workload.FutexChainSpec{Threads: threads, Iters: iters, CS: 2 * time.Microsecond, Shared: true})
		}, nil)
}
