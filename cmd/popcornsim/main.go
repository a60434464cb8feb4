// Command popcornsim boots one simulated machine under a chosen OS flavour
// and runs one workload, printing the result and (optionally) the OS's
// internal metrics. It is the interactive entry point to the reproduction:
// everything benchtable sweeps can be probed here one configuration at a
// time.
//
// Usage:
//
//	popcornsim -os popcorn -workload mmapstorm -threads 32
//	popcornsim -os smp -workload threadbomb -threads 16 -metrics
//	popcornsim -os multikernel -workload npb-cg -threads 8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/multikernel"
	"repro/internal/osi"
	"repro/internal/prof"
	"repro/internal/smp"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "popcornsim:", err)
		os.Exit(1)
	}
}

func run() (runErr error) {
	osFlag := flag.String("os", "popcorn", "OS flavour: popcorn, smp, multikernel")
	wlFlag := flag.String("workload", "mmapstorm", "workload: threadbomb, mmapstorm, mmapstorm-shared, faultsweep, futexchain, futexchain-shared, npb-is, npb-cg, npb-ft, npb-ep, npb-mg, kvstore, migrate")
	threads := flag.Int("threads", 16, "worker thread/domain count")
	iters := flag.Int("iters", 8, "iterations per worker (where applicable)")
	pages := flag.Int("pages", 4, "pages per region (where applicable)")
	cores := flag.Int("cores", 64, "machine core count")
	nodes := flag.Int("nodes", 2, "machine NUMA node count")
	kernels := flag.Int("kernels", 8, "kernel instances (popcorn/multikernel)")
	seed := flag.Int64("seed", 1, "simulation seed")
	metrics := flag.Bool("metrics", false, "dump OS metrics after the run")
	traceN := flag.Int("trace", 0, "record and print the last N inter-kernel messages (popcorn only)")
	snapshot := flag.Bool("snapshot", false, "print the OS state snapshot after the run (popcorn only)")
	compare := flag.Bool("compare", false, "run the workload on every OS flavour and print a comparison")
	profile := prof.Register(flag.CommandLine)
	flag.Parse()

	stopProfile, err := profile.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfile(); runErr == nil {
			runErr = err
		}
	}()

	topo := hw.Topology{Cores: *cores, NUMANodes: *nodes}

	if *compare {
		return runCompare(topo, *kernels, *seed, *wlFlag, *threads, *iters, *pages)
	}

	var (
		res  workload.Result
		reg  *stats.Registry
		stop func()
	)

	if *osFlag == "multikernel" {
		mk, bootErr := multikernel.Boot(multikernel.Config{Topology: topo, Kernels: *kernels, Seed: *seed})
		if bootErr != nil {
			return bootErr
		}
		stop, reg = mk.Close, mk.Metrics()
		defer stop()
		switch *wlFlag {
		case "threadbomb":
			res, err = workload.MKThreadBomb(mk, workload.ThreadBombSpec{Spawners: *threads, Children: *iters})
		case "mmapstorm":
			res, err = workload.MKMemStorm(mk, workload.MmapStormSpec{Threads: *threads, Iters: *iters, Pages: *pages})
		case "faultsweep":
			res, err = workload.MKFaultSweep(mk, workload.FaultSweepSpec{Threads: *threads, Pages: *pages})
		case "npb-is", "npb-cg", "npb-ft", "npb-ep", "npb-mg":
			res, err = workload.MKComputeKernel(mk, workload.ComputeKernelSpec{
				Kernel: (*wlFlag)[4:], Threads: *threads, Iters: *iters, Work: 100 * time.Microsecond})
		default:
			return fmt.Errorf("workload %q has no multikernel port", *wlFlag)
		}
	} else {
		var o osi.OS
		switch *osFlag {
		case "popcorn":
			machine, mErr := hw.NewMachine(topo, hw.DefaultCostModel())
			if mErr != nil {
				return mErr
			}
			cc := kernel.DefaultClusterConfig(machine)
			cc.Kernels = *kernels
			pop, bootErr := core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: *seed})
			if bootErr != nil {
				return bootErr
			}
			if *traceN > 0 {
				tb := pop.Trace(*traceN)
				defer func() {
					fmt.Println("\n--- trace (most recent messages) ---")
					_ = tb.Dump(os.Stdout)
				}()
			}
			if *snapshot {
				defer func() {
					fmt.Println("\n--- snapshot ---")
					fmt.Print(pop.Snapshot())
				}()
			}
			o, stop = pop, pop.Close
		case "smp":
			sm, bootErr := smp.Boot(smp.Config{Topology: topo, Seed: *seed})
			if bootErr != nil {
				return bootErr
			}
			o, stop = sm, sm.Close
		default:
			return fmt.Errorf("unknown OS flavour %q", *osFlag)
		}
		reg = o.Metrics()
		defer stop()
		switch *wlFlag {
		case "threadbomb":
			res, err = workload.ThreadBomb(o, workload.ThreadBombSpec{Spawners: *threads, Children: *iters})
		case "mmapstorm":
			res, err = workload.MmapStorm(o, workload.MmapStormSpec{Threads: *threads, Iters: *iters, Pages: *pages})
		case "mmapstorm-shared":
			res, err = workload.MmapStorm(o, workload.MmapStormSpec{Threads: *threads, Iters: *iters, Pages: *pages, Shared: true})
		case "faultsweep":
			res, err = workload.FaultSweep(o, workload.FaultSweepSpec{Threads: *threads, Pages: *pages})
		case "futexchain":
			res, err = workload.FutexChain(o, workload.FutexChainSpec{Threads: *threads, Iters: *iters, CS: 2 * time.Microsecond})
		case "futexchain-shared":
			res, err = workload.FutexChain(o, workload.FutexChainSpec{Threads: *threads, Iters: *iters, CS: 2 * time.Microsecond, Shared: true})
		case "npb-is", "npb-cg", "npb-ft", "npb-ep", "npb-mg":
			res, err = workload.ComputeKernel(o, workload.ComputeKernelSpec{
				Kernel: (*wlFlag)[4:], Threads: *threads, Iters: *iters, Work: 100 * time.Microsecond})
		case "kvstore":
			res, err = workload.KVStore(o, workload.KVStoreSpec{
				Shards: 16, Clients: *threads, OpsPerClient: *iters,
				PutRatioPct: 10, KeysPerShard: *pages, Think: 2 * time.Microsecond, Seed: *seed})
		case "migrate":
			res, err = workload.MigrationBenefit(o, workload.MigrationBenefitSpec{Pages: *pages, Rounds: *iters, Migrate: true})
		default:
			return fmt.Errorf("unknown workload %q", *wlFlag)
		}
	}
	if err != nil {
		return err
	}
	fmt.Println(res)
	fmt.Printf("virtual throughput: %.1f ops/ms, %.2f us/op\n", res.Throughput()/1000, float64(res.PerOp().Nanoseconds())/1000)
	if reg != nil {
		fmt.Printf("simulation work: %d messages\n", reg.Counter("msg.sent").Value())
	}
	if *metrics {
		fmt.Print("\n--- metrics ---\n", reg.Dump())
	}
	return nil
}

// runCompare runs one workload on popcorn, smp and (when ported) the
// multikernel, printing a side-by-side table.
func runCompare(topo hw.Topology, kernels int, seed int64, wl string, threads, iters, pages int) error {
	tab := stats.NewTable(fmt.Sprintf("%s, %d threads on %d cores", wl, threads, topo.Cores),
		"os", "ops", "elapsed", "ops/ms")
	type flavour struct {
		name string
		run  func() (workload.Result, error)
	}
	runOSI := func(o osi.OS) (workload.Result, error) {
		switch wl {
		case "threadbomb":
			return workload.ThreadBomb(o, workload.ThreadBombSpec{Spawners: threads, Children: iters})
		case "mmapstorm":
			return workload.MmapStorm(o, workload.MmapStormSpec{Threads: threads, Iters: iters, Pages: pages})
		case "faultsweep":
			return workload.FaultSweep(o, workload.FaultSweepSpec{Threads: threads, Pages: pages})
		case "futexchain":
			return workload.FutexChain(o, workload.FutexChainSpec{Threads: threads, Iters: iters, CS: 2 * time.Microsecond})
		case "kvstore":
			return workload.KVStore(o, workload.KVStoreSpec{
				Shards: 16, Clients: threads, OpsPerClient: iters,
				PutRatioPct: 10, KeysPerShard: pages, Think: 2 * time.Microsecond, Seed: seed})
		case "npb-is", "npb-cg", "npb-ft", "npb-ep", "npb-mg":
			return workload.ComputeKernel(o, workload.ComputeKernelSpec{Kernel: wl[4:], Threads: threads, Iters: iters, Work: 100 * time.Microsecond})
		}
		return workload.Result{}, fmt.Errorf("workload %q has no comparison form", wl)
	}
	flavours := []flavour{
		{"popcorn", func() (workload.Result, error) {
			machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
			if err != nil {
				return workload.Result{}, err
			}
			cc := kernel.DefaultClusterConfig(machine)
			cc.Kernels = kernels
			o, err := core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: seed})
			if err != nil {
				return workload.Result{}, err
			}
			defer o.Close()
			return runOSI(o)
		}},
		{"smp", func() (workload.Result, error) {
			o, err := smp.Boot(smp.Config{Topology: topo, Seed: seed})
			if err != nil {
				return workload.Result{}, err
			}
			defer o.Close()
			return runOSI(o)
		}},
		{"multikernel", func() (workload.Result, error) {
			o, err := multikernel.Boot(multikernel.Config{Topology: topo, Kernels: kernels, Seed: seed})
			if err != nil {
				return workload.Result{}, err
			}
			defer o.Close()
			switch wl {
			case "threadbomb":
				return workload.MKThreadBomb(o, workload.ThreadBombSpec{Spawners: threads, Children: iters})
			case "mmapstorm":
				return workload.MKMemStorm(o, workload.MmapStormSpec{Threads: threads, Iters: iters, Pages: pages})
			case "faultsweep":
				return workload.MKFaultSweep(o, workload.FaultSweepSpec{Threads: threads, Pages: pages})
			case "npb-is", "npb-cg", "npb-ft", "npb-ep", "npb-mg":
				return workload.MKComputeKernel(o, workload.ComputeKernelSpec{Kernel: wl[4:], Threads: threads, Iters: iters, Work: 100 * time.Microsecond})
			}
			return workload.Result{}, fmt.Errorf("no multikernel port")
		}},
	}
	for _, f := range flavours {
		res, err := f.run()
		if err != nil {
			tab.AddRow(f.name, "-", err.Error(), "-")
			continue
		}
		tab.AddRow(f.name, fmt.Sprint(res.Ops), res.Elapsed.String(), fmt.Sprintf("%.0f", res.Throughput()/1000))
	}
	fmt.Println(tab)
	return nil
}
