// Package bench regenerates every table and figure of the (reconstructed)
// evaluation: each exported function runs the corresponding experiment on
// freshly booted simulated machines and returns the rows/series the paper
// reports. cmd/benchtable prints them. All quantities are virtual time,
// deterministic for a given scale factor.
package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/multikernel"
	"repro/internal/osi"
	"repro/internal/smp"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale selects experiment sizes.
type Scale int

// Scales: Quick keeps everything small for tests/benchmarks; Full is the
// paper-style sweep printed by cmd/benchtable.
const (
	Quick Scale = iota
	Full
)

// testbed is the machine class the paper evaluates on: a 64-core
// dual-socket x86 server.
func testbed() hw.Topology { return hw.Topology{Cores: 64, NUMANodes: 2} }

// popcornKernels is the default kernel count for the replicated-kernel OS
// on the testbed (8 kernels x 8 cores).
const popcornKernels = 8

func bootPopcorn(topo hw.Topology, kernels int) (*core.OS, error) {
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = kernels
	cc.FramesPerKernel = 1 << 16
	return core.Boot(core.Config{Topology: topo, Cluster: &cc})
}

func bootSMP(topo hw.Topology) (*smp.OS, error) {
	return smp.Boot(smp.Config{Topology: topo, FramesPerNode: 1 << 18})
}

func bootMK(topo hw.Topology, kernels int) (*multikernel.OS, error) {
	return multikernel.Boot(multikernel.Config{Topology: topo, Kernels: kernels, FramesPerKernel: 1 << 16})
}

// threadCounts returns the sweep of thread counts for scalability figures.
func threadCounts(s Scale) []int {
	if s == Quick {
		return []int{1, 8, 32}
	}
	return []int{1, 2, 4, 8, 16, 32, 64}
}

// runOn runs an osi workload on a freshly booted OS of each flavour and
// returns throughput lines for a series.
type osBoot struct {
	name string
	boot func() (osi.OS, func(), error)
}

func standardOSes(topo hw.Topology, kernels int) []osBoot {
	return []osBoot{
		{name: "popcorn", boot: func() (osi.OS, func(), error) {
			o, err := bootPopcorn(topo, kernels)
			if err != nil {
				return nil, nil, err
			}
			return o, o.Close, nil
		}},
		{name: "smp", boot: func() (osi.OS, func(), error) {
			o, err := bootSMP(topo)
			if err != nil {
				return nil, nil, err
			}
			return o, o.Close, nil
		}},
	}
}

// sweep runs `run` for every OS flavour and thread count, returning ops/ms
// series (plus the multikernel line when mkRun is non-nil).
func sweep(s Scale, title, ylabel string,
	run func(o osi.OS, threads int) (workload.Result, error),
	mkRun func(o *multikernel.OS, threads int) (workload.Result, error),
) (*stats.Series, error) {
	topo := testbed()
	counts := threadCounts(s)
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
	}
	series := stats.NewSeries(title, "threads", ylabel, xs...)
	for _, ob := range standardOSes(topo, popcornKernels) {
		ys := make([]float64, len(counts))
		for i, threads := range counts {
			o, closeOS, err := ob.boot()
			if err != nil {
				return nil, fmt.Errorf("boot %s: %w", ob.name, err)
			}
			res, err := run(o, threads)
			closeOS()
			if err != nil {
				return nil, fmt.Errorf("%s threads=%d: %w", ob.name, threads, err)
			}
			ys[i] = res.Throughput() / 1000 // ops per virtual millisecond
		}
		if err := series.AddLine(ob.name, ys); err != nil {
			return nil, err
		}
	}
	if mkRun != nil {
		ys := make([]float64, len(counts))
		for i, threads := range counts {
			o, err := bootMK(topo, popcornKernels)
			if err != nil {
				return nil, fmt.Errorf("boot multikernel: %w", err)
			}
			res, err := mkRun(o, threads)
			o.Close()
			if err != nil {
				return nil, fmt.Errorf("multikernel threads=%d: %w", threads, err)
			}
			ys[i] = res.Throughput() / 1000
		}
		if err := series.AddLine("multikernel", ys); err != nil {
			return nil, err
		}
	}
	return series, nil
}

func us(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1000) }
