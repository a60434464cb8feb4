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
	"repro/internal/msg"
	"repro/internal/multikernel"
	"repro/internal/osi"
	"repro/internal/sim"
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

// popcornKernels is the default kernel count for the replicated-kernel OS
// on the testbed (8 kernels x 8 cores).
const popcornKernels = 8

// bootPopcorn boots the replicated-kernel OS on topo as the given number of
// kernels; each tweak, in order, edits the default cluster config first.
func bootPopcorn(topo hw.Topology, kernels int, tweaks ...func(*kernel.ClusterConfig)) (*core.OS, error) {
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = kernels
	for _, tweak := range tweaks {
		tweak(&cc)
	}
	return core.Boot(core.Config{Topology: topo, Cluster: &cc})
}

func bootSMP(topo hw.Topology) (*smp.OS, error) {
	return smp.Boot(smp.Config{Topology: topo, FramesPerNode: 1 << 18})
}

func bootMK(topo hw.Topology, kernels int) (*multikernel.OS, error) {
	return multikernel.Boot(multikernel.Config{Topology: topo, Kernels: kernels})
}

// bootFabric boots a bare message fabric on the testbed, no kernels above
// it: node i's endpoint runs on core nodeCore[i]. The caller closes the
// engine.
func bootFabric(nodeCore []int, cfg msg.Config, reg *stats.Registry) (sim.Engine, *msg.Fabric, error) {
	machine, e, _, err := kernel.Setup(kernel.Testbed(), nil, 1)
	if err != nil {
		return nil, nil, err
	}
	fabric, err := msg.NewFabric(e, machine, len(nodeCore), nodeCore, cfg, reg)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	return e, fabric, nil
}

// runProcess is workload.Drive's body for one process: it starts a process
// (on kernel 0 of a fresh popcorn boot), runs body, waits for the process's
// threads and closes it. It returns the virtual instant the close finished,
// and the driver's error.
func runProcess(o osi.OS, body func(p *sim.Proc, pr osi.Process)) (closed time.Duration, err error) {
	err = workload.Drive(o, "driver", func(p *sim.Proc) error {
		pr, err := o.StartProcess(p)
		if err != nil {
			return err
		}
		body(p, pr)
		pr.Wait(p)
		err = pr.Close(p)
		closed = p.Now().Duration()
		return err
	})
	return closed, err
}

// onKernels runs fn as one thread of pr on each of kernels, spawned in
// order, and waits until every one has returned.
func onKernels(p *sim.Proc, pr osi.Process, fn osi.ThreadFunc, kernels ...int) {
	done := sim.NewWaitGroup()
	done.Add(len(kernels))
	for _, k := range kernels {
		must(pr.Spawn(p, k, func(th osi.Thread) {
			fn(th)
			done.Done()
		}))
	}
	done.Wait(p)
}

// kernelRange lists the n kernels from first up.
func kernelRange(first, n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = first + i
	}
	return ks
}

// threadCounts returns the sweep of thread counts for scalability figures.
func threadCounts(s Scale) []int {
	if s == Quick {
		return []int{1, 8, 32}
	}
	return []int{1, 2, 4, 8, 16, 32, 64}
}

// osBoot boots a fresh machine of one OS flavour and returns its closer.
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

// flavour is one OS line of a figure: run boots a fresh machine of that OS,
// runs one cell's workload on it and closes it, so each call is a cell.
type flavour[A any] struct {
	name string
	run  func(arg A) (workload.Result, error)
}

// flavours returns a figure's popcorn and smp lines, plus the multikernel
// line when mkRun is non-nil.
func flavours[A any](run func(o osi.OS, arg A) (workload.Result, error),
	mkRun func(o *multikernel.OS, arg A) (workload.Result, error),
) []flavour[A] {
	topo := kernel.Testbed()
	var fs []flavour[A]
	for _, ob := range standardOSes(topo, popcornKernels) {
		fs = append(fs, flavour[A]{ob.name, func(arg A) (workload.Result, error) {
			o, closeOS, err := ob.boot()
			if err != nil {
				return workload.Result{}, fmt.Errorf("boot %s: %w", ob.name, err)
			}
			defer closeOS()
			return run(o, arg)
		}})
	}
	if mkRun != nil {
		fs = append(fs, flavour[A]{"multikernel", func(arg A) (workload.Result, error) {
			o, err := bootMK(topo, popcornKernels)
			if err != nil {
				return workload.Result{}, fmt.Errorf("boot multikernel: %w", err)
			}
			defer o.Close()
			return mkRun(o, arg)
		}})
	}
	return fs
}

// names lists the lines' names, in order.
func names[A any](fs []flavour[A]) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.name
	}
	return out
}

// addLines adds one line per name to series, computing every point as a
// cell: y(l, x) is line l's value at the series' x-th point. Cells run
// highest x first: in a thread sweep the highest count is the costliest
// cell (F5b's popcorn 64-thread point is most of the figure), and the
// longest cell must not start last.
func addLines(series *stats.Series, points int, names []string, y func(l, x int) (float64, error)) error {
	ys := make([][]float64, len(names))
	for l := range ys {
		ys[l] = make([]float64, points)
	}
	err := cells(len(names)*points, func(i int) error {
		l, x := i%len(names), points-1-i/len(names)
		v, err := y(l, x)
		ys[l][x] = v
		return err
	})
	if err != nil {
		return err
	}
	for l, name := range names {
		if err := series.AddLine(name, ys[l]); err != nil {
			return err
		}
	}
	return nil
}

// sweep runs `run` for every OS flavour and thread count, returning ops/ms
// series (plus the multikernel line when mkRun is non-nil).
func sweep(s Scale, title, ylabel string,
	run func(o osi.OS, threads int) (workload.Result, error),
	mkRun func(o *multikernel.OS, threads int) (workload.Result, error),
) (*stats.Series, error) {
	counts := threadCounts(s)
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
	}
	series := stats.NewSeries(title, "threads", ylabel, xs...)
	lines := flavours(run, mkRun)
	err := addLines(series, len(counts), names(lines), func(l, x int) (float64, error) {
		res, err := lines[l].run(counts[x])
		if err != nil {
			return 0, fmt.Errorf("%s threads=%d: %w", lines[l].name, counts[x], err)
		}
		return res.Throughput() / 1000, nil // ops per virtual millisecond
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

func us(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1000) }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func mustV(_ int64, err error) {
	if err != nil {
		panic(err)
	}
}
