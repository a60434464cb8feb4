// Command popcornsim boots one simulated machine under a chosen OS flavour
// and runs one workload, printing the result. It is the interactive entry
// point to the reproduction: everything benchtable sweeps can be probed here
// one configuration at a time. -report FILE also writes the run report (see
// type report), the reproduction's stand-in for Popcorn's per-kernel /proc.
//
// Usage:
//
//	popcornsim -os popcorn -workload mmapstorm -threads 32 -report run.json
//	popcornsim -os smp -workload threadbomb -threads 16
//	popcornsim -compare -workload npb-cg -threads 8 -report cmp.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/multikernel"
	"repro/internal/osi"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/smp"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "popcornsim:", err)
		os.Exit(1)
	}
}

// params are the workload knobs the command line sets.
type params struct {
	threads, iters, pages int
	seed                  int64
}

// A workloadRow is one -workload name: its form against the osi interface
// (popcorn and smp run the identical code) and, where one exists, its
// explicitly distributed port for the multikernel.
type workloadRow struct {
	name string
	osi  func(osi.OS, params) (workload.Result, error)
	mk   func(*multikernel.OS, params) (workload.Result, error)
}

// form makes a table cell of a workload and the spec params give it; a
// workload's osi form and its multikernel port take the same spec.
func form[O, S any](f func(O, S) (workload.Result, error), spec func(params) S) func(O, params) (workload.Result, error) {
	return func(o O, p params) (workload.Result, error) { return f(o, spec(p)) }
}

var workloads = []workloadRow{
	{"threadbomb", form(workload.ThreadBomb, bomb), form(workload.MKThreadBomb, bomb)},
	{"mmapstorm", form(workload.MmapStorm, storm(false)), form(workload.MKMemStorm, storm(false))},
	{"mmapstorm-shared", form(workload.MmapStorm, storm(true)), nil},
	{"faultsweep", form(workload.FaultSweep, sweep), form(workload.MKFaultSweep, sweep)},
	{"futexchain", form(workload.FutexChain, chain(false)), nil},
	{"futexchain-shared", form(workload.FutexChain, chain(true)), nil},
	npb("is"), npb("cg"), npb("ft"), npb("ep"), npb("mg"),
	{"kvstore", form(workload.KVStore, func(p params) workload.KVStoreSpec {
		return workload.KVStoreSpec{
			Shards: 16, Clients: p.threads, OpsPerClient: p.iters,
			PutRatioPct: 10, KeysPerShard: p.pages, Think: 2 * time.Microsecond, Seed: p.seed}
	}), nil},
	{"migrate", form(workload.MigrationBenefit, func(p params) workload.MigrationBenefitSpec {
		return workload.MigrationBenefitSpec{Pages: p.pages, Rounds: p.iters, Migrate: true}
	}), nil},
}

func bomb(p params) workload.ThreadBombSpec {
	return workload.ThreadBombSpec{Spawners: p.threads, Children: p.iters}
}

func storm(shared bool) func(params) workload.MmapStormSpec {
	return func(p params) workload.MmapStormSpec {
		return workload.MmapStormSpec{Threads: p.threads, Iters: p.iters, Pages: p.pages, Shared: shared}
	}
}

func sweep(p params) workload.FaultSweepSpec {
	return workload.FaultSweepSpec{Threads: p.threads, Pages: p.pages}
}

func chain(shared bool) func(params) workload.FutexChainSpec {
	return func(p params) workload.FutexChainSpec {
		return workload.FutexChainSpec{Threads: p.threads, Iters: p.iters, CS: 2 * time.Microsecond, Shared: shared}
	}
}

// npb is the row for one NPB-class compute kernel.
func npb(k string) workloadRow {
	spec := func(p params) workload.ComputeKernelSpec {
		return workload.ComputeKernelSpec{Kernel: k, Threads: p.threads, Iters: p.iters, Work: 100 * time.Microsecond}
	}
	return workloadRow{"npb-" + k, form(workload.ComputeKernel, spec), form(workload.MKComputeKernel, spec)}
}

var flavours = []string{"popcorn", "smp", "multikernel"}

var errNoPort = errors.New("no multikernel port")

// booted is what popcornsim needs of an OS of any flavour: popcorn and smp
// are also an osi.OS, the multikernel is its own type.
type booted interface {
	Engine() sim.Engine
	Metrics() *stats.Registry
	Close()
}

func boot(flavour string, topo hw.Topology, kernels int, seed int64) (booted, error) {
	switch flavour {
	case "popcorn":
		machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		cc := kernel.DefaultClusterConfig(machine)
		cc.Kernels = kernels
		return core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: seed})
	case "smp":
		return smp.Boot(smp.Config{Topology: topo, Seed: seed})
	case "multikernel":
		return multikernel.Boot(multikernel.Config{Topology: topo, Kernels: kernels, Seed: seed})
	}
	return nil, fmt.Errorf("unknown OS flavour %q", flavour)
}

// runOn drives wl on o in the form o's flavour takes.
func runOn(o booted, wl workloadRow, p params) (workload.Result, error) {
	mk, ok := o.(*multikernel.OS)
	if !ok {
		return wl.osi(o.(osi.OS), p)
	}
	if wl.mk == nil {
		return workload.Result{}, errNoPort
	}
	return wl.mk(mk, p)
}

func run(args []string, w io.Writer) (runErr error) {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	fs := flag.NewFlagSet("popcornsim", flag.ContinueOnError)
	osFlag := fs.String("os", "popcorn", "OS flavour: "+strings.Join(flavours, ", "))
	wlFlag := fs.String("workload", "mmapstorm", "workload: "+strings.Join(names, ", "))
	threads := fs.Int("threads", 16, "worker thread/domain count")
	iters := fs.Int("iters", 8, "iterations per worker (where applicable)")
	pages := fs.Int("pages", 4, "pages per region (where applicable)")
	cores := fs.Int("cores", 64, "machine core count")
	nodes := fs.Int("nodes", 2, "machine NUMA node count")
	kernels := fs.Int("kernels", 8, "kernel instances (popcorn/multikernel)")
	seed := fs.Int64("seed", 1, "simulation seed")
	compare := fs.Bool("compare", false, "run the workload on every OS flavour and print a comparison")
	reportFile := fs.String("report", "", "write the JSON run report (metrics, kernel state, trace tail) to this file")
	profile := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfile, err := profile.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfile(); runErr == nil {
			runErr = err
		}
	}()

	i := slices.Index(names, *wlFlag)
	if i < 0 {
		return fmt.Errorf("unknown workload %q", *wlFlag)
	}
	wl := workloads[i]
	topo := hw.Topology{Cores: *cores, NUMANodes: *nodes}
	p := params{threads: *threads, iters: *iters, pages: *pages, seed: *seed}

	var rep *report
	if *reportFile != "" {
		rep = &report{Config: map[string]string{}}
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "report" {
				rep.Config[f.Name] = f.Value.String()
			}
		})
		defer func() {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err == nil {
				err = os.WriteFile(*reportFile, append(data, '\n'), 0o644)
			}
			if runErr == nil {
				runErr = err
			}
		}()
	}
	if *compare {
		return runCompare(w, topo, *kernels, wl, p, rep)
	}
	res, sent, err := runFlavour(*osFlag, topo, *kernels, wl, p, rep)
	if errors.Is(err, errNoPort) {
		return fmt.Errorf("workload %q has %w", wl.name, err)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res)
	fmt.Fprintf(w, "virtual throughput: %.1f ops/ms, %.2f us/op\n", res.Throughput()/1000, float64(res.PerOp().Nanoseconds())/1000)
	fmt.Fprintf(w, "simulation work: %d messages\n", sent)
	return nil
}

// report is the -report document: the flags set but -report, and one run
// per OS booted. It holds only what the simulation computed, so a command
// line always writes the same bytes. Durations are nanoseconds.
type report struct {
	Config map[string]string `json:"config"`
	Runs   []runReport       `json:"runs"`
}

// runReport is one OS's run. For popcorn it adds the per-kernel state a run
// leaves (zone-lock contention, frames in use) and the last trace.TailSpans
// spans of its timeline: the tracer, attached for a report, moves no number.
type runReport struct {
	OS       string          `json:"os"`
	Ops      uint64          `json:"ops"`
	Elapsed  time.Duration   `json:"elapsed"`
	Error    string          `json:"error,omitempty"`
	Events   uint64          `json:"events"`
	Metrics  *stats.Registry `json:"metrics"`
	Kernels  []kernelReport  `json:"kernels,omitempty"`
	Timeline []string        `json:"timeline,omitempty"`
}

type kernelReport struct {
	ZoneLock    sim.LockStats `json:"zone_lock"`
	FramesInUse int           `json:"frames_in_use"`
}

// runFlavour boots flavour, runs wl on it and closes it, adding the run to
// rep if a report is being written; sent is the fabric's message count.
func runFlavour(flavour string, topo hw.Topology, kernels int, wl workloadRow, p params, rep *report) (res workload.Result, sent uint64, err error) {
	o, err := boot(flavour, topo, kernels, p.seed)
	if err != nil {
		return res, 0, err
	}
	defer o.Close()
	pop, _ := o.(*core.OS)
	var col *trace.Collector
	if rep != nil && pop != nil {
		col = pop.AttachTracer()
	}
	res, err = runOn(o, wl, p)
	sent = o.Metrics().Counter("msg.sent").Value()
	if rep == nil {
		return res, sent, err
	}
	run := runReport{OS: flavour, Ops: res.Ops, Elapsed: res.Elapsed, Events: o.Engine().EventsProcessed(), Metrics: o.Metrics()}
	if err != nil {
		run.Error = err.Error()
	}
	if pop != nil {
		for k := range pop.Kernels() {
			frames := pop.Kernel(k).Frames
			run.Kernels = append(run.Kernels, kernelReport{frames.LockStats(), frames.Allocator().InUse()})
		}
		var tl strings.Builder
		_ = col.WriteTimeline(&tl, trace.TailSpans) // a strings.Builder never fails
		run.Timeline = strings.FieldsFunc(tl.String(), func(r rune) bool { return r == '\n' })
	}
	rep.Runs = append(rep.Runs, run)
	return res, sent, err
}

// runCompare runs one workload on every flavour that has a form of it,
// printing a side-by-side table.
func runCompare(w io.Writer, topo hw.Topology, kernels int, wl workloadRow, p params, rep *report) error {
	tab := stats.NewTable(fmt.Sprintf("%s, %d threads on %d cores", wl.name, p.threads, topo.Cores),
		"os", "ops", "elapsed", "ops/ms")
	for _, flavour := range flavours {
		res, _, err := runFlavour(flavour, topo, kernels, wl, p, rep)
		if err != nil {
			tab.AddRow(flavour, "-", err.Error(), "-")
			continue
		}
		tab.AddRow(flavour, fmt.Sprint(res.Ops), res.Elapsed.String(), fmt.Sprintf("%.0f", res.Throughput()/1000))
	}
	fmt.Fprintln(w, tab)
	return nil
}
