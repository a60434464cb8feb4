package bench

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md (T1, F4, D2, ...).
	ID string
	// Title is the human-readable name.
	Title string
	// Run executes the experiment and returns its printable result (a
	// *stats.Table or *stats.Series rendered via fmt.Stringer).
	Run func(s Scale) (fmt.Stringer, error)
	// RunTraced, when non-nil, executes the experiment with a causal span
	// collector attached and returns it alongside the normal result. The
	// collector only records virtual timestamps the run already produced, so
	// the printable result is identical to Run's (the golden-table tests check
	// it at both scales). Experiments without a traced variant leave this nil.
	RunTraced func(s Scale) (fmt.Stringer, *trace.Collector, error)
}

// wrapT adapts a table generator.
func wrapT[T fmt.Stringer](fn func(Scale) (T, error)) func(Scale) (fmt.Stringer, error) {
	return func(s Scale) (fmt.Stringer, error) {
		v, err := fn(s)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// traced is an experiment whose generator can attach a span collector: Run
// calls it untraced and RunTraced traced, so both print one generator's
// result.
func traced[T fmt.Stringer](id, title string, gen func(s Scale, traced bool) (T, *trace.Collector, error)) Experiment {
	return Experiment{ID: id, Title: title,
		Run: wrapT(func(s Scale) (T, error) {
			v, _, err := gen(s, false)
			return v, err
		}),
		RunTraced: func(s Scale) (fmt.Stringer, *trace.Collector, error) {
			v, col, err := gen(s, true)
			if err != nil {
				return nil, nil, err
			}
			return v, col, nil
		},
	}
}

// Experiments returns the full experiment registry, sorted by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		traced("T1", "Message-layer round trip", t1Run),
		traced("T2", "Thread migration latency breakdown", t2Run),
		{ID: "T3", Title: "Remote vs local thread creation", Run: wrapT(t3ThreadCreate)},
		{ID: "T4", Title: "Uncontended syscall overhead", Run: wrapT(t4SyscallOverhead)},
		{ID: "F1", Title: "Thread-creation scalability", Run: wrapT(f1ThreadBomb)},
		traced("F2", "Page-fault service latency", f2Run),
		{ID: "F3", Title: "VMA-operation propagation", Run: wrapT(f3VMAPropagation)},
		{ID: "F4", Title: "mmap-storm scalability (headline)", Run: wrapT(f4MmapStorm)},
		{ID: "F4b", Title: "mmap-storm, one shared process", Run: wrapT(f4bSharedMmapStorm)},
		{ID: "F5", Title: "Futex scalability (partitioned)", Run: wrapT(f5FutexChain)},
		{ID: "F5b", Title: "Futex scalability (one shared lock)", Run: wrapT(f5SharedFutex)},
		{ID: "F6", Title: "Page-fault scalability", Run: wrapT(f6FaultSweep)},
		{ID: "F7", Title: "NPB-like compute kernels", Run: wrapT(f7ComputeKernels)},
		{ID: "F8", Title: "Migration cost vs benefit", Run: wrapT(f8MigrationBenefit)},
		{ID: "F9", Title: "Sharded KV store (macro)", Run: wrapT(f9KVStore)},
		{ID: "D1", Title: "Ablation: mmap propagation policy", Run: wrapT(ablationVMAPush)},
		{ID: "D2", Title: "Ablation: dummy-thread pool", Run: wrapT(ablationDummyThread)},
		{ID: "D3", Title: "Ablation: kernel count", Run: wrapT(ablationKernelCount)},
		{ID: "D4", Title: "Ablation: ring slot size", Run: wrapT(ablationSlotSize)},
		{ID: "D5", Title: "Ablation: page ownership vs write forwarding", Run: wrapT(ablationPageOwnership)},
		{ID: "R1", Title: "Fault-sweep transport & degradation counters", Run: wrapT(r1FaultCounters)},
		{ID: "R2", Title: "Overload sweep: flow control off vs on", Run: wrapT(r2OverloadSweep)},
		{ID: "R3", Title: "Origin-failover sweep: replication overhead & downtime", Run: wrapT(r3FailoverSweep)},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
