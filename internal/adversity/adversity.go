// Package adversity holds the adversarial runs more than one driver makes:
// the sweep workloads cmd/popcornmc explores seed by seed and bench's R1
// tabulates (machine shape, fault plan, workload — one definition, so the
// two are the same run by construction), the one-process skeleton the
// soaks and R3 hang their workers on, and the predicate that tells a
// tolerated degradation from a bug.
package adversity

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Shape is the machine a run boots: Cores over two NUMA nodes, split
// evenly across Kernels kernel instances.
type Shape struct{ Cores, Kernels int }

// Config returns the boot configuration for one seeded run on s, with
// same-instant events shuffled from the seed so that each seed is a
// different legal schedule.
func (s Shape) Config(seed int64) (core.Config, error) {
	topo := hw.Topology{Cores: s.Cores, NUMANodes: 2}
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		return core.Config{}, err
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = s.Kernels
	return core.Config{Topology: topo, Cluster: &cc, Seed: seed, TieShuffle: true}, nil
}

// Sweep is one protocol-heavy run: the machine it boots, the fault plan it
// faces when the fault plane is attached, and the workload that drives the
// booted OS to quiescence.
type Sweep struct {
	Name string
	Shape
	Plan func(seed int64) *faultinj.Plan
	Run  func(o *core.OS, seed int64) error
}

// Sweeps are the runs whose schedules popcornmc explores, each stressing
// one family of protocol paths the sanitizer watches: address-space layout
// updates and page grants with one process spread over the full 8-kernel
// cluster (contention), page grants/revocations plus thread migration on
// the 2-kernel testbed (migration), and cross-kernel futex hand-offs
// (futex).
var Sweeps = []Sweep{
	{
		Name: "contention", Shape: Shape{Cores: 64, Kernels: 8}, Plan: linkNoise,
		// One process, a thread per kernel, every thread mapping, touching
		// and unmapping in the shared address space: remote spawns, remote
		// faults and a layout-update push per map and unmap. A workload of
		// independent processes (ThreadBomb, where each spawner's process
		// originates on its own kernel and children clone locally) would
		// send no message at all, and a model checker would explore nothing
		// distributed.
		Run: func(o *core.OS, _ int64) error {
			_, err := workload.MmapStorm(o, workload.MmapStormSpec{Threads: 8, Iters: 4, Pages: 4, Shared: true})
			return err
		},
	},
	{
		Name: "migration", Shape: Shape{Cores: 16, Kernels: 2},
		Plan: func(seed int64) *faultinj.Plan {
			plan := linkNoise(seed)
			// The second TypeMigrate commit is the destination's acceptance
			// reply; shortly after it the migrated thread has resumed on kernel 1
			// and dies with it. The window must be shorter than the migrated
			// consumer's remaining (all-local) work or the crash lands on an
			// already-empty kernel.
			plan.TypeCrashes = append(plan.TypeCrashes, faultinj.TypeCrash{
				Node: 1, Type: int(msg.TypeMigrate), Nth: 2, After: 2 * time.Microsecond,
			})
			return plan
		},
		// Pull first (cross-kernel demand faults revoke the producer's
		// exclusive copies), then the migration protocol itself.
		Run: func(o *core.OS, _ int64) error {
			if _, err := workload.MigrationBenefit(o, workload.MigrationBenefitSpec{Pages: 16, Rounds: 2}); err != nil {
				return err
			}
			_, err := workload.MigrationBenefit(o, workload.MigrationBenefitSpec{Pages: 16, Rounds: 2, Migrate: true})
			return err
		},
	},
	{
		Name: "futex", Shape: Shape{Cores: 16, Kernels: 2}, Plan: linkNoise,
		Run: func(o *core.OS, _ int64) error {
			_, err := workload.FutexChain(o, workload.FutexChainSpec{Threads: 8, Iters: 4, CS: time.Microsecond, Shared: true})
			return err
		},
	},
}

// linkNoise is the sweeps' common fault plan: probabilistic drop,
// duplication and delay on every link.
func linkNoise(seed int64) *faultinj.Plan {
	return &faultinj.Plan{Seed: seed, Rules: []faultinj.Rule{
		// Migration traffic is exempt from link noise: the migration sweep's
		// crash exercises migration failure deterministically, and the
		// rollback-vs-crash race is unit-tested rather than swept.
		{From: faultinj.Wildcard, To: faultinj.Wildcard, Type: int(msg.TypeMigrate)},
		{
			From: faultinj.Wildcard, To: faultinj.Wildcard, Type: faultinj.Wildcard,
			DropP: 0.12, DupP: 0.08, DelayP: 0.12, DelayMax: 20 * time.Microsecond,
		},
	}}
}

// IsDegradation reports whether err is a tolerated consequence of a run's
// adversity — a dead peer from an injected crash, or a backpressure
// rejection from the overload plane — rather than a bug. Workloads panic
// with the transport error wrapped and the engine keeps a panic's error in
// its failure's chain, so the chain alone decides.
func IsDegradation(err error) bool {
	return msg.IsDeadPeer(err) || msg.IsBackpressure(err)
}

// OneProcess runs the skeleton the soaks and R3 share as workload.Drive's
// body: it starts a process whose origin is kernel 0; a setup thread there
// maps pages pages and stores first+i into page i for each i below seeded;
// workers spawns the run's threads against the mapping (and waits for
// whatever must precede the join); then it joins — Join tracks the origin's
// member table, so it waits out lost members' reaping and restarted
// members' full re-execution, not just the first incarnations' procs — and
// closes the process. It returns the instant the close finished and
// workload.Drive's error, of which the body's is the join's or the close's.
func OneProcess(o *core.OS, name string, pages, seeded int, first int64,
	workers func(p *sim.Proc, pr *core.Process, base mem.Addr) error) (time.Duration, error) {
	var done time.Duration
	err := workload.Drive(o, name, func(p *sim.Proc) error {
		pr, err := o.StartProcessOn(p, 0)
		if err != nil {
			return err
		}
		var base mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap(uint64(pages)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			for i := 0; i < seeded; i++ {
				if err := th.Store(a+mem.Addr(i*hw.PageSize), first+int64(i)); err != nil {
					panic(err)
				}
			}
			base = a
			ready.Done()
		}); err != nil {
			return err
		}
		ready.Wait(p)
		if err := workers(p, pr, base); err != nil {
			return err
		}
		joinErr := pr.Join(p)
		closeErr := pr.Close(p)
		done = p.Now().Duration()
		if joinErr != nil {
			return fmt.Errorf("join: %w", joinErr)
		}
		if closeErr != nil {
			return fmt.Errorf("close: %w", closeErr)
		}
		return nil
	})
	return done, err
}
