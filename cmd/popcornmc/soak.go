package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The chaos soak (-soak) is the recovery model's endurance test: a
// 4-kernel cluster runs a mixed workload of recoverable compute threads,
// roaming migrators and futex lockers while the fault plan cycles kernels
// through crash → heal → crash, opens a sub-DeadAfter partition, and keeps
// mild link noise on every edge. Each seed must end in a fully settled
// state:
//
//   - the engine quiesces (no deadlock, no lost wakeup — a wedged futex
//     waiter or leaked RPC entry would hang the run);
//   - the coherence sanitizer and race detector report nothing, so the
//     directory's single-writer invariant held through every reclaim,
//     reboot and rejoin;
//   - every thread reached a terminal state: exited, lost with its kernel,
//     or restarted from its checkpoint and then exited (LiveThreads == 0
//     and the origin's member table drained through Join);
//   - restarts never exceed losses (at-most-once recovery).
//
// Across the sweep at least one thread must demonstrably have been lost
// and restarted as StateRecovered; the pinned workers on the crash-cycled
// kernels make that deterministic in practice.

// soakOutcome is one soak seed's verdict.
type soakOutcome struct {
	seed       int64
	events     uint64
	lost       uint64
	recovered  uint64
	evacuated  uint64
	violations int
	err        error
	// spans is the seed's causal span collector, kept so a failing seed can
	// print the tail of its operation timeline next to the error.
	spans *trace.Collector
}

// runSoak sweeps the chaos soak over seeds 1..n (or a single pinned seed)
// and fails on the first seed whose end state breaks an invariant.
func runSoak(seeds, seed int64, verbose bool) error {
	var sweep []int64
	if seed != 0 {
		sweep = []int64{seed}
	} else {
		for s := int64(1); s <= seeds; s++ {
			sweep = append(sweep, s)
		}
	}
	var events, lost, recovered, evacuated uint64
	for _, s := range sweep {
		out := soakOne(s)
		events += out.events
		lost += out.lost
		recovered += out.recovered
		evacuated += out.evacuated
		if verbose {
			fmt.Printf("soak seed=%-4d events=%-8d lost=%d recovered=%d evacuated=%d violations=%d\n",
				s, out.events, out.lost, out.recovered, out.evacuated, out.violations)
		}
		if out.err != nil {
			// The failure timeline: the last operations the cluster ran
			// before the invariant broke, straight from the causal tracer.
			var tl strings.Builder
			if werr := out.spans.WriteTimeline(&tl, 40); werr == nil && tl.Len() > 0 {
				fmt.Printf("last operations before failure (seed %d):\n%s", s, tl.String())
			}
			return fmt.Errorf("soak seed %d: %w\nreplay with:\n\n  go run ./cmd/popcornmc -soak -seed %d -v", s, out.err, s)
		}
	}
	if recovered == 0 {
		return fmt.Errorf("soak: %d seeds ran but no lost thread was ever restarted as recovered; the checkpoint-restart path is dead", len(sweep))
	}
	fmt.Printf("soak: %d seeds clean (%d events, %d threads lost, %d restarted as recovered, %d evacuated)\n",
		len(sweep), events, lost, recovered, evacuated)
	return nil
}

// soakPlan builds one seed's fault schedule: two kernels cycled through
// crash → heal (kernel 1 crashes again after rejoining), a short partition
// between the two never-crashed kernels late in the run, and mild
// probabilistic noise on every link. Offsets are staggered per seed so the
// sweep explores different interleavings of detection, reclaim, restart and
// rejoin.
func soakPlan(seed int64) *faultinj.Plan {
	jit := func(i int64) time.Duration {
		return time.Duration((seed*7+i*13)%11) * 50 * time.Microsecond
	}
	plan := &faultinj.Plan{Seed: seed}
	plan.Rules = append(plan.Rules,
		// Migration traffic is exempt from link noise for the same reason as
		// the -faults sweep: crash timing exercises migration failure, and
		// the rollback-vs-crash race is unit-tested.
		faultinj.Rule{From: faultinj.Wildcard, To: faultinj.Wildcard, Type: int(msg.TypeMigrate)},
		faultinj.Rule{
			From: faultinj.Wildcard, To: faultinj.Wildcard, Type: faultinj.Wildcard,
			DropP: 0.05, DupP: 0.04, DelayP: 0.08, DelayMax: 10 * time.Microsecond,
		},
	)
	plan.Crashes = []faultinj.NodeCrash{
		{Node: 1, At: 1*time.Millisecond + jit(0)},
		{Node: 2, At: 2*time.Millisecond + jit(1)},
		{Node: 1, At: 6*time.Millisecond + jit(2)}, // re-crash after the heal below
	}
	plan.Heals = []faultinj.NodeHeal{
		{Node: 1, At: 3500*time.Microsecond + jit(3)},
		{Node: 2, At: 5*time.Millisecond + jit(4)},
		{Node: 1, At: 8*time.Millisecond + jit(5)},
	}
	// Short enough that the detector's partition-close reset prevents a
	// false declaration; long enough to enter the suspicion band and let
	// threads on kernel 3 evacuate.
	plan.Partitions = []faultinj.Partition{
		{A: 0, B: 3, From: 9 * time.Millisecond, Until: 9*time.Millisecond + 1200*time.Microsecond + jit(6)},
	}
	return plan
}

// soakOne boots the 4-kernel cluster, runs the soak workload under the
// seed's fault plan, and checks the end-state invariants.
func soakOne(seed int64) soakOutcome {
	out := soakOutcome{seed: seed}
	topo := hw.Topology{Cores: 16, NUMANodes: 2}
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		out.err = err
		return out
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = 4
	o, err := core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: seed, TieShuffle: true})
	if err != nil {
		out.err = err
		return out
	}
	defer o.Close()
	ck := o.AttachSanitizer(sanitize.Config{FailFast: true})
	out.spans = o.AttachTracer()
	e := o.Engine()
	// Backstop only: a healthy soak seed quiesces in well under a million
	// events; hitting the limit means something retried forever.
	e.SetEventLimit(5_000_000)
	o.EnableFaults(soakPlan(seed), msg.FaultConfig{})

	var joinErr, closeErr error
	e.Spawn("soak-driver", func(p *sim.Proc) {
		pr, err := o.StartProcessOn(p, 0) // origin on the never-crashed kernel
		if err != nil {
			joinErr = err
			return
		}
		var base mem.Addr
		const (
			pages    = 4
			lockPage = pages     // futex word
			tallyPg  = pages + 1 // shared tally
		)
		ready := sim.NewWaitGroup()
		ready.Add(1)
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap((pages+2)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			for i := 0; i < pages; i++ {
				if err := th.Store(a+mem.Addr(i*hw.PageSize), int64(i)); err != nil {
					panic(err)
				}
			}
			base = a
			ready.Done()
		}); err != nil {
			joinErr = err
			return
		}
		ready.Wait(p)

		// Two recoverable workers pinned to the crash-cycled kernels: they
		// are guaranteed to die with their kernel and be restarted from
		// their checkpoint at the origin.
		for i, k := range []int{1, 2} {
			i := i
			if err := pr.SpawnRecoverable(p, k, func(th osi.Thread) {
				soakWork(th, base, pages, tallyPg, int64(seed*100+int64(i)), false)
			}); err != nil {
				joinErr = err
				return
			}
		}
		// Two recoverable roamers starting on kernel 3: they migrate among
		// kernels 1-3, sometimes landing on a kernel shortly before it dies,
		// and evacuate kernel 3 during the late partition's suspicion window.
		for i := 0; i < 2; i++ {
			i := i
			if err := pr.SpawnRecoverable(p, 3, func(th osi.Thread) {
				soakWork(th, base, pages, tallyPg, int64(seed*100+10+int64(i)), true)
			}); err != nil {
				joinErr = err
				return
			}
		}
		// Futex lockers pinned to the origin kernel: the lock word's wait
		// queue is homed there, and a holder must never die with a remote
		// kernel — a dead holder's lock is never released (the robust-futex
		// gap the recovery model documents as out of scope).
		for i := 0; i < 2; i++ {
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				lock := base + mem.Addr(lockPage*hw.PageSize)
				tally := base + mem.Addr(tallyPg*hw.PageSize)
				for n := 0; n < 40; n++ {
					if err := soakLockAcquire(th, lock); err != nil {
						panic(err)
					}
					if _, err := th.FetchAdd(tally, 1); err != nil {
						panic(err)
					}
					th.Compute(20 * time.Microsecond)
					if err := soakLockRelease(th, lock); err != nil {
						panic(err)
					}
					th.Compute(100 * time.Microsecond)
				}
			}); err != nil {
				joinErr = err
				return
			}
		}
		// Join tracks the origin's member table: it waits out lost members'
		// reaping and restarted members' full re-execution, not just the
		// first incarnations' procs.
		joinErr = pr.Join(p)
		closeErr = pr.Close(p)
	})

	err = e.Run()
	out.events = e.EventsProcessed()
	out.violations = len(ck.Violations()) + len(ck.Races())
	m := o.Metrics()
	out.lost = m.Counter("core.threads.lost").Value()
	out.recovered = m.Counter("core.threads.recovered").Value()
	out.evacuated = m.Counter("core.threads.evacuated").Value()
	switch {
	case err != nil && errors.Is(err, sim.ErrEventLimit):
		out.err = fmt.Errorf("event limit hit: the cluster never settled: %w", err)
	case err != nil:
		out.err = err
	case out.violations > 0:
		out.err = fmt.Errorf("%d sanitizer violations", out.violations)
	case joinErr != nil:
		out.err = fmt.Errorf("join: %w", joinErr)
	case closeErr != nil:
		out.err = fmt.Errorf("close: %w", closeErr)
	case o.LiveThreads() != 0:
		out.err = fmt.Errorf("%d threads still live after quiescence", o.LiveThreads())
	case out.recovered > out.lost:
		out.err = fmt.Errorf("%d restarts for %d losses: recovery ran more than once per lost thread", out.recovered, out.lost)
	}
	return out
}

// soakWork is the recoverable workers' body: seeded compute/load/add churn
// against the shared pages, with optional migration among kernels 1-3.
// Restarted incarnations re-run it from the top, so it only accumulates
// (FetchAdd) and tolerates the degradation errors a fault window produces.
func soakWork(th osi.Thread, base mem.Addr, pages, tallyPg int, seed int64, roam bool) {
	r := rand.New(rand.NewSource(seed))
	tally := base + mem.Addr(tallyPg*hw.PageSize)
	for n := 0; n < 100; n++ {
		th.Compute(time.Duration(50+r.Intn(100)) * time.Microsecond)
		switch r.Intn(4) {
		case 0:
			if _, err := th.Load(base + mem.Addr(r.Intn(pages)*hw.PageSize)); err != nil && !isDegradation(err) {
				panic(err)
			}
		case 1:
			if _, err := th.FetchAdd(tally, 1); err != nil && !isDegradation(err) {
				panic(err)
			}
		case 2:
			if roam && r.Intn(3) == 0 {
				// Migration to a dead kernel fails; staying put is the
				// degradation.
				dst := 1 + r.Intn(3)
				if dst != th.KernelID() {
					_ = th.Migrate(dst)
				}
			}
		}
	}
}

// soakLockAcquire / soakLockRelease are the standard futex mutex over one
// shared word, as a soak thread uses it.
func soakLockAcquire(th osi.Thread, word mem.Addr) error {
	for {
		swapped, err := th.CompareAndSwap(word, 0, 1)
		if err != nil {
			return err
		}
		if swapped {
			return nil
		}
		if err := th.FutexWait(word, 1); err != nil && !strings.Contains(err.Error(), "value changed") {
			return err
		}
	}
}

func soakLockRelease(th osi.Thread, word mem.Addr) error {
	if err := th.Store(word, 0); err != nil {
		return err
	}
	_, err := th.FutexWake(word, 1)
	return err
}
