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

// The failover soak (-soak -failover) is the origin-replication plane's
// endurance test: a 4-kernel cluster with failover enabled runs a
// fault-heavy workload whose process origin lives on kernel 0, and the
// fault plan kills kernel 0 relative to its own directory-commit stream
// (CrashOrigin) while the ring successor, kernel 1, stays alive. The crash
// must be absorbed, not degraded around:
//
//   - kernel 1 promotes itself: the replicated page directory and group
//     metadata replace the dead origin's, under a bumped origin-epoch
//     (msg.failover.promotions >= 1 per seed);
//   - zero pages are reclaimed as lost (vm.pages.reclaimed == 0): every
//     directory entry the origin held was mirrored, so promotion preserves
//     the values instead of un-defining them;
//   - zero exits complete orphaned (tg.exit.orphaned == 0): post-crash
//     exits reroute to the promoted origin and release its joiners;
//   - the coherence sanitizer and race detector stay silent through the
//     handover, and the old origin's late heal re-enters as a plain
//     replica, its pre-crash traffic fenced by the origin-epoch stamp;
//   - the engine quiesces with every thread settled and the member table
//     drained through the promoted origin's WaitMembers.

// failoverOutcome is one failover-soak seed's verdict.
type failoverOutcome struct {
	seed       int64
	events     uint64
	promotions uint64
	reclaimed  uint64
	orphaned   uint64
	replicated uint64
	fenced     uint64
	violations int
	err        error
	spans      *trace.Collector
	// reports carries the sanitizer's rendered violations for the failure
	// printout.
	reports []string
}

// runFailoverSoak sweeps the failover soak over seeds 1..n (or a single
// pinned seed) and fails on the first seed that breaks an invariant.
func runFailoverSoak(seeds, seed int64, verbose bool) error {
	var sweep []int64
	if seed != 0 {
		sweep = []int64{seed}
	} else {
		for s := int64(1); s <= seeds; s++ {
			sweep = append(sweep, s)
		}
	}
	var events, promotions, replicated, fenced uint64
	for _, s := range sweep {
		out := failoverOne(s)
		events += out.events
		promotions += out.promotions
		replicated += out.replicated
		fenced += out.fenced
		if verbose {
			fmt.Printf("failover seed=%-4d events=%-8d promotions=%d replicated=%-5d reclaimed=%d orphaned=%d fenced=%d violations=%d\n",
				s, out.events, out.promotions, out.replicated, out.reclaimed, out.orphaned, out.fenced, out.violations)
		}
		if out.err != nil {
			for _, r := range out.reports {
				fmt.Println(r)
				fmt.Println()
			}
			var tl strings.Builder
			if werr := out.spans.WriteTimeline(&tl, 40); werr == nil && tl.Len() > 0 {
				fmt.Printf("last operations before failure (seed %d):\n%s", s, tl.String())
			}
			return fmt.Errorf("failover soak seed %d: %w\nreplay with:\n\n  go run ./cmd/popcornmc -soak -failover -seed %d -v", s, out.err, s)
		}
	}
	fmt.Printf("failover soak: %d seeds clean (%d events, %d promotions, %d snapshots replicated, %d stale-origin messages fenced)\n",
		len(sweep), events, promotions, replicated, fenced)
	return nil
}

// failoverPlan builds one seed's fault schedule: kernel 0 (the origin of
// every group in the run) dies relative to its own directory-commit count,
// so the crash lands mid-replication-stream at a seed-staggered point; a
// late heal brings the stale origin back as a plain replica. Mild link
// noise (delay/duplication only — no drops, so the run isolates crash
// handling from loss handling) keeps retransmissions and the stale-origin
// fence exercised.
func failoverPlan(seed int64) *faultinj.Plan {
	plan := &faultinj.Plan{Seed: seed}
	plan.Rules = append(plan.Rules,
		faultinj.Rule{From: faultinj.Wildcard, To: faultinj.Wildcard, Type: int(msg.TypeMigrate)},
		faultinj.Rule{
			From: faultinj.Wildcard, To: faultinj.Wildcard, Type: faultinj.Wildcard,
			DupP: 0.05, DelayP: 0.10, DelayMax: 15 * time.Microsecond,
		},
	)
	plan.OriginCrashes = []faultinj.CrashOrigin{
		// The origin's commit stream counts its own local faults plus every
		// remote worker's directory transactions, so commit ~20+ lands well
		// after the workload is spread across the survivors but long before
		// it drains.
		{Node: 0, Nth: 20 + int(seed%13), After: time.Duration(seed%5) * 30 * time.Microsecond},
	}
	plan.Heals = []faultinj.NodeHeal{
		// Late enough that detection, promotion and the handover announcement
		// have long settled: the rejoin is a stale origin re-entering as a
		// plain replica.
		{Node: 0, At: 12 * time.Millisecond},
	}
	return plan
}

// failoverOne boots the 4-kernel cluster with the failover plane enabled,
// runs the workload under the seed's origin-crash plan, and checks the
// zero-loss invariants.
func failoverOne(seed int64) failoverOutcome {
	out := failoverOutcome{seed: seed}
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
	e.SetEventLimit(5_000_000)
	o.EnableFailover()
	o.EnableFaults(failoverPlan(seed), msg.FaultConfig{})

	var joinErr, closeErr error
	e.Spawn("failover-driver", func(p *sim.Proc) {
		pr, err := o.StartProcessOn(p, 0) // origin on the kernel the plan kills
		if err != nil {
			joinErr = err
			return
		}
		var base mem.Addr
		const (
			shared  = 4 // read-shared pages, written once during setup
			workers = 6 // each also owns a private write page after these
		)
		ready := sim.NewWaitGroup()
		ready.Add(1)
		// Setup runs on the doomed origin before the crash can arm: its few
		// commits seed the replication stream the successor promotes from.
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap((shared+workers+1)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			for i := 0; i < shared; i++ {
				if err := th.Store(a+mem.Addr(i*hw.PageSize), int64(100+i)); err != nil {
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

		// Six workers spread over the surviving kernels churn the directory:
		// reads of the shared pages, writes to each worker's own page, and
		// atomic adds on one tally word. No futexes (a lock word homed at the
		// dead origin is the documented out-of-scope gap) and no layout calls
		// after setup: the load is pure directory traffic, the thing the
		// replication stream must preserve. Fault RPCs that hit the dying
		// origin retry inside the VM layer until the promoted origin answers,
		// so the workers see no errors at all.
		tally := base + mem.Addr((shared+workers)*hw.PageSize)
		for i := 0; i < workers; i++ {
			i := i
			if err := pr.Spawn(p, 1+i%3, func(th osi.Thread) {
				r := rand.New(rand.NewSource(seed*100 + int64(i)))
				own := base + mem.Addr((shared+i)*hw.PageSize)
				for n := 0; n < 80; n++ {
					th.Compute(time.Duration(40+r.Intn(80)) * time.Microsecond)
					switch r.Intn(3) {
					case 0:
						if _, err := th.Load(base + mem.Addr(r.Intn(shared)*hw.PageSize)); err != nil {
							panic(err)
						}
					case 1:
						if err := th.Store(own, int64(n)); err != nil {
							panic(err)
						}
					default:
						if _, err := th.FetchAdd(tally, 1); err != nil {
							panic(err)
						}
					}
				}
			}); err != nil {
				joinErr = err
				return
			}
		}

		// Wait for the promotion before joining: a Join parked inside the
		// dead origin's service would wait on a condition nobody signals (the
		// documented pre-crash-Join limitation), whereas one issued after the
		// handover routes to the promoted holder.
		for o.Fabric().OriginHolder(0) == 0 {
			p.Sleep(250 * time.Microsecond)
		}
		joinErr = pr.Join(p)
		closeErr = pr.Close(p)
	})

	err = e.Run()
	out.events = e.EventsProcessed()
	out.violations = len(ck.Violations()) + len(ck.Races())
	for _, v := range ck.Violations() {
		out.reports = append(out.reports, v.String())
	}
	for _, r := range ck.Races() {
		out.reports = append(out.reports, r.String())
	}
	m := o.Metrics()
	out.promotions = m.Counter("msg.failover.promotions").Value()
	out.reclaimed = m.Counter("vm.pages.reclaimed").Value()
	out.orphaned = m.Counter("tg.exit.orphaned").Value()
	out.replicated = m.Counter("dir.failover.replicated").Value() + m.Counter("tg.failover.replicated").Value()
	out.fenced = m.Counter("msg.fault.staleorigin").Value()
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
	case out.promotions == 0:
		out.err = fmt.Errorf("the origin crash never produced a promotion")
	case out.reclaimed != 0:
		out.err = fmt.Errorf("%d pages reclaimed as lost despite a live successor", out.reclaimed)
	case out.orphaned != 0:
		out.err = fmt.Errorf("%d exits completed orphaned despite a promoted origin", out.orphaned)
	}
	return out
}
