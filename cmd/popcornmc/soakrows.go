package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adversity"
	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The soak rows. Each is a plan (one seed's adversity), a run (the workers
// hung on adversity.OneProcess) and a check (the end state beyond what the
// harness asserts of every row: sanitizer and race detector silent, the
// engine quiesced inside the backstop — a wedged futex waiter, a leaked
// credit or a leaked RPC entry would deadlock or spin — the process joined
// and closed through its origin's member table, and no thread still live).

// The chaos soak is the recovery model's endurance test: a mixed workload
// of recoverable compute threads, roaming migrators and futex lockers while
// the fault plan cycles kernels through crash → heal → crash, opens a
// sub-DeadAfter partition, and keeps mild link noise on every edge. Every
// thread must reach a terminal state — exited, lost with its kernel, or
// restarted from its checkpoint and then exited — with restarts never
// exceeding losses (at-most-once recovery); and across the sweep at least
// one thread must demonstrably have been lost and restarted as
// StateRecovered, which the pinned workers on the crash-cycled kernels make
// deterministic in practice.

// chaosPlan builds one seed's fault schedule: two kernels cycled through
// crash → heal (kernel 1 crashes again after rejoining), a short partition
// between the two never-crashed kernels late in the run, and mild
// probabilistic noise on every link. Offsets are staggered per seed so the
// sweep explores different interleavings of detection, reclaim, restart and
// rejoin.
func chaosPlan(seed int64) *faultinj.Plan {
	jit := func(i int64) time.Duration {
		return time.Duration((seed*7+i*13)%11) * 50 * time.Microsecond
	}
	plan := &faultinj.Plan{Seed: seed}
	plan.Rules = append(plan.Rules,
		// Migration traffic is exempt from link noise for the same reason as
		// the sweeps' fault plan: crash timing exercises migration failure, and
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
	// The late partition drops 0-3 traffic after the last heal, when the
	// failure detectors have stopped (they run until every planned crash
	// and heal has fired): no kernel suspects another in it, so no thread
	// evacuates (evacuated=0 at 128 seeds). core's
	// TestEvacuationUnderSuspicion covers evacuation.
	plan.Partitions = []faultinj.Partition{
		{A: 0, B: 3, From: 9 * time.Millisecond, Until: 9*time.Millisecond + 1200*time.Microsecond + jit(6)},
	}
	return plan
}

func chaosRun(o *core.OS, seed int64) error {
	const (
		pages    = 4
		lockPage = pages     // futex word
		tallyPg  = pages + 1 // shared tally
	)
	// The origin is kernel 0, which the plan never crashes.
	_, err := adversity.OneProcess(o, "soak-driver", pages+2, pages, 0, func(p *sim.Proc, pr *core.Process, base mem.Addr) error {
		// Two recoverable workers pinned to the crash-cycled kernels: they
		// are guaranteed to die with their kernel and be restarted from
		// their checkpoint at the origin. Link noise can stretch the remote
		// clone past its kernel's crash; a clone that dies with its target
		// is a degradation the driver absorbs, and the worker is skipped.
		for i, k := range []int{1, 2} {
			if err := pr.SpawnRecoverable(p, k, func(th osi.Thread) {
				chaosWork(th, base, pages, tallyPg, seed*100+int64(i), false)
			}); err != nil && !adversity.IsDegradation(err) {
				return err
			}
		}
		// Two recoverable roamers starting on kernel 3: they migrate among
		// kernels 1-3, sometimes landing on a kernel shortly before it dies.
		// They do not evacuate during the late partition (see its plan).
		for i := 0; i < 2; i++ {
			if err := pr.SpawnRecoverable(p, 3, func(th osi.Thread) {
				chaosWork(th, base, pages, tallyPg, seed*100+10+int64(i), true)
			}); err != nil {
				return err
			}
		}
		// Futex lockers pinned to the origin kernel: the lock word's wait
		// queue is homed there, and a holder must never die with a remote
		// kernel — a dead holder's lock is never released (the robust-futex
		// gap the recovery model documents as out of scope).
		for i := 0; i < 2; i++ {
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				lock := workload.NewFutexMutex(base + mem.Addr(lockPage*hw.PageSize))
				tally := base + mem.Addr(tallyPg*hw.PageSize)
				for n := 0; n < 40; n++ {
					if err := lock.Lock(th); err != nil {
						panic(err)
					}
					if _, err := th.FetchAdd(tally, 1); err != nil {
						panic(err)
					}
					th.Compute(20 * time.Microsecond)
					if err := lock.Unlock(th); err != nil {
						panic(err)
					}
					th.Compute(100 * time.Microsecond)
				}
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

func chaosCheck(m *stats.Registry) error {
	lost, recovered := m.Counter("core.threads.lost").Value(), m.Counter("core.threads.recovered").Value()
	if recovered > lost {
		return fmt.Errorf("%d restarts for %d losses: recovery ran more than once per lost thread", recovered, lost)
	}
	return nil
}

// chaosWork is the recoverable workers' body: seeded compute/load/add churn
// against the shared pages, with optional migration among kernels 1-3.
// Restarted incarnations re-run it from the top, so it only accumulates
// (FetchAdd) and tolerates the degradation errors a fault window produces.
func chaosWork(th osi.Thread, base mem.Addr, pages, tallyPg int, seed int64, roam bool) {
	r := rand.New(rand.NewSource(seed))
	tally := base + mem.Addr(tallyPg*hw.PageSize)
	for n := 0; n < 100; n++ {
		th.Compute(time.Duration(50+r.Intn(100)) * time.Microsecond)
		switch r.Intn(4) {
		case 0:
			if _, err := th.Load(base + mem.Addr(r.Intn(pages)*hw.PageSize)); err != nil && !adversity.IsDegradation(err) {
				panic(err)
			}
		case 1:
			if _, err := th.FetchAdd(tally, 1); err != nil && !adversity.IsDegradation(err) {
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

// The overload soak is the flow-control plane's endurance test: credits,
// the control lane, the breaker/budget machinery and the gray-failure
// detector all attached, a coherence workload running while raw generators
// offer roughly ten times the fabric's drain rate on the busiest links, a
// slow-link window turning one link gray mid-run, and one kernel
// crash-healing under the load. Each seed must end with the bulk backlog
// bounded by construction — msg.queue.maxdepth never exceeds
// CreditsPerLink × inbound links, no matter the offered load; at least one
// full breaker cycle (open → half-open → close) from the crash-cycled
// kernel's probe traffic; the healed kernel rejoined, and no control
// message (heartbeat, rejoin, invalidation, reply) having waited behind
// bulk longer than the control deadline; and load demonstrably shed:
// TrySend refusals or slow-link sheds, not silent queueing, absorbed the
// excess.

// Overload tuning shared by the row's flow config, its plan, its run and
// its check.
const (
	ovCredits      = 8
	ovBulkSize     = 16384                 // ~4.3 us drain per message remote
	ovSendGap      = 400 * time.Nanosecond // ~10x the per-message drain cost
	ovBulkCount    = 300                   // per generator, ~6 ms of pressure
	ovCtrlDeadline = 300 * time.Microsecond
	ovEnd          = 9 * time.Millisecond
)

// overloadPlan is one seed's adversity: a slow-link window that grays the
// 0<->1 link while the generators hammer it, and a crash → heal cycle on
// kernel 2 that drives the breaker through open, half-open and close.
func overloadPlan(seed int64) *faultinj.Plan {
	jit := func(i int64) time.Duration {
		return time.Duration((seed*5+i*17)%13) * 20 * time.Microsecond
	}
	return &faultinj.Plan{
		Seed: seed,
		SlowLinks: []faultinj.SlowLink{
			// Extra is per delivery, so a Call pays it twice (request +
			// reply): RTTs inflate by ~160 us, far past the detector's
			// SlowAfter, while heartbeats merely arrive late, well inside
			// the failure detector's patience.
			{A: 0, B: 1, From: 1 * time.Millisecond, Until: 4 * time.Millisecond,
				Extra: 80 * time.Microsecond, Jitter: 10 * time.Microsecond},
		},
		Crashes: []faultinj.NodeCrash{{Node: 2, At: 2*time.Millisecond + jit(0)}},
		Heals:   []faultinj.NodeHeal{{Node: 2, At: 4*time.Millisecond + jit(1)}},
	}
}

func overloadRun(o *core.OS, seed int64) error {
	e, f := o.Engine(), o.Fabric()

	// Raw transport load rides TypeUser, which no kernel service claims.
	for k := 0; k < o.Kernels(); k++ {
		f.Endpoint(msg.NodeID(k)).Handle(msg.TypeUser, func(p *sim.Proc, m *msg.Message) *msg.Message {
			if m.Payload == "probe" {
				return &msg.Message{Payload: "ack"}
			}
			return nil
		})
	}

	// Bulk generators: blocking senders on the gray link (0->1) and the
	// clean link (3->0), plus a TrySend generator on the gray link that
	// sheds rather than waits. Offered load is ~10x drain: one attempted
	// message per ovSendGap against a ~4 us per-message drain cost.
	for _, link := range []struct {
		from, to msg.NodeID
		try      bool
	}{{0, 1, false}, {3, 0, false}, {0, 1, true}, {1, 3, false}} {
		e.Spawn("overload-gen", func(p *sim.Proc) {
			ep := f.Endpoint(link.from)
			for i := 0; i < ovBulkCount; i++ {
				m := &msg.Message{Type: msg.TypeUser, To: link.to, Size: ovBulkSize}
				if link.try {
					_ = ep.TrySend(p, m) // refusals are the point
				} else {
					ep.Send(p, m)
				}
				p.Sleep(ovSendGap)
			}
		})
	}

	// Probers: small Calls onto the gray link feed the detector RTT
	// samples, and three concurrent probers hammer the crash-cycled kernel.
	// Three matters: a Call already in flight when the failure detector
	// declares the peer dead completes as a breaker failure, while Calls
	// issued afterwards fast-fail before the breaker sees them — so tripping
	// BreakerFailures consecutive failures needs that many Calls pending at
	// the declaration. The half-open probe after the heal closes the cycle.
	// Errors are the expected degradation, not failures.
	probe := func(name string, to msg.NodeID, gap time.Duration) {
		e.Spawn(name, func(p *sim.Proc) {
			ep := f.Endpoint(0)
			for p.Now().Duration() < ovEnd {
				if _, err := ep.Call(p, &msg.Message{
					Type: msg.TypeUser, To: to, Size: 64, Payload: "probe",
				}); err != nil && !adversity.IsDegradation(err) {
					panic(err)
				}
				p.Sleep(gap)
			}
		})
	}
	probe("overload-probe-gray", 1, 30*time.Microsecond)
	for i := 0; i < 3; i++ {
		probe("overload-probe-breaker", 2, 50*time.Microsecond)
	}

	// The coherence workload: the same churn the chaos soak runs, scaled
	// down, so the sanitizer watches real VM/futex protocol traffic share
	// the fabric with the generators. The kernel-2 worker is recoverable —
	// it dies with the crash and restarts from its checkpoint.
	const pages = 4
	_, err := adversity.OneProcess(o, "overload-driver", pages+1, pages, 0, func(p *sim.Proc, pr *core.Process, base mem.Addr) error {
		if err := pr.SpawnRecoverable(p, 2, func(th osi.Thread) {
			overloadWork(th, base, pages, seed*100)
		}); err != nil {
			return err
		}
		for i, k := range []int{1, 3} {
			if err := pr.Spawn(p, k, func(th osi.Thread) {
				overloadWork(th, base, pages, seed*100+1+int64(i))
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

func overloadCheck(m *stats.Registry) error {
	maxDepth := m.Counter("msg.queue.maxdepth").Value()
	ctrlMax := m.Histogram("msg.flow.ctrlwait").Max()
	opened := m.Counter("msg.flow.breaker_open").Value()
	halfOpened := m.Counter("msg.flow.breaker_halfopen").Value()
	closed := m.Counter("msg.flow.breaker_close").Value()
	depthBound := uint64(ovCredits * (soakShape.Kernels - 1))
	switch {
	case maxDepth > depthBound:
		return fmt.Errorf("bulk queue depth reached %d, want <= %d (credits x inbound links): flow control failed to bound the backlog", maxDepth, depthBound)
	case min(opened, halfOpened, closed) == 0:
		return fmt.Errorf("no full breaker cycle (open=%d half-open=%d close=%d): the crash-heal sequence never exercised recovery", opened, halfOpened, closed)
	case m.Counter("msg.fault.rejoined").Value() == 0:
		return errors.New("the healed kernel never rejoined")
	case ctrlMax > ovCtrlDeadline:
		return fmt.Errorf("a control message waited %v behind bulk, want <= %v: the control lane starved", ctrlMax, ovCtrlDeadline)
	case m.Counter("msg.flow.shed").Value()+m.Counter("msg.flow.backpressure").Value() == 0:
		return errors.New("nothing was shed at 10x offered load: backpressure never engaged")
	}
	return nil
}

// overloadWork is the coherence churn one worker runs: seeded loads,
// fetch-adds and prefetches against the shared pages. Every error a fault
// or overload window can produce is tolerated; anything else is a bug.
func overloadWork(th osi.Thread, base mem.Addr, pages int, seed int64) {
	r := sim.NewRNG(seed)
	tally := base + mem.Addr(pages*hw.PageSize)
	for n := 0; n < 60; n++ {
		th.Compute(time.Duration(30+r.Int63n(60)) * time.Microsecond)
		switch r.Int63n(3) {
		case 0:
			if _, err := th.Load(base + mem.Addr(r.Int63n(int64(pages))*hw.PageSize)); err != nil && !adversity.IsDegradation(err) {
				panic(err)
			}
		case 1:
			if _, err := th.FetchAdd(tally, 1); err != nil && !adversity.IsDegradation(err) {
				panic(err)
			}
		case 2:
			// Advisory prefetch (core-specific surface, not in osi.Thread):
			// sheds toward a slow origin, never errors under backpressure.
			if pf, ok := th.(interface {
				Prefetch(mem.Addr, int) (int, error)
			}); ok {
				if _, err := pf.Prefetch(base, pages); err != nil && !adversity.IsDegradation(err) {
					panic(err)
				}
			}
		}
	}
}

// The failover soak is the origin-replication plane's endurance test: a
// fault-heavy workload whose process origin lives on kernel 0, which the
// plan kills relative to its own directory-commit stream (CrashOrigin)
// while the ring successor, kernel 1, stays alive. The crash must be
// absorbed, not degraded around: kernel 1 promotes itself — the replicated
// page directory and group metadata replace the dead origin's, under a
// bumped origin-epoch (msg.failover.promotions >= 1 per seed); zero pages
// are reclaimed as lost (vm.pages.reclaimed == 0), because every directory
// entry the origin held was mirrored, so promotion preserves the values
// instead of un-defining them; zero exits complete orphaned
// (tg.exit.orphaned == 0), because post-crash exits reroute to the
// promoted origin and release its joiners; and the old origin's late heal
// re-enters as a plain replica, its pre-crash traffic fenced by the
// origin-epoch stamp, with the member table drained through the promoted
// origin's WaitMembers.

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

func failoverRun(o *core.OS, seed int64) error {
	const (
		shared  = 4 // read-shared pages, written once during setup
		workers = 6 // each also owns a private write page after these
	)
	// The origin is the kernel the plan kills. Setup runs there before the
	// crash can arm: its few commits seed the replication stream the
	// successor promotes from.
	_, err := adversity.OneProcess(o, "failover-driver", shared+workers+1, shared, 100, func(p *sim.Proc, pr *core.Process, base mem.Addr) error {
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
				return err
			}
		}
		// Wait for the promotion before joining: a Join parked inside the
		// dead origin's service would wait on a condition nobody signals (the
		// documented pre-crash-Join limitation), whereas one issued after the
		// handover routes to the promoted holder.
		for o.Fabric().OriginHolder(0) == 0 {
			p.Sleep(250 * time.Microsecond)
		}
		return nil
	})
	return err
}

func failoverCheck(m *stats.Registry) error {
	reclaimed, orphaned := m.Counter("vm.pages.reclaimed").Value(), m.Counter("tg.exit.orphaned").Value()
	switch {
	case m.Counter("msg.failover.promotions").Value() == 0:
		return errors.New("the origin crash never produced a promotion")
	case reclaimed != 0:
		return fmt.Errorf("%d pages reclaimed as lost despite a live successor", reclaimed)
	case orphaned != 0:
		return fmt.Errorf("%d exits completed orphaned despite a promoted origin", orphaned)
	}
	return nil
}
