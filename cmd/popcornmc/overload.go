package main

import (
	"errors"
	"fmt"
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
)

// The overload soak (-soak -overload) is the flow-control plane's
// endurance test: a 4-kernel cluster with credits, the control lane, the
// breaker/budget machinery and the gray-failure detector all attached runs
// a coherence workload while raw generators offer roughly ten times the
// fabric's drain rate on the busiest links, a slow-link window turns one
// link gray mid-run, and one kernel crash-heals under the load. Each seed
// must end with:
//
//   - the engine quiesced (a leaked credit would wedge a blocked sender,
//     which the deadlock detector turns into a failed run);
//   - zero sanitizer violations: coherence holds under sustained overload;
//   - the bulk backlog bounded by construction — msg.queue.maxdepth never
//     exceeds CreditsPerLink × inbound links, no matter the offered load;
//   - at least one full breaker cycle (open → half-open → close) from the
//     crash-cycled kernel's probe traffic;
//   - the healed kernel rejoined, and no control message (heartbeat,
//     rejoin, invalidation, reply) waited behind bulk longer than the
//     control deadline;
//   - load demonstrably shed: TrySend refusals or slow-link sheds, not
//     silent queueing, absorbed the excess.

// Overload tuning shared by the plan and the assertions.
const (
	ovKernels      = 4
	ovCredits      = 8
	ovBulkSize     = 16384                 // ~4.3 us drain per message remote
	ovSendGap      = 400 * time.Nanosecond // ~10x the per-message drain cost
	ovBulkCount    = 300                   // per generator, ~6 ms of pressure
	ovCtrlDeadline = 300 * time.Microsecond
	ovEnd          = 9 * time.Millisecond
)

// overloadOutcome is one overload seed's verdict.
type overloadOutcome struct {
	seed       int64
	events     uint64
	shed       uint64
	breakerCyc uint64
	maxDepth   uint64
	ctrlMax    time.Duration
	violations int
	err        error
}

// runOverload sweeps the overload soak over seeds 1..n (or a single pinned
// seed) and fails on the first seed that breaks an overload invariant.
func runOverload(seeds, seed int64, verbose bool) error {
	var sweep []int64
	if seed != 0 {
		sweep = []int64{seed}
	} else {
		for s := int64(1); s <= seeds; s++ {
			sweep = append(sweep, s)
		}
	}
	var events, shed uint64
	for _, s := range sweep {
		out := overloadOne(s)
		events += out.events
		shed += out.shed
		if verbose {
			fmt.Printf("overload seed=%-4d events=%-8d maxdepth=%-3d ctrlmax=%-10v shed=%-5d violations=%d\n",
				s, out.events, out.maxDepth, out.ctrlMax, out.shed, out.violations)
		}
		if out.err != nil {
			return fmt.Errorf("overload seed %d: %w\nreplay with:\n\n  go run ./cmd/popcornmc -soak -overload -seed %d -v", s, out.err, s)
		}
	}
	fmt.Printf("overload: %d seeds clean (%d events, %d messages shed)\n", len(sweep), events, shed)
	return nil
}

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

// overloadOne boots the cluster, attaches flow control and the fault plan,
// and runs the coherence workload under generator pressure.
func overloadOne(seed int64) overloadOutcome {
	out := overloadOutcome{seed: seed}
	topo := hw.Topology{Cores: 16, NUMANodes: 2}
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		out.err = err
		return out
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = ovKernels
	o, err := core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: seed, TieShuffle: true})
	if err != nil {
		out.err = err
		return out
	}
	defer o.Close()
	ck := o.AttachSanitizer(sanitize.Config{FailFast: true})
	e := o.Engine()
	e.SetEventLimit(5_000_000)
	o.EnableFlow(msg.FlowConfig{
		CreditsPerLink: ovCredits,
		MaxCreditWait:  500 * time.Microsecond,
		// The slow window inflates Call RTTs by ~160 us; healthy RTTs on
		// this machine are tens of microseconds.
		SlowAfter:    100 * time.Microsecond,
		HealthyBelow: 50 * time.Microsecond,
		ShedSlowBulk: true,
		// Short enough that the half-open probe lands after the heal but
		// well before the run's end.
		BreakerCooldown: time.Millisecond,
	})
	o.EnableFaults(overloadPlan(seed), msg.FaultConfig{})
	f := o.Fabric()

	// Raw transport load rides TypeUser, which no kernel service claims.
	for k := 0; k < ovKernels; k++ {
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
		link := link
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
	e.Spawn("overload-probe-gray", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		for p.Now().Duration() < ovEnd {
			if _, err := ep.Call(p, &msg.Message{
				Type: msg.TypeUser, To: 1, Size: 64, Payload: "probe",
			}); err != nil && !isDegradation(err) {
				panic(err)
			}
			p.Sleep(30 * time.Microsecond)
		}
	})
	for i := 0; i < 3; i++ {
		e.Spawn("overload-probe-breaker", func(p *sim.Proc) {
			ep := f.Endpoint(0)
			for p.Now().Duration() < ovEnd {
				if _, err := ep.Call(p, &msg.Message{
					Type: msg.TypeUser, To: 2, Size: 64, Payload: "probe",
				}); err != nil && !isDegradation(err) {
					panic(err)
				}
				p.Sleep(50 * time.Microsecond)
			}
		})
	}

	// The coherence workload: the same churn the chaos soak runs, scaled
	// down, so the sanitizer watches real VM/futex protocol traffic share
	// the fabric with the generators. The kernel-2 worker is recoverable —
	// it dies with the crash and restarts from its checkpoint.
	var joinErr, closeErr error
	e.Spawn("overload-driver", func(p *sim.Proc) {
		pr, err := o.StartProcessOn(p, 0)
		if err != nil {
			joinErr = err
			return
		}
		var base mem.Addr
		const pages = 4
		ready := sim.NewWaitGroup()
		ready.Add(1)
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap((pages+1)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
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
		if err := pr.SpawnRecoverable(p, 2, func(th osi.Thread) {
			overloadWork(th, base, pages, seed*100)
		}); err != nil {
			joinErr = err
			return
		}
		for i, k := range []int{1, 3} {
			i := i
			if err := pr.Spawn(p, k, func(th osi.Thread) {
				overloadWork(th, base, pages, seed*100+1+int64(i))
			}); err != nil {
				joinErr = err
				return
			}
		}
		joinErr = pr.Join(p)
		closeErr = pr.Close(p)
	})

	err = e.Run()
	out.events = e.EventsProcessed()
	out.violations = len(ck.Violations()) + len(ck.Races())
	m := o.Metrics()
	out.maxDepth = m.Counter("msg.queue.maxdepth").Value()
	out.ctrlMax = m.Histogram("msg.flow.ctrlwait").Max()
	out.shed = m.Counter("msg.flow.shed").Value() + m.Counter("msg.flow.backpressure").Value()
	opened := m.Counter("msg.flow.breaker_open").Value()
	halfOpened := m.Counter("msg.flow.breaker_halfopen").Value()
	closed := m.Counter("msg.flow.breaker_close").Value()
	out.breakerCyc = minU64(opened, halfOpened, closed)
	depthBound := uint64(ovCredits * (ovKernels - 1))
	switch {
	case err != nil && errors.Is(err, sim.ErrEventLimit):
		out.err = fmt.Errorf("event limit hit: the cluster never settled under overload: %w", err)
	case err != nil:
		out.err = err
	case out.violations > 0:
		out.err = fmt.Errorf("%d sanitizer violations under overload", out.violations)
	case joinErr != nil:
		out.err = fmt.Errorf("join: %w", joinErr)
	case closeErr != nil:
		out.err = fmt.Errorf("close: %w", closeErr)
	case o.LiveThreads() != 0:
		out.err = fmt.Errorf("%d threads still live after quiescence", o.LiveThreads())
	case out.maxDepth > depthBound:
		out.err = fmt.Errorf("bulk queue depth reached %d, want <= %d (credits x inbound links): flow control failed to bound the backlog", out.maxDepth, depthBound)
	case out.breakerCyc == 0:
		out.err = fmt.Errorf("no full breaker cycle (open=%d half-open=%d close=%d): the crash-heal sequence never exercised recovery", opened, halfOpened, closed)
	case m.Counter("msg.fault.rejoined").Value() == 0:
		out.err = fmt.Errorf("the healed kernel never rejoined")
	case out.ctrlMax > ovCtrlDeadline:
		out.err = fmt.Errorf("a control message waited %v behind bulk, want <= %v: the control lane starved", out.ctrlMax, ovCtrlDeadline)
	case out.shed == 0:
		out.err = fmt.Errorf("nothing was shed at 10x offered load: backpressure never engaged")
	}
	return out
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
			if _, err := th.Load(base + mem.Addr(r.Int63n(int64(pages))*hw.PageSize)); err != nil && !isDegradation(err) {
				panic(err)
			}
		case 1:
			if _, err := th.FetchAdd(tally, 1); err != nil && !isDegradation(err) {
				panic(err)
			}
		case 2:
			// Advisory prefetch (core-specific surface, not in osi.Thread):
			// sheds toward a slow origin, never errors under backpressure.
			if pf, ok := th.(interface {
				Prefetch(mem.Addr, int) (int, error)
			}); ok {
				if _, err := pf.Prefetch(base, pages); err != nil && !isDegradation(err) {
					panic(err)
				}
			}
		}
	}
}

func minU64(vs ...uint64) uint64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
