// Command popcornmc model-checks the replicated kernel's distributed
// protocols. It boots the OS with the coherence sanitizer and
// happens-before race detector attached (internal/sanitize), runs a
// protocol-heavy workload under many seeds with tie-shuffled schedules,
// and reports the first seed whose schedule violates the memory model:
// two kernels holding a page writable, a reader observing a stale value
// after an invalidation acked, layout versions going backwards, or a
// data race the protocol's happens-before edges do not order.
//
// With -faults the same sweep runs against an adversarial fabric: a
// seed-derived fault plan drops, duplicates and delays messages on every
// link, and the migration workload additionally loses a kernel mid-
// migration. The run must still satisfy every safety invariant — the
// sanitizer stays clean, nothing deadlocks, no RPC wait-table entry
// leaks — with dead-peer degradation errors being the only tolerated
// outcome difference.
//
// With -soak the tool instead runs the chaos soak (soak.go): a 4-kernel
// cluster under crash → heal → crash cycles, a partition and link noise,
// with recoverable threads that must be lost and restarted from their
// checkpoints, asserting the end-state recovery invariants per seed.
//
// A failing seed is shrunk to the shortest event prefix that still fails
// (binary search over the engine's event limit — the schedule is a pure
// function of the seed, so any prefix replays exactly), and the tool
// prints the command that reproduces it deterministically.
//
// Usage:
//
//	popcornmc -workload all -seeds 32
//	popcornmc -workload all -seeds 16 -faults                (fault sweep)
//	popcornmc -soak -seeds 16                                (chaos soak)
//	popcornmc -workload contention -seed 17 -events 4213     (replay a repro)
//	popcornmc -workload migration -inject skip-revoke=0      (plant a protocol bug)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/msg"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "popcornmc:", err)
		os.Exit(1)
	}
}

func run() error {
	wlFlag := flag.String("workload", "all", "workload to explore: contention, migration, futex, all")
	seeds := flag.Int64("seeds", 32, "sweep seeds 1..N")
	seed := flag.Int64("seed", 0, "run this single seed instead of sweeping")
	events := flag.Uint64("events", 0, "stop after N events (replays a shrunk prefix)")
	inject := flag.String("inject", "", "plant a protocol bug: skip-revoke=K drops invalidations to kernel K")
	faults := flag.Bool("faults", false, "layer a seed-derived fault plan (drop/dup/delay on all links, plus a kernel crash mid-migration) over the sweep")
	fseed := flag.Int64("fseed", 0, "fault-plan seed (default: the schedule seed)")
	soak := flag.Bool("soak", false, "run the chaos soak: crash→heal→crash cycles over recoverable workloads, asserting end-state recovery invariants")
	overload := flag.Bool("overload", false, "with -soak: run the overload soak instead — 10x offered load, a slow-link window and a crash-heal cycle against the flow-control plane")
	failover := flag.Bool("failover", false, "with -soak: run the failover soak instead — the origin kernel dies mid-replication-stream with the failover plane on, asserting zero reclaimed pages and zero orphaned exits")
	traceN := flag.Int("trace", 512, "trace buffer capacity behind violation reports")
	noShrink := flag.Bool("noshrink", false, "report the failing seed without minimising it")
	verbose := flag.Bool("v", false, "print a line per seed")
	flag.Parse()

	if *soak {
		if *overload {
			return runOverload(*seeds, *seed, *verbose)
		}
		if *failover {
			return runFailoverSoak(*seeds, *seed, *verbose)
		}
		return runSoak(*seeds, *seed, *verbose)
	}
	injectNode, err := parseInject(*inject)
	if err != nil {
		return err
	}
	workloads, err := pickWorkloads(*wlFlag)
	if err != nil {
		return err
	}

	for _, wl := range workloads {
		var sweep []int64
		if *seed != 0 {
			sweep = []int64{*seed}
		} else {
			for s := int64(1); s <= *seeds; s++ {
				sweep = append(sweep, s)
			}
		}
		var total uint64
		for _, s := range sweep {
			cfg := runCfg{
				wl: wl, seed: s, limit: *events, injectNode: injectNode,
				traceN: *traceN, faults: *faults, fseed: *fseed,
			}
			out := runOne(cfg)
			total += out.events
			if *verbose {
				fmt.Printf("%-11s seed=%-4d events=%-8d violations=%d races=%d degraded=%v\n",
					wl, s, out.events, len(out.violations), len(out.races), out.degraded)
			}
			if !out.failed() {
				continue
			}
			fmt.Printf("%s: seed %d FAILED after %d events\n\n", wl, s, out.events)
			report(out)
			limit := out.events
			if !*noShrink && *events == 0 {
				limit = shrinkLimit(cfg, out.events)
				fmt.Printf("shrunk to a %d-event prefix (from %d)\n", limit, out.events)
			}
			fmt.Printf("\nreplay deterministically with:\n\n  go run ./cmd/popcornmc %s\n",
				reproArgs(cfg, limit, *inject))
			return fmt.Errorf("%s: schedule %d violates the memory model", wl, s)
		}
		fmt.Printf("%s: %d seeds clean (%d events explored)\n", wl, len(sweep), total)
	}
	return nil
}

// runCfg is everything a single seeded run needs, so shrinking and replay
// reuse the exact configuration.
type runCfg struct {
	wl         string
	seed       int64
	limit      uint64
	injectNode int
	traceN     int
	faults     bool
	fseed      int64
}

// planSeed resolves the fault-plan seed: explicitly pinned via -fseed, or
// derived from the schedule seed so every sweep seed explores a different
// fault pattern.
func (c runCfg) planSeed() int64 {
	if c.fseed != 0 {
		return c.fseed
	}
	return c.seed
}

// outcome is one seeded run's verdict.
type outcome struct {
	seed       int64
	events     uint64
	violations []*sanitize.Violation
	races      []*sanitize.Violation
	err        error
	// degraded notes that the workload surfaced a dead-peer error under an
	// injected crash — the tolerated outcome, not a failure.
	degraded bool
}

func (o outcome) failed() bool {
	return len(o.violations) > 0 || len(o.races) > 0 || o.err != nil
}

// faultPlan builds the -faults plan for one run: probabilistic drop,
// duplication and delay on every link, and — for the migration workload —
// one kernel crash shortly after it acknowledges an inbound migration, so
// the thread dies with the kernel it just moved to.
func faultPlan(cfg runCfg) *faultinj.Plan {
	plan := &faultinj.Plan{Seed: cfg.planSeed()}
	if cfg.injectNode >= 0 {
		plan.Rules = append(plan.Rules, msg.SkipRevokeRule(msg.NodeID(cfg.injectNode)))
	}
	plan.Rules = append(plan.Rules,
		// Migration traffic is exempt from link noise: the crash scenario
		// below exercises migration failure deterministically, and the
		// rollback-vs-crash race is unit-tested rather than swept.
		faultinj.Rule{From: faultinj.Wildcard, To: faultinj.Wildcard, Type: int(msg.TypeMigrate)},
		faultinj.Rule{
			From: faultinj.Wildcard, To: faultinj.Wildcard, Type: faultinj.Wildcard,
			DropP: 0.12, DupP: 0.08, DelayP: 0.12, DelayMax: 20 * time.Microsecond,
		},
	)
	if cfg.wl == "migration" {
		// The second TypeMigrate commit is the destination's acceptance
		// reply; shortly after it the migrated thread has resumed on kernel 1
		// and dies with it. The window must be shorter than the migrated
		// consumer's remaining (all-local) work or the crash lands on an
		// already-empty kernel.
		plan.TypeCrashes = append(plan.TypeCrashes, faultinj.TypeCrash{
			Node: 1, Type: int(msg.TypeMigrate), Nth: 2, After: 2 * time.Microsecond,
		})
	}
	return plan
}

// runOne boots a fresh OS for the workload, attaches the sanitizer (and the
// fault plan when enabled), and runs the workload under the given seed,
// optionally bounded to a prefix.
func runOne(cfg runCfg) outcome {
	o, err := bootFor(cfg.wl, cfg.seed)
	if err != nil {
		return outcome{seed: cfg.seed, err: err}
	}
	defer o.Close()
	tb := o.Trace(cfg.traceN)
	ck := o.AttachSanitizer(sanitize.Config{Trace: tb, FailFast: true})
	if cfg.limit > 0 {
		o.Engine().SetEventLimit(cfg.limit)
	}
	if cfg.faults {
		o.EnableFaults(faultPlan(cfg), msg.FaultConfig{})
	} else if cfg.injectNode >= 0 {
		for k := 0; k < o.Kernels(); k++ {
			o.Kernel(k).VM.InjectSkipRevoke(msg.NodeID(cfg.injectNode))
		}
	}
	_, err = runWorkload(o, cfg.wl)
	out := outcome{
		seed:       cfg.seed,
		events:     o.Engine().EventsProcessed(),
		violations: ck.Violations(),
		races:      ck.Races(),
	}
	// The event limit cuts the run short by design; a fail-fast violation
	// already explains its own panic. Under a fault plan, a dead-peer error
	// is graceful degradation — the safety invariants above still hold —
	// not a failure. Anything else is real.
	if err != nil && !errors.Is(err, sim.ErrEventLimit) && len(out.violations) == 0 {
		if cfg.faults && isDegradation(err) {
			out.degraded = true
		} else {
			out.err = err
		}
	}
	return out
}

// isDegradation reports whether err is a tolerated consequence of the run's
// adversity — a dead peer from an injected crash, or a backpressure
// rejection from the overload plane. Workloads panic with the transport
// error embedded, so the check accepts both the error chain and its
// rendered text.
func isDegradation(err error) bool {
	if msg.IsDeadPeer(err) || msg.IsBackpressure(err) {
		return true
	}
	s := err.Error()
	for _, marker := range []string{
		"dead kernel",                // msg.DeadPeerError
		"peer kernel is dead",        // msg.ErrDeadPeer sentinel
		"died while task waited",     // futex home-death error wake
		"refused under backpressure", // msg.BackpressureError
	} {
		if strings.Contains(s, marker) {
			return true
		}
	}
	return false
}

// bootFor builds the machine shape each workload stresses: contention uses
// the full 8-kernel cluster, migration and futex the 2-kernel testbed.
func bootFor(wl string, seed int64) (*core.OS, error) {
	switch wl {
	case "contention":
		topo := hw.Topology{Cores: 64, NUMANodes: 2}
		machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		cc := kernel.DefaultClusterConfig(machine)
		cc.Kernels = 8
		return core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: seed, TieShuffle: true})
	case "migration", "futex":
		return core.Boot(core.Config{Topology: hw.Topology{Cores: 16, NUMANodes: 2}, Seed: seed, TieShuffle: true})
	}
	return nil, fmt.Errorf("unknown workload %q", wl)
}

// runWorkload exercises the protocol paths the sanitizer watches: remote
// thread creation (contention), page grants/revocations plus thread
// migration (migration), and cross-kernel futex hand-offs (futex).
func runWorkload(o *core.OS, wl string) (workload.Result, error) {
	switch wl {
	case "contention":
		return workload.ThreadBomb(o, workload.ThreadBombSpec{Spawners: 8, Children: 8})
	case "migration":
		// Pull first (cross-kernel demand faults revoke the producer's
		// exclusive copies), then the migration protocol itself.
		if _, err := workload.MigrationBenefit(o, workload.MigrationBenefitSpec{Pages: 16, Rounds: 2}); err != nil {
			return workload.Result{}, err
		}
		return workload.MigrationBenefit(o, workload.MigrationBenefitSpec{Pages: 16, Rounds: 2, Migrate: true})
	case "futex":
		return workload.FutexChain(o, workload.FutexChainSpec{Threads: 8, Iters: 4, CS: time.Microsecond, Shared: true})
	}
	return workload.Result{}, fmt.Errorf("unknown workload %q", wl)
}

// shrinkLimit binary-searches the smallest event limit under which the
// seed still fails. Event limits do not perturb the schedule, so failure
// is monotone in the limit and the search is exact.
func shrinkLimit(cfg runCfg, failEvents uint64) uint64 {
	lo, hi := uint64(1), failEvents
	for lo < hi {
		mid := lo + (hi-lo)/2
		c := cfg
		c.limit = mid
		if runOne(c).failed() {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func report(out outcome) {
	for _, v := range out.violations {
		fmt.Println(v.String())
		fmt.Println()
	}
	for _, r := range out.races {
		fmt.Println(r.String())
		fmt.Println()
	}
	if out.err != nil {
		fmt.Printf("run error: %v\n\n", out.err)
	}
}

func reproArgs(cfg runCfg, events uint64, inject string) string {
	args := fmt.Sprintf("-workload %s -seed %d -events %d", cfg.wl, cfg.seed, events)
	if cfg.faults {
		args += fmt.Sprintf(" -faults -fseed %d", cfg.planSeed())
	}
	if inject != "" {
		args += " -inject " + inject
	}
	return args
}

func parseInject(s string) (int, error) {
	if s == "" {
		return -1, nil
	}
	val, ok := strings.CutPrefix(s, "skip-revoke=")
	if !ok {
		return -1, fmt.Errorf("unknown injection %q (want skip-revoke=K)", s)
	}
	k, err := strconv.Atoi(val)
	if err != nil || k < 0 {
		return -1, fmt.Errorf("bad injection target %q", val)
	}
	return k, nil
}

func pickWorkloads(s string) ([]string, error) {
	switch s {
	case "all":
		return []string{"contention", "migration", "futex"}, nil
	case "contention", "migration", "futex":
		return []string{s}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want contention, migration, futex, all)", s)
}
