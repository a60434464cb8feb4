package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/msg"
	"repro/internal/stats"
)

// rowNamed returns a copy of the table's row, so a test can doctor its
// plan or its report without touching the table.
func rowNamed(t testing.TB, name string) *row {
	t.Helper()
	picked, err := pickRows(name)
	if err != nil || len(picked) != 1 {
		t.Fatalf("pickRows(%q) = %d rows, %v", name, len(picked), err)
	}
	r := *picked[0]
	return &r
}

// cfgFor is the runCfg the command line builds for one seed of a row with
// -planes pl and nothing planted.
func cfgFor(r *row, seed int64, pl planes) runCfg {
	return runCfg{row: r, seed: seed, inject: -1, planes: pl}
}

// TestEveryRowClean runs every row of the table, sweeps bare and soaks as
// they come, for two seeds through the same sweepRow the command line
// uses. A soak's check is its positive evidence — overload demands a full
// breaker cycle, a rejoin and shed load, failover a promotion — and the
// chaos row's whole-sweep check demands a recovery.
func TestEveryRowClean(t *testing.T) {
	for i := range rows {
		r := &rows[i]
		t.Run(r.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := sweepRow(&buf, cfgFor(r, 0, planes{}), []int64{1, 2}, true); err != nil {
				t.Fatalf("%v\n%s", err, buf.String())
			}
		})
	}
}

// TestSweepRowsCrossKernels is the guard against a vacuous row: every
// sweep, planes detached, must send messages and perform some remote
// operation, or its seeds all explore the same single-kernel nothing. (The
// ThreadBomb{8,8} row this replaced processed 417 events on every seed
// with msg.sent = 0.)
func TestSweepRowsCrossKernels(t *testing.T) {
	for _, r := range rows {
		if r.soak {
			continue
		}
		r := rowNamed(t, r.Name)
		r.check = func(m *stats.Registry) error { return nil }
		r.report = []stat{
			counters("sent", "msg.sent"),
			counters("remote", "tg.spawn.remote", "vm.fault.remote", "futex.remote"),
		}
		out := runOne(cfgFor(r, 1, planes{}))
		if out.err != nil {
			t.Fatalf("%s: %v", r.Name, out.err)
		}
		if out.vals["sent"] == 0 || out.vals["remote"] == 0 {
			t.Errorf("%s: msg.sent=%d, remote spawns+faults+futex ops=%d: the row explores nothing distributed",
				r.Name, out.vals["sent"], out.vals["remote"])
		}
	}
}

// TestPlaneMatrix attaches each of the 2^3 plane combinations, default
// configurations, to each sweep row: whatever else is going on, the
// sanitizer stays silent, the run settles and no thread is left live.
func TestPlaneMatrix(t *testing.T) {
	for bits := 0; bits < 8; bits++ {
		pl := planes{flow: bits&1 != 0, failover: bits&2 != 0, faults: bits&4 != 0}
		for i := range rows {
			r := &rows[i]
			if r.soak {
				continue
			}
			var buf bytes.Buffer
			if err := sweepRow(&buf, cfgFor(r, 0, pl), []int64{1, 2, 3, 4}, true); err != nil {
				t.Errorf("planes [%s]: %v\n%s", pl, err, buf.String())
			}
		}
	}
}

// TestPlantCaughtAndShrunk plants the dropped-invalidation bug on the
// kernel that holds the migration row's data set exclusive (the producer's,
// kernel 1; kernel 0 is never sent an invalidation, so planting there is a
// no-op and sweeps clean): the sanitizer must catch it, the
// shrunk prefix must still fail while one event fewer does not, and the
// command line must print the replay for exactly that prefix. Under the
// fault plane the plant is the same vm one, counted where it skips a
// revocation, and the sanitizer catches it there too.
func TestPlantCaughtAndShrunk(t *testing.T) {
	r := rowNamed(t, "migration")
	r.report = []stat{counters("skipped", "vm.inject.skipped")}
	faulted := cfgFor(r, 1, planes{faults: true})
	faulted.inject = 1
	if out := runOne(faulted); !out.safety || out.vals["skipped"] == 0 {
		t.Errorf("skip-revoke=1 under faults: err=%v violations=%d vm.inject.skipped=%d; want a violation and a skipped revocation",
			out.err, len(out.violations), out.vals["skipped"])
	}

	cfg := cfgFor(rowNamed(t, "migration"), 1, planes{})
	cfg.inject = 1
	out := runOne(cfg)
	if !out.safety || len(out.violations) == 0 {
		t.Fatalf("skip-revoke=1 not caught: err=%v violations=%d", out.err, len(out.violations))
	}
	limit := shrinkLimit(cfg, out.events)
	cfg.limit = limit
	if !runOne(cfg).safety {
		t.Errorf("the shrunk %d-event prefix does not fail", limit)
	}
	cfg.limit = limit - 1
	if o := runOne(cfg); o.err != nil {
		t.Errorf("the %d-event prefix already fails (%v): %d is not minimal", limit-1, o.err, limit)
	}
	var buf bytes.Buffer
	err := run([]string{"-workload", "migration", "-seed", "1", "-inject", "skip-revoke=1"}, &buf)
	want := fmt.Sprintf("-workload migration -seed 1 -v -events %d -inject skip-revoke=1", limit)
	if err == nil || !strings.Contains(buf.String(), want) || !strings.Contains(buf.String(), "single-writer violation") {
		t.Errorf("run: err=%v, want a single-writer report and the replay line %q in:\n%s", err, want, buf.String())
	}
}

// TestFailoverGrantCountsOnceReleased replays soak seeds that reach two
// once-failing paths. On the failover seeds the origin-crash trigger armed by
// a directory commit kills the origin while it ships that commit's entry to
// the mirror, so the grant's reply never leaves. A grant counted when the
// origin decided it, not when it released it, then makes the promoted
// successor's own correct re-grant look like a second writer. The seeds are
// the ones in 1-64 that fail when vm's dirTransaction reports the grant to
// the sanitizer before shipDirEntry instead of after it; re-derive them the
// same way when the schedule moves. On chaos seed 37 link noise stretches the
// driver's remote clone onto kernel 1 past that kernel's crash; the driver
// must absorb the dead clone and still join the process with no thread left
// live.
func TestFailoverGrantCountsOnceReleased(t *testing.T) {
	for _, tc := range []struct {
		row   string
		seeds []int64
	}{
		{"failover", []int64{20, 40, 46, 64}},
		{"chaos", []int64{37}},
	} {
		var buf bytes.Buffer
		if err := sweepRow(&buf, cfgFor(rowNamed(t, tc.row), 0, planes{}), tc.seeds, true); err != nil {
			t.Errorf("%s %v: %v\n%s", tc.row, tc.seeds, err, buf.String())
		}
	}
}

// healthyCounters is a registry the named row's check accepts, built
// without the counter named omit.
func healthyCounters(row, omit string) *stats.Registry {
	m := stats.NewRegistry()
	add := func(name string, n uint64) {
		if name != omit {
			m.Counter(name).Add(n)
		}
	}
	switch row {
	case "futex":
		add("msg.sent", 10)
		add("futex.remote", 1)
	case "chaos":
		add("core.threads.lost", 3)
		add("core.threads.recovered", 3)
	case "overload":
		add("msg.queue.maxdepth", ovCredits*3)
		add("msg.flow.breaker_open", 1)
		add("msg.flow.breaker_halfopen", 1)
		add("msg.flow.breaker_close", 1)
		add("msg.fault.rejoined", 1)
		add("msg.flow.shed", 1)
		m.Histogram("msg.flow.ctrlwait").Observe(ovCtrlDeadline)
	case "failover":
		add("msg.failover.promotions", 1)
	}
	return m
}

// TestChecksRejectDoctoredCounters feeds each row's check counters that
// pass, then the same with one left out or one pushed past its bound.
func TestChecksRejectDoctoredCounters(t *testing.T) {
	for _, tc := range []struct {
		row, omit string
		doctor    func(m *stats.Registry)
		want      string // "" means the check must pass
	}{
		{row: "futex"},
		{row: "futex", omit: "msg.sent", want: "no inter-kernel message"},
		{row: "futex", omit: "futex.remote", want: "never crossed kernels"},
		{row: "chaos"},
		{row: "chaos", doctor: func(m *stats.Registry) { m.Counter("core.threads.recovered").Inc() }, want: "more than once per lost thread"},
		{row: "overload"},
		{row: "overload", doctor: func(m *stats.Registry) { m.Counter("msg.queue.maxdepth").Inc() }, want: "credits x inbound links"},
		{row: "overload", doctor: func(m *stats.Registry) { m.Histogram("msg.flow.ctrlwait").Observe(ovCtrlDeadline + 1) }, want: "control lane starved"},
		{row: "overload", omit: "msg.flow.breaker_halfopen", want: "no full breaker cycle"},
		{row: "overload", omit: "msg.fault.rejoined", want: "never rejoined"},
		{row: "overload", omit: "msg.flow.shed", want: "nothing was shed"},
		{row: "failover"},
		{row: "failover", omit: "msg.failover.promotions", want: "never produced a promotion"},
		{row: "failover", doctor: func(m *stats.Registry) { m.Counter("vm.pages.reclaimed").Inc() }, want: "reclaimed as lost"},
		{row: "failover", doctor: func(m *stats.Registry) { m.Counter("tg.exit.orphaned").Inc() }, want: "orphaned"},
	} {
		m := healthyCounters(tc.row, tc.omit)
		if tc.doctor != nil {
			tc.doctor(m)
		}
		err := rowNamed(t, tc.row).check(m)
		if tc.want == "" && err != nil {
			t.Errorf("%s: healthy counters rejected: %v", tc.row, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s (without %q): doctored counters gave %v, want an error containing %q", tc.row, tc.omit, err, tc.want)
		}
	}
	if err := rowNamed(t, "chaos").sweepCheck(map[string]uint64{"lost": 5}, 16); err == nil {
		t.Error("chaos: a sweep with losses and no recovery passed the whole-sweep check")
	}
}

// TestFlagMisuse: a combination that means nothing is an error, not a
// silent fallback to some other run.
func TestFlagMisuse(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-workload contenton", "unknown workload"},
		{"-workload soak", "unknown workload"},
		{"-workload futex -planes flow,fault", "unknown plane"},
		{"-workload chaos -planes faults", "is a soak"},
		{"-workload overload -planes flow", "is a soak"},
		{"-workload failover -inject skip-revoke=0", "is a soak"},
		{"-workload futex -inject drop-all", "unknown injection"},
		{"-workload futex -planes faults -fseed 3", "flag provided but not defined"},
		{"-workload futex -seeds 0", "nothing to run"},
		{"-workload futex faults", "unexpected argument"},
		{"-soak", "flag provided but not defined"},
		{"-faults", "flag provided but not defined"},
	} {
		var buf bytes.Buffer
		err := run(strings.Fields(tc.args), &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("popcornmc %s: err = %v, want one containing %q", tc.args, err, tc.want)
		}
		if strings.Contains(buf.String(), "seeds clean") {
			t.Errorf("popcornmc %s ran something before failing:\n%s", tc.args, buf.String())
		}
	}
}

// TestFaultSweepMigrationCrash pins the headline fault scenario end to end:
// the plan kills kernel 1 just after it accepts the migrated thread, and the
// run must still pass the harness's verdict — sanitizer clean, no deadlock,
// no leaked pending RPCs — while the counters prove the crash, the
// detection, and the reclamation actually happened.
func TestFaultSweepMigrationCrash(t *testing.T) {
	r := rowNamed(t, "migration")
	r.report = []stat{
		counters("crash", "msg.fault.crash"),
		counters("declared", "msg.fault.declared"),
		counters("lost", "core.threads.lost"),
		counters("heartbeats", "msg.heartbeat.sent"),
		counters("drops", "msg.fault.drop"),
	}
	out := runOne(cfgFor(r, 1, planes{faults: true}))
	if out.err != nil {
		t.Fatalf("migration under faults: %v", out.err)
	}
	if got := out.vals["crash"]; got != 1 {
		t.Fatalf("msg.fault.crash = %d, want 1 (the planned kernel death never fired)", got)
	}
	for key, why := range map[string]string{
		"declared":   "no survivor declared the crashed kernel dead",
		"lost":       "no thread was lost with the crashed kernel",
		"heartbeats": "failure window ran without heartbeats",
		"drops":      "fault plan dropped nothing; the probabilistic rules are dead",
	} {
		if out.vals[key] == 0 {
			t.Error(why)
		}
	}
}

// TestFaultSweepDeterministic pins replayability: the same (seed, plan)
// produces byte-identical runs, event count included.
func TestFaultSweepDeterministic(t *testing.T) {
	cfg := cfgFor(rowNamed(t, "migration"), 3, planes{faults: true})
	a, b := runOne(cfg), runOne(cfg)
	if a.events != b.events || (a.err == nil) != (b.err == nil) || a.degraded != b.degraded {
		t.Fatalf("fault run not deterministic: events %d vs %d, err %v vs %v", a.events, b.events, a.err, b.err)
	}
}

// FuzzFaultPlan drives two rows under fuzzer-chosen fault plans: the
// migration row under link noise and a kernel crash relative to the
// migration protocol, and the failover soak under link noise and a crash of
// the process origin relative to its own directory-commit stream, failover
// plane attached. Any plan is acceptable input; the property is the
// harness's verdict — a migration run may degrade (dead-peer errors), and
// either may stop at the event limit, but none may corrupt memory,
// deadlock, leak RPC state or, on the failover row, lose a page or orphan
// an exit.
func FuzzFaultPlan(f *testing.F) {
	// The shrunk crash-during-migration repro: the sweep's own plan shape.
	f.Add(int64(1), uint8(12), uint8(8), uint8(12), true, uint8(2), int64(30), uint8(0))
	f.Add(int64(7), uint8(30), uint8(0), uint8(25), false, uint8(0), int64(0), uint8(0))
	f.Add(int64(3), uint8(0), uint8(31), uint8(0), true, uint8(1), int64(0), uint8(0))
	// The origin dies 71 us after its 29th directory commit, under heavier
	// duplication and delay than the soak's own plan.
	f.Add(int64(5), uint8(0), uint8(20), uint8(30), false, uint8(0), int64(70), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, dropP, dupP, delayP uint8, crash bool, nth uint8, after int64, origin uint8) {
		r := rowNamed(t, "migration")
		if origin != 0 {
			r = rowNamed(t, "failover")
		}
		rowPlan := r.Plan
		delay := time.Duration((after%100+100)%100+1) * time.Microsecond
		r.Plan = func(planSeed int64) *faultinj.Plan {
			// Reshape the row's probabilistic rule and its crash from the fuzz input.
			plan := rowPlan(planSeed)
			rule := &plan.Rules[len(plan.Rules)-1]
			rule.DupP = float64(dupP%32) / 100
			rule.DelayP = float64(delayP%32) / 100
			if origin != 0 {
				// No drops and no commit count below the soak's own: either
				// lets the crash land while the driver is still spawning
				// workers, and the driver — a proc of no kernel — would go on
				// spawning through the dead origin's services, which is a
				// property of the harness, not of the protocols under test.
				plan.OriginCrashes[0] = faultinj.CrashOrigin{Node: 0, Nth: 20 + int(origin%48), After: delay}
				return plan
			}
			rule.DropP = float64(dropP%32) / 100
			plan.TypeCrashes = plan.TypeCrashes[:0]
			if crash {
				plan.TypeCrashes = append(plan.TypeCrashes, faultinj.TypeCrash{
					Node: 1, Type: int(msg.TypeMigrate), Nth: int(nth%4) + 1, After: delay,
				})
			}
			return plan
		}
		if seed < 0 {
			seed = -seed
		}
		cfg := cfgFor(r, seed%64+1, planes{faults: true})
		// A plan whose crash trigger never fires leaves the detectors armed
		// but the run finite; the limit also bounds retransmission storms.
		cfg.limit = 400_000
		if out := runOne(cfg); out.err != nil {
			var buf bytes.Buffer
			out.explain(&buf)
			t.Fatalf("%s: drop=%d%% dup=%d%% delay=%d%% crash=%v nth=%d after=%v origin=%d: %v\n%s",
				r.Name, dropP%32, dupP%32, delayP%32, crash, nth, delay, origin, out.err, buf.String())
		}
	})
}
