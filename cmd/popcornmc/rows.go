package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversity"
	"repro/internal/msg"
	"repro/internal/stats"
)

// row is one line of the table the harness drives: the run itself (name,
// machine shape, fault plan, workload — adversity.Sweep, which bench's R1
// shares for the sweeps), and what popcornmc reports and asserts about it.
type row struct {
	adversity.Sweep
	// soak marks an endurance row. It fixes its planes (and the flow
	// plane's tuning) instead of taking them from -planes, refuses -inject,
	// and its workers absorb dead-peer and backpressure errors in their own
	// bodies, so an error that escapes the run is a failure.
	soak   bool
	planes planes
	flow   msg.FlowConfig
	// report lists the counters printed per seed and totalled per sweep.
	report []stat
	// check is the row's end-state assertion over a complete run's counters.
	check func(m *stats.Registry) error
	// sweepCheck, when set, asserts over the whole sweep's totals.
	sweepCheck func(totals map[string]uint64, seeds int) error
}

// rows is the table. The sweeps come first: `-workload all` means them.
var rows = []row{
	{Sweep: adversity.Sweeps[0], report: sweepReport, check: crossesKernels},
	{Sweep: adversity.Sweeps[1], report: sweepReport, check: crossesKernels},
	{Sweep: adversity.Sweeps[2], report: sweepReport, check: crossesKernels},
	{
		Sweep: adversity.Sweep{Name: "chaos", Shape: soakShape, Plan: chaosPlan, Run: chaosRun},
		soak:  true, planes: planes{faults: true},
		report: []stat{
			counters("lost", "core.threads.lost"),
			counters("recovered", "core.threads.recovered"),
			counters("evacuated", "core.threads.evacuated"),
		},
		check: chaosCheck,
		sweepCheck: func(totals map[string]uint64, seeds int) error {
			if totals["recovered"] == 0 {
				return fmt.Errorf("%d seeds ran but no lost thread was ever restarted as recovered; the checkpoint-restart path is dead", seeds)
			}
			return nil
		},
	},
	{
		Sweep: adversity.Sweep{Name: "overload", Shape: soakShape, Plan: overloadPlan, Run: overloadRun},
		soak:  true, planes: planes{flow: true, faults: true},
		flow: msg.FlowConfig{
			CreditsPerLink: ovCredits,
			MaxCreditWait:  500 * time.Microsecond,
			// The slow window inflates Call RTTs by ~160 us; healthy RTTs on
			// this machine are tens of microseconds.
			SlowAfter: 100 * time.Microsecond,
			// Short enough that the half-open probe lands after the heal but
			// well before the run's end.
			BreakerCooldown: time.Millisecond,
		},
		report: []stat{
			{key: "maxdepth", read: func(m *stats.Registry) uint64 { return m.Counter("msg.queue.maxdepth").Value() }, kind: peak},
			{key: "ctrlmax", read: func(m *stats.Registry) uint64 { return uint64(m.Histogram("msg.flow.ctrlwait").Max()) }, kind: peakDuration},
			counters("shed", "msg.flow.shed", "msg.flow.backpressure"),
		},
		check: overloadCheck,
	},
	{
		Sweep: adversity.Sweep{Name: "failover", Shape: soakShape, Plan: failoverPlan, Run: failoverRun},
		soak:  true, planes: planes{failover: true, faults: true},
		report: []stat{
			counters("promotions", "msg.failover.promotions"),
			counters("replicated", "dir.failover.replicated", "tg.failover.replicated"),
			counters("reclaimed", "vm.pages.reclaimed"),
			counters("orphaned", "tg.exit.orphaned"),
			counters("fenced", "msg.fault.staleorigin"),
		},
		check: failoverCheck,
	},
}

// soakShape is the machine every soak runs on: four kernels of four cores.
var soakShape = adversity.Shape{Cores: 16, Kernels: 4}

// sweepReport makes a row that sends nothing visible in its per-seed line.
var sweepReport = []stat{counters("msgs", "msg.sent")}

// crossesKernels is every sweep row's check: the run exercised a
// distributed protocol at all. A workload whose threads never leave their
// process's origin kernel sends no message, and every seed of it explores
// the same nothing — which a clean sanitizer cannot tell from coverage.
func crossesKernels(m *stats.Registry) error {
	if m.Counter("msg.sent").Value() == 0 {
		return errors.New("the run sent no inter-kernel message: nothing distributed was explored")
	}
	if m.Counter("tg.spawn.remote").Value()+m.Counter("vm.fault.remote").Value()+m.Counter("futex.remote").Value() == 0 {
		return errors.New("no remote spawn, remote fault or remote futex operation: the workload never crossed kernels")
	}
	return nil
}

// stat is one reported counter: how to read it off a run's registry, and
// how a sweep totals and prints it.
type stat struct {
	key  string
	read func(m *stats.Registry) uint64
	kind statKind
}

type statKind int

const (
	sum          statKind = iota // totalled over a sweep by addition
	peak                         // a high-water mark: totalled by max
	peakDuration                 // a high-water mark in nanoseconds, printed as a duration
)

// counters is the stat that sums the named registry counters.
func counters(key string, names ...string) stat {
	return stat{key: key, read: func(m *stats.Registry) uint64 {
		var v uint64
		for _, n := range names {
			v += m.Counter(n).Value()
		}
		return v
	}}
}

func (st stat) total(acc, v uint64) uint64 {
	if st.kind == sum {
		return acc + v
	}
	return max(acc, v)
}

// statLine renders vals as " key=value" per reported stat, in table order.
func statLine(report []stat, vals map[string]uint64) string {
	var b strings.Builder
	for _, st := range report {
		v := strconv.FormatUint(vals[st.key], 10)
		if st.kind == peakDuration {
			v = time.Duration(vals[st.key]).String()
		}
		b.WriteString(" " + st.key + "=" + v)
	}
	return b.String()
}

// pickRows resolves -workload: one row by name, or all three sweeps.
func pickRows(name string) ([]*row, error) {
	var picked []*row
	for i := range rows {
		if rows[i].Name == name || name == "all" && !rows[i].soak {
			picked = append(picked, &rows[i])
		}
	}
	if picked == nil {
		return nil, fmt.Errorf("unknown workload %q (want %s, or all for the sweeps)", name, rowNames())
	}
	return picked, nil
}

// rowNames lists the table's rows for the usage text and error messages.
func rowNames() string {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Name
	}
	return strings.Join(names, ", ")
}
