package bench

import (
	"fmt"

	"repro/internal/adversity"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/stats"
)

// r1FaultCounters runs the migration and futex workloads under the fault
// sweep's plan (drop/dup/delay on every link, a kernel crash mid-migration)
// and tabulates what the hardened transport and the degradation paths
// absorbed: per-link drops, retransmissions, duplicate suppressions,
// timeouts, reclaimed pages, lost threads. Runs may degrade (dead-peer
// errors) but must terminate; any other error fails the experiment.
func r1FaultCounters(s Scale) (*stats.Table, error) {
	seeds := 16
	if s == Quick {
		seeds = 4
	}
	// Migration and futex: the two-kernel sweeps, whose one link the
	// per-link rows below name. One cell per seed and sweep, each with its
	// own machine and registry; the totals sum the cells in index order.
	sweeps := adversity.Sweeps[1:]
	counts := make([][]uint64, seeds*len(sweeps))
	err := cells(len(counts), func(i int) error {
		sw, seed := sweeps[i%len(sweeps)], int64(1+i/len(sweeps))
		var err error
		if counts[i], err = oneFaultRun(sw, seed); err != nil {
			return fmt.Errorf("%s seed %d: %w", sw.Name, seed, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("R1: fault-sweep transport & degradation counters (%d seeds, migration+futex)", seeds),
		"counter", "total")
	for r, c := range faultCounterRows {
		var total uint64
		for _, cell := range counts {
			total += cell[r]
		}
		t.AddRow(c.desc, fmt.Sprintf("%d", total))
	}
	return t, nil
}

// faultCounterRows maps the surfaced counters to their table descriptions;
// it is also the set oneFaultRun returns per run.
var faultCounterRows = []struct{ name, desc string }{
	{"msg.fault.drop", "messages dropped at commit"},
	{"msg.fault.drop.k0-k1", "  of which on link k0->k1"},
	{"msg.fault.drop.k1-k0", "  of which on link k1->k0"},
	{"msg.fault.dup", "messages duplicated"},
	{"msg.fault.delay", "messages delayed out of FIFO order"},
	{"msg.fault.timeout", "RPC reply timeouts"},
	{"msg.fault.retransmit", "RPC retransmissions"},
	{"msg.fault.dupdrop", "duplicates suppressed in flight"},
	{"msg.fault.replayed", "duplicates answered from reply cache"},
	{"msg.fault.dedup_hits", "dedup-window hits (suppressed + replayed)"},
	{"msg.fault.fenced", "stale-incarnation messages fenced"},
	{"msg.fault.lost", "non-RPC messages lost after redelivery budget"},
	{"msg.fault.crash", "kernel crashes"},
	{"msg.fault.declared", "dead-peer declarations by survivors"},
	{"msg.heartbeat.sent", "heartbeats sent in failure windows"},
	{"msg.fault.rpcdead", "RPCs failed by dead-peer declaration"},
	{"msg.fault.fastfail", "RPCs fast-failed post-declaration"},
	{"vm.pages.reclaimed", "page ownerships reclaimed from dead kernels"},
	{"vm.inval.deadpeer", "invalidations absorbed by peer death"},
	{"core.threads.lost", "threads lost with crashed kernels"},
	{"futex.wait.deadhome", "futex waits error-woken (home died)"},
	{"futex.waiter.reaped", "remote futex waiters reaped"},
}

// oneFaultRun is one popcornmc fault-sweep run of sw — the same machine,
// tie-shuffled schedule, plan and workload, because both take them from
// adversity.Sweeps — with seed doubling as the fault seed. It returns the
// run's faultCounterRows counters, in row order.
func oneFaultRun(sw adversity.Sweep, seed int64) ([]uint64, error) {
	cfg, err := sw.Config(seed)
	if err != nil {
		return nil, err
	}
	o, err := core.Boot(cfg)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	o.EnableFaults(sw.Plan(seed), msg.FaultConfig{})
	if err := sw.Run(o, seed); err != nil && !adversity.IsDegradation(err) {
		return nil, err
	}
	m := o.Metrics()
	counts := make([]uint64, len(faultCounterRows))
	for r, c := range faultCounterRows {
		counts[r] = m.Counter(c.name).Value()
	}
	return counts, nil
}
