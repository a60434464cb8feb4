package bench

import (
	"fmt"

	"repro/internal/adversity"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/stats"
)

// R1FaultCounters runs the migration and futex workloads under the fault
// sweep's plan (drop/dup/delay on every link, a kernel crash mid-migration)
// and tabulates what the hardened transport and the degradation paths
// absorbed: per-link drops, retransmissions, duplicate suppressions,
// timeouts, reclaimed pages, lost threads. Runs may degrade (dead-peer
// errors) but must terminate; any other error fails the experiment.
func R1FaultCounters(s Scale) (*stats.Table, error) {
	seeds := 16
	if s == Quick {
		seeds = 4
	}
	agg := stats.NewRegistry()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		// Migration and futex: the two-kernel sweeps, whose one link the
		// per-link rows below name.
		for _, sw := range adversity.Sweeps[1:] {
			if err := oneFaultRun(sw, seed, agg); err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", sw.Name, seed, err)
			}
		}
	}
	t := stats.NewTable(fmt.Sprintf("R1: fault-sweep transport & degradation counters (%d seeds, migration+futex)", seeds),
		"counter", "total")
	for _, c := range faultCounterRows {
		t.AddRow(c.desc, fmt.Sprintf("%d", agg.Counter(c.name).Value()))
	}
	return t, nil
}

// faultCounterRows maps the surfaced counters to their table descriptions;
// it is also the set oneFaultRun aggregates across seeds.
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
// adversity.Sweeps — with seed doubling as the fault seed. Counters are
// accumulated into agg.
func oneFaultRun(sw adversity.Sweep, seed int64, agg *stats.Registry) error {
	cfg, err := sw.Config(seed)
	if err != nil {
		return err
	}
	o, err := core.Boot(cfg)
	if err != nil {
		return err
	}
	defer o.Close()
	o.EnableFaults(sw.Plan(seed), msg.FaultConfig{})
	if err := sw.Run(o, seed); err != nil && !adversity.IsDegradation(err) {
		return err
	}
	m := o.Metrics()
	for _, c := range faultCounterRows {
		agg.Counter(c.name).Add(m.Counter(c.name).Value())
	}
	return nil
}
