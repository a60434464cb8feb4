package bench

import (
	"fmt"
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
)

// r3FailoverSweep measures what the origin-replication plane costs and what
// it buys. Three configurations of the same 4-kernel directory-heavy
// workload (process origin on kernel 0, workers on the survivors):
//
//   - replication off, no crash: the baseline;
//   - replication on, no crash: every directory and group mutation pays a
//     synchronous ship to the ring successor — the steady-state overhead;
//   - replication on, origin crash: kernel 0 dies mid-run. Downtime is the
//     gap between the crash and the successor's promotion (detection
//     dominates it), and the max fault stall is the longest any worker
//     operation waited — the ops that straddled the outage pay detection
//     plus promotion plus their paced retries.
//
// The crash row must finish with zero reclaimed pages and zero orphaned
// exits: the failover contract, measured rather than asserted.
func r3FailoverSweep(s Scale) (*stats.Table, error) {
	seeds := 8
	if s == Quick {
		seeds = 2
	}
	type config struct {
		name            string
		failover, crash bool
	}
	configs := []config{
		{"off / no crash", false, false},
		{"on / no crash", true, false},
		{"on / origin crash", true, true},
	}
	t := stats.NewTable(fmt.Sprintf("R3: origin-failover sweep - replication overhead and crash downtime (%d seeds, 4 kernels)", seeds),
		"replication / fault", "completion (ms)", "repl records", "downtime (us)", "max fault stall (us)", "promoted", "reclaimed", "orphaned")
	// One cell per configuration and seed; each row sums its seeds in
	// seed order.
	cs := make([]*failoverCell, len(configs)*seeds)
	err := cells(len(cs), func(i int) error {
		cfg, seed := configs[i/seeds], int64(1+i%seeds)
		var err error
		if cs[i], err = oneFailoverCell(seed, cfg.failover, cfg.crash); err != nil {
			return fmt.Errorf("%s seed %d: %w", cfg.name, seed, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cfg := range configs {
		var (
			completion, downtime, stall               time.Duration
			replicated, promoted, reclaimed, orphaned uint64
		)
		for _, c := range cs[ci*seeds : (ci+1)*seeds] {
			completion += c.completion
			downtime += c.downtime
			if c.maxStall > stall {
				stall = c.maxStall
			}
			replicated += c.replicated
			promoted += c.promoted
			reclaimed += c.reclaimed
			orphaned += c.orphaned
		}
		n := time.Duration(seeds)
		t.AddRow(cfg.name,
			fmt.Sprintf("%.3f", float64((completion/n).Nanoseconds())/1e6),
			fmt.Sprintf("%d", replicated),
			fmt.Sprintf("%.1f", float64((downtime/n).Nanoseconds())/1000),
			fmt.Sprintf("%.1f", float64(stall.Nanoseconds())/1000),
			fmt.Sprintf("%d", promoted),
			fmt.Sprintf("%d", reclaimed),
			fmt.Sprintf("%d", orphaned))
	}
	return t, nil
}

// failoverCell is one seed's outcome for one R3 configuration.
type failoverCell struct {
	completion time.Duration
	downtime   time.Duration
	maxStall   time.Duration
	replicated uint64
	promoted   uint64
	reclaimed  uint64
	orphaned   uint64
}

// oneFailoverCell runs the R3 workload once. The crash is absolute-time
// (not protocol-relative like the soak's): the downtime measurement needs a
// known crash instant to subtract from the observed promotion instant.
func oneFailoverCell(seed int64, failover, crash bool) (*failoverCell, error) {
	const crashAt = 1500 * time.Microsecond
	cfg, err := adversity.Shape{Cores: 16, Kernels: 4}.Config(seed)
	if err != nil {
		return nil, err
	}
	o, err := core.Boot(cfg)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	if failover {
		o.EnableFailover()
	}
	if crash {
		o.EnableFaults(&faultinj.Plan{
			Seed:    seed,
			Crashes: []faultinj.NodeCrash{{Node: 0, At: crashAt}},
		}, msg.FaultConfig{})
	}
	cell := &failoverCell{}
	const (
		shared  = 4
		workers = 6
	)
	cell.completion, err = adversity.OneProcess(o, "r3-driver", shared+workers+1, shared, 100, func(p *sim.Proc, pr *core.Process, base mem.Addr) error {
		tally := base + mem.Addr((shared+workers)*hw.PageSize)
		for i := 0; i < workers; i++ {
			i := i
			if err := pr.Spawn(p, 1+i%3, func(th osi.Thread) {
				own := base + mem.Addr((shared+i)*hw.PageSize)
				for n := 0; n < 60; n++ {
					th.Compute(30 * time.Microsecond)
					var err error
					switch n % 3 {
					case 0:
						_, err = th.Load(base + mem.Addr((n%shared)*hw.PageSize))
					case 1:
						err = th.Store(own, int64(n))
					default:
						_, err = th.FetchAdd(tally, 1)
					}
					if err != nil {
						panic(err)
					}
				}
			}); err != nil {
				return err
			}
		}
		if crash {
			// Sample the handover: the promotion instant minus the known
			// crash instant is the downtime (quantised by the poll period,
			// which is well under the detection timeout it measures).
			for o.Fabric().OriginHolder(0) == 0 {
				p.Sleep(25 * time.Microsecond)
			}
			cell.downtime = p.Now().Duration() - crashAt
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := o.Metrics()
	cell.replicated = m.Counter("dir.failover.replicated").Value() + m.Counter("tg.failover.replicated").Value()
	cell.promoted = m.Counter("msg.failover.promotions").Value()
	cell.reclaimed = m.Counter("vm.pages.reclaimed").Value()
	cell.orphaned = m.Counter("tg.exit.orphaned").Value()
	for _, h := range []string{"vm.fault.latency.remote", "vm.fault.latency.local"} {
		if max := m.Histogram(h).Max(); max > cell.maxStall {
			cell.maxStall = max
		}
	}
	if crash {
		if cell.promoted == 0 {
			return nil, fmt.Errorf("origin crash never produced a promotion")
		}
		if cell.reclaimed != 0 {
			return nil, fmt.Errorf("%d pages reclaimed despite a live successor", cell.reclaimed)
		}
		if cell.orphaned != 0 {
			return nil, fmt.Errorf("%d exits orphaned despite a promoted origin", cell.orphaned)
		}
	}
	return cell, nil
}
