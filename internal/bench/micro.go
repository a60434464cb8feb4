package bench

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// T1MessageRoundTrip measures the message layer: RPC round-trip latency
// versus payload size, for a same-NUMA-node kernel pair and a cross-node
// pair.
func T1MessageRoundTrip(s Scale) (*stats.Series, error) {
	return t1Run(s, nil)
}

// T1MessageRoundTripTraced is T1 with a causal span collector attached: the
// returned collector holds the rpc/wire/handle span trees of every measured
// ping, which the critical-path table attributes leg by leg.
func T1MessageRoundTripTraced(s Scale) (fmt.Stringer, *trace.Collector, error) {
	col := trace.NewCollector()
	series, err := t1Run(s, col)
	return series, col, err
}

// t1Run is the shared T1 body. When col is non-nil every per-ping fabric
// attaches it, so one collector accumulates spans across all the
// configurations (the per-ping engines run sequentially, so span IDs stay
// deterministic).
func t1Run(s Scale, col *trace.Collector) (*stats.Series, error) {
	sizes := []int{64, 256, 1024, 4096, 16384, 65536}
	if s == Quick {
		sizes = []int{64, 4096, 65536}
	}
	xs := make([]float64, len(sizes))
	for i, sz := range sizes {
		xs[i] = float64(sz)
	}
	series := stats.NewSeries("T1: message round-trip latency", "payload-bytes", "rtt-us", xs...)
	for _, cross := range []bool{false, true} {
		ys := make([]float64, len(sizes))
		for i, size := range sizes {
			rtt, err := onePing(size, cross, col)
			if err != nil {
				return nil, err
			}
			ys[i] = float64(rtt.Nanoseconds()) / 1000
		}
		name := "same-node"
		if cross {
			name = "cross-node"
		}
		if err := series.AddLine(name, ys); err != nil {
			return nil, err
		}
	}
	return series, nil
}

func onePing(size int, crossNode bool, col *trace.Collector) (time.Duration, error) {
	e := sim.NewEngine(sim.WithSeed(1))
	defer e.Close()
	machine, err := hw.NewMachine(testbed(), hw.DefaultCostModel())
	if err != nil {
		return 0, err
	}
	// Kernels 0,1 on node 0; kernel 2 on node 1.
	fabric, err := msg.NewFabric(e, machine, 3, []int{0, 8, 32}, msg.DefaultConfig(), stats.NewRegistry())
	if err != nil {
		return 0, err
	}
	fabric.SetCollector(col)
	dst := msg.NodeID(1)
	if crossNode {
		dst = 2
	}
	fabric.Endpoint(dst).Handle(msg.TypePing, func(p *sim.Proc, m *msg.Message) *msg.Message {
		return &msg.Message{Size: m.Size}
	})
	var rtt time.Duration
	e.Spawn("pinger", func(p *sim.Proc) {
		// Warm-up then measure a batch.
		const iters = 8
		if _, err := fabric.Endpoint(0).Call(p, &msg.Message{Type: msg.TypePing, To: dst, Size: size}); err != nil {
			panic(err)
		}
		start := p.Now()
		for i := 0; i < iters; i++ {
			if _, err := fabric.Endpoint(0).Call(p, &msg.Message{Type: msg.TypePing, To: dst, Size: size}); err != nil {
				panic(err)
			}
		}
		rtt = p.Now().Sub(start) / iters
	})
	if err := e.Run(); err != nil {
		return 0, err
	}
	return rtt, nil
}

// T2MigrationBreakdown migrates one thread between kernels and reports the
// per-phase virtual-time costs of the paper's migration protocol.
func T2MigrationBreakdown(s Scale) (*stats.Table, error) {
	tab, _, err := t2Run(s, false)
	return tab, err
}

// T2MigrationBreakdownTraced is T2 with the causal tracer attached: the
// collector holds one core.migrate span tree per migration, so the
// critical-path table can be cross-checked against the histogram means the
// untraced table reports.
func T2MigrationBreakdownTraced(s Scale) (fmt.Stringer, *trace.Collector, error) {
	return t2Run(s, true)
}

// t2Run is the shared T2 body; traced attaches a span collector to the
// booted OS (reads only virtual timestamps, so the table is unchanged).
func t2Run(s Scale, traced bool) (*stats.Table, *trace.Collector, error) {
	tab := stats.NewTable("T2: thread migration latency breakdown", "phase", "mean-us", "share")
	o, err := bootPopcorn(testbed(), popcornKernels)
	if err != nil {
		return nil, nil, err
	}
	defer o.Close()
	var col *trace.Collector
	if traced {
		col = o.AttachTracer()
	}
	e := o.Engine()
	iters := 16
	if s == Quick {
		iters = 4
	}
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := o.StartProcessOn(p, 0)
		if err != nil {
			panic(err)
		}
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			for i := 0; i < iters; i++ {
				if err := th.Migrate((th.KernelID() + 1) % o.Kernels()); err != nil {
					panic(err)
				}
			}
		}); err != nil {
			panic(err)
		}
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		return nil, nil, err
	}
	reg := o.Metrics()
	total := reg.Histogram("tg.migrate.total").Mean()
	rows := []struct {
		name string
		h    string
	}{
		{"checkpoint (save context)", "tg.migrate.checkpoint"},
		{"transfer (message rtt incl. resume ack)", "tg.migrate.rpc"},
		{"dest task setup (dummy pool)", "tg.migrate.setup"},
		{"context import", "tg.migrate.import"},
		{"total", "tg.migrate.total"},
	}
	for _, r := range rows {
		mean := reg.Histogram(r.h).Mean()
		share := "-"
		if total > 0 && r.h != "tg.migrate.total" {
			share = fmt.Sprintf("%.0f%%", 100*float64(mean)/float64(total))
		}
		tab.AddRow(r.name, us(mean), share)
	}
	return tab, col, nil
}

// T3ThreadCreate measures thread creation latency: local clone, first
// remote clone (cold replica), and subsequent remote clones (warm).
func T3ThreadCreate(s Scale) (*stats.Table, error) {
	tab := stats.NewTable("T3: thread creation latency", "variant", "latency-us")
	o, err := bootPopcorn(testbed(), popcornKernels)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	e := o.Engine()
	var localLat, coldLat, warmLat time.Duration
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := o.StartProcessOn(p, 0)
		if err != nil {
			panic(err)
		}
		measure := func(k int) time.Duration {
			start := p.Now()
			if err := pr.Spawn(p, k, func(osi.Thread) {}); err != nil {
				panic(err)
			}
			return p.Now().Sub(start)
		}
		localLat = measure(0)
		coldLat = measure(1)
		const warmIters = 8
		var sum time.Duration
		for i := 0; i < warmIters; i++ {
			sum += measure(1)
		}
		warmLat = sum / warmIters
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		return nil, err
	}
	tab.AddRow("local clone", us(localLat))
	tab.AddRow("remote clone, cold (replica setup)", us(coldLat))
	tab.AddRow("remote clone, warm", us(warmLat))
	return tab, nil
}

// T4SyscallOverhead compares uncontended fast-path operations on the
// replicated kernel and on SMP: the SSI should cost almost nothing when no
// cross-kernel work is needed.
func T4SyscallOverhead(s Scale) (*stats.Table, error) {
	tab := stats.NewTable("T4: uncontended operation latency (one thread)", "operation", "popcorn-us", "smp-us")
	type probe struct {
		name string
		run  func(th osi.Thread) error
	}
	var dataAddr mem.Addr
	probes := []probe{
		{"mmap 1 page", func(th osi.Thread) error {
			a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			dataAddr = a
			return err
		}},
		{"first-touch store (fault)", func(th osi.Thread) error {
			return th.Store(dataAddr, 1)
		}},
		{"cached store", func(th osi.Thread) error {
			return th.Store(dataAddr, 2)
		}},
		{"futex wake, no waiters", func(th osi.Thread) error {
			_, err := th.FutexWake(dataAddr, 1)
			return err
		}},
		{"munmap 1 page", func(th osi.Thread) error {
			return th.Munmap(dataAddr, hw.PageSize)
		}},
	}
	results := make(map[string][2]time.Duration)
	for osIdx, ob := range standardOSes(testbed(), popcornKernels) {
		o, closeOS, err := ob.boot()
		if err != nil {
			return nil, err
		}
		e := o.Engine()
		e.Spawn("driver", func(p *sim.Proc) {
			pr, err := o.StartProcess(p)
			if err != nil {
				panic(err)
			}
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				for _, pb := range probes {
					start := th.Proc().Now()
					if err := pb.run(th); err != nil {
						panic(fmt.Sprintf("%s %s: %v", ob.name, pb.name, err))
					}
					d := th.Proc().Now().Sub(start)
					r := results[pb.name]
					r[osIdx] = d
					results[pb.name] = r
				}
			}); err != nil {
				panic(err)
			}
			pr.Wait(p)
			_ = pr.Close(p)
		})
		runErr := e.Run()
		closeOS()
		if runErr != nil {
			return nil, runErr
		}
	}
	for _, pb := range probes {
		r := results[pb.name]
		tab.AddRow(pb.name, us(r[0]), us(r[1]))
	}
	return tab, nil
}

// F2PageFault measures fault service latency by directory state: local
// zero-fill at the origin, remote zero-fill, remote read of a modified
// page, and a write that must invalidate remote readers.
func F2PageFault(s Scale) (*stats.Table, error) {
	tab, _, err := f2Run(s, false)
	return tab, err
}

// F2PageFaultTraced is F2 with the causal tracer attached: each measured
// fault leaves a vm.fault span tree whose legs (directory transaction, page
// transfer wire legs, invalidation fan-out) the critical-path table
// attributes.
func F2PageFaultTraced(s Scale) (fmt.Stringer, *trace.Collector, error) {
	return f2Run(s, true)
}

// f2Run is the shared F2 body; traced attaches a span collector to the
// booted OS.
func f2Run(s Scale, traced bool) (*stats.Table, *trace.Collector, error) {
	tab := stats.NewTable("F2: page-fault service latency", "fault type", "latency-us")
	o, err := bootPopcorn(testbed(), popcornKernels)
	if err != nil {
		return nil, nil, err
	}
	defer o.Close()
	var col *trace.Collector
	if traced {
		col = o.AttachTracer()
	}
	e := o.Engine()
	lat := make(map[string]time.Duration)
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := o.StartProcessOn(p, 0)
		if err != nil {
			panic(err)
		}
		var base mem.Addr
		step := sim.NewWaitGroup()
		run := func(k int, name string, fn func(th osi.Thread)) {
			step.Add(1)
			if err := pr.Spawn(p, k, func(th osi.Thread) {
				defer step.Done()
				start := th.Proc().Now()
				fn(th)
				if name != "" {
					lat[name] = th.Proc().Now().Sub(start)
				}
			}); err != nil {
				panic(err)
			}
			step.Wait(p)
		}
		run(0, "", func(th osi.Thread) {
			a, err := th.Mmap(64*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			base = a
		})
		pg := func(i int) mem.Addr { return base + mem.Addr(i*hw.PageSize) }
		run(0, "local zero-fill (origin)", func(th osi.Thread) { must(th.Store(pg(0), 1)) })
		run(1, "remote zero-fill", func(th osi.Thread) { must(th.Store(pg(1), 1)) })
		run(0, "", func(th osi.Thread) { must(th.Store(pg(2), 7)) })
		run(1, "remote read of modified page", func(th osi.Thread) { mustV(th.Load(pg(2))) })
		// Build a 3-sharer page, then write it from a fourth kernel.
		run(0, "", func(th osi.Thread) { must(th.Store(pg(3), 9)) })
		run(1, "", func(th osi.Thread) { mustV(th.Load(pg(3))) })
		run(2, "", func(th osi.Thread) { mustV(th.Load(pg(3))) })
		run(3, "write invalidating 3 sharers", func(th osi.Thread) { must(th.Store(pg(3), 10)) })
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		return nil, nil, err
	}
	for _, name := range []string{
		"local zero-fill (origin)",
		"remote zero-fill",
		"remote read of modified page",
		"write invalidating 3 sharers",
	} {
		tab.AddRow(name, us(lat[name]))
	}
	return tab, col, nil
}

// F3VMAPropagation measures mmap/mprotect/munmap latency at the origin as
// the group spans more kernels (the synchronous-push cost).
func F3VMAPropagation(s Scale) (*stats.Series, error) {
	replicaCounts := []int{0, 1, 2, 4, 7}
	if s == Quick {
		replicaCounts = []int{0, 2, 7}
	}
	xs := make([]float64, len(replicaCounts))
	for i, r := range replicaCounts {
		xs[i] = float64(r + 1) // kernels hosting the group
	}
	series := stats.NewSeries("F3: VMA operation latency vs group span", "kernels-in-group", "latency-us", xs...)
	mmapYs := make([]float64, len(replicaCounts))
	protYs := make([]float64, len(replicaCounts))
	unmapYs := make([]float64, len(replicaCounts))
	for i, replicas := range replicaCounts {
		o, err := bootPopcorn(testbed(), popcornKernels)
		if err != nil {
			return nil, err
		}
		e := o.Engine()
		var mm, pt, um time.Duration
		e.Spawn("driver", func(p *sim.Proc) {
			pr, err := o.StartProcessOn(p, 0)
			if err != nil {
				panic(err)
			}
			var base mem.Addr
			ready := sim.NewWaitGroup()
			ready.Add(1)
			hold := sim.NewWaitGroup()
			hold.Add(1)
			// Materialise replicas: one thread per extra kernel touches a
			// page so the kernel holds group state.
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				a, err := th.Mmap(uint64(8+replicas)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
				if err != nil {
					panic(err)
				}
				base = a
				ready.Done()
				hold.Wait(th.Proc())
			}); err != nil {
				panic(err)
			}
			ready.Wait(p)
			touched := sim.NewWaitGroup()
			for r := 0; r < replicas; r++ {
				touched.Add(1)
				if err := pr.Spawn(p, 1+r, func(th osi.Thread) {
					must(th.Store(base+mem.Addr((8+r)*hw.PageSize), 1))
					touched.Done()
				}); err != nil {
					panic(err)
				}
			}
			touched.Wait(p)
			// Measure from the origin.
			meas := sim.NewWaitGroup()
			meas.Add(1)
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				defer meas.Done()
				const iters = 4
				start := th.Proc().Now()
				addrs := make([]mem.Addr, iters)
				for i := 0; i < iters; i++ {
					a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
					must(err)
					addrs[i] = a
				}
				mm = th.Proc().Now().Sub(start) / iters
				start = th.Proc().Now()
				for i := 0; i < iters; i++ {
					must(th.Mprotect(base, hw.PageSize, mem.ProtRead))
					must(th.Mprotect(base, hw.PageSize, mem.ProtRead|mem.ProtWrite))
				}
				pt = th.Proc().Now().Sub(start) / (2 * iters)
				start = th.Proc().Now()
				for i := 0; i < iters; i++ {
					must(th.Munmap(addrs[i], hw.PageSize))
				}
				um = th.Proc().Now().Sub(start) / iters
			}); err != nil {
				panic(err)
			}
			meas.Wait(p)
			hold.Done()
			pr.Wait(p)
			_ = pr.Close(p)
		})
		runErr := e.Run()
		o.Close()
		if runErr != nil {
			return nil, runErr
		}
		mmapYs[i] = float64(mm.Nanoseconds()) / 1000
		protYs[i] = float64(pt.Nanoseconds()) / 1000
		unmapYs[i] = float64(um.Nanoseconds()) / 1000
	}
	if err := series.AddLine("mmap (lazy)", mmapYs); err != nil {
		return nil, err
	}
	if err := series.AddLine("mprotect (pushed)", protYs); err != nil {
		return nil, err
	}
	if err := series.AddLine("munmap (pushed)", unmapYs); err != nil {
		return nil, err
	}
	return series, nil
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func mustV(_ int64, err error) {
	if err != nil {
		panic(err)
	}
}
