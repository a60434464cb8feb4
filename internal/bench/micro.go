package bench

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// t1Run measures the message layer: RPC round-trip latency versus payload
// size, for a same-NUMA-node kernel pair and a cross-node pair. Traced, one
// collector attached to every per-ping fabric accumulates the rpc/wire/handle
// span trees of every ping, which the critical-path table attributes leg by
// leg (the per-ping engines run one after another, so span IDs stay
// deterministic).
func t1Run(s Scale, traced bool) (*stats.Series, *trace.Collector, error) {
	var col *trace.Collector
	if traced {
		col = trace.NewCollector()
	}
	sizes := []int{64, 256, 1024, 4096, 16384, 65536}
	if s == Quick {
		sizes = []int{64, 4096, 65536}
	}
	xs := make([]float64, len(sizes))
	for i, sz := range sizes {
		xs[i] = float64(sz)
	}
	series := stats.NewSeries("T1: message round-trip latency", "payload-bytes", "rtt-us", xs...)
	// Kernels 0 and 1 on node 0, kernel 2 on node 1.
	for _, dst := range []msg.NodeID{1, 2} {
		ys := make([]float64, len(sizes))
		for i, size := range sizes {
			rtt, err := onePing([]int{0, 8, 32}, dst, msg.DefaultConfig(), size, col)
			if err != nil {
				return nil, nil, err
			}
			ys[i] = float64(rtt.Nanoseconds()) / 1000
		}
		name := "same-node"
		if dst == 2 {
			name = "cross-node"
		}
		if err := series.AddLine(name, ys); err != nil {
			return nil, nil, err
		}
	}
	return series, col, nil
}

// onePing boots a bare fabric with one node per nodeCore entry and returns
// the mean round trip of size-byte pings from node 0 to dst: one warm-up
// ping, then a measured batch.
func onePing(nodeCore []int, dst msg.NodeID, cfg msg.Config, size int, col *trace.Collector) (time.Duration, error) {
	e, fabric, err := bootFabric(nodeCore, cfg, stats.NewRegistry())
	if err != nil {
		return 0, err
	}
	defer e.Close()
	fabric.SetCollector(col)
	fabric.Endpoint(dst).Handle(msg.TypePing, func(p *sim.Proc, m *msg.Message) *msg.Message {
		return &msg.Message{Size: m.Size}
	})
	var rtt time.Duration
	e.Spawn("pinger", func(p *sim.Proc) {
		ping := func() {
			_, err := fabric.Endpoint(0).Call(p, &msg.Message{Type: msg.TypePing, To: dst, Size: size})
			must(err)
		}
		const iters = 8
		ping()
		start := p.Now()
		for i := 0; i < iters; i++ {
			ping()
		}
		rtt = p.Now().Sub(start) / iters
	})
	if err := e.Run(); err != nil {
		return 0, err
	}
	return rtt, nil
}

// ringHops is a process body: one thread on kernel 0 migrates iters times,
// each hop to the next kernel around the ring. A ring rather than a
// back-and-forth pair keeps the shadow-revival fast path (a return to a
// kernel the thread left) from hiding the task-setup cost on the first lap.
func ringHops(o osi.OS, iters int) func(*sim.Proc, osi.Process) {
	return func(p *sim.Proc, pr osi.Process) {
		must(pr.Spawn(p, 0, func(th osi.Thread) {
			for i := 0; i < iters; i++ {
				must(th.Migrate((th.KernelID() + 1) % o.Kernels()))
			}
		}))
	}
}

// t2Run migrates one thread between kernels and reports the per-phase
// virtual-time costs of the paper's migration protocol. Traced, the
// collector holds one core.migrate span tree per migration, so the
// critical-path table can be cross-checked against the histogram means the
// table reports.
func t2Run(s Scale, traced bool) (*stats.Table, *trace.Collector, error) {
	tab := stats.NewTable("T2: thread migration latency breakdown", "phase", "mean-us", "share")
	o, err := bootPopcorn(kernel.Testbed(), popcornKernels)
	if err != nil {
		return nil, nil, err
	}
	defer o.Close()
	var col *trace.Collector
	if traced {
		col = o.AttachTracer()
	}
	iters := 16
	if s == Quick {
		iters = 4
	}
	if _, err := runProcess(o, ringHops(o, iters)); err != nil {
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

// t3ThreadCreate measures thread creation latency: local clone, first
// remote clone (cold replica), and subsequent remote clones (warm).
func t3ThreadCreate(s Scale) (*stats.Table, error) {
	tab := stats.NewTable("T3: thread creation latency", "variant", "latency-us")
	o, err := bootPopcorn(kernel.Testbed(), popcornKernels)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	var localLat, coldLat, warmLat time.Duration
	_, err = runProcess(o, func(p *sim.Proc, pr osi.Process) {
		measure := func(k int) time.Duration {
			start := p.Now()
			must(pr.Spawn(p, k, func(osi.Thread) {}))
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
	})
	if err != nil {
		return nil, err
	}
	tab.AddRow("local clone", us(localLat))
	tab.AddRow("remote clone, cold (replica setup)", us(coldLat))
	tab.AddRow("remote clone, warm", us(warmLat))
	return tab, nil
}

// t4SyscallOverhead compares uncontended fast-path operations on the
// replicated kernel and on SMP: the SSI should cost almost nothing when no
// cross-kernel work is needed.
func t4SyscallOverhead(s Scale) (*stats.Table, error) {
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
	for osIdx, ob := range standardOSes(kernel.Testbed(), popcornKernels) {
		o, closeOS, err := ob.boot()
		if err != nil {
			return nil, err
		}
		_, err = runProcess(o, func(p *sim.Proc, pr osi.Process) {
			must(pr.Spawn(p, 0, func(th osi.Thread) {
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
			}))
		})
		closeOS()
		if err != nil {
			return nil, err
		}
	}
	for _, pb := range probes {
		r := results[pb.name]
		tab.AddRow(pb.name, us(r[0]), us(r[1]))
	}
	return tab, nil
}

// f2Run measures fault service latency by directory state: local zero-fill
// at the origin, remote zero-fill, remote read of a modified page, and a
// write that must invalidate remote readers. Traced, each measured fault
// leaves a vm.fault span tree whose legs (directory transaction, page
// transfer wire legs, invalidation fan-out) the critical-path table
// attributes.
func f2Run(s Scale, traced bool) (*stats.Table, *trace.Collector, error) {
	tab := stats.NewTable("F2: page-fault service latency", "fault type", "latency-us")
	o, err := bootPopcorn(kernel.Testbed(), popcornKernels)
	if err != nil {
		return nil, nil, err
	}
	defer o.Close()
	var col *trace.Collector
	if traced {
		col = o.AttachTracer()
	}
	lat := make(map[string]time.Duration)
	_, err = runProcess(o, func(p *sim.Proc, pr osi.Process) {
		var base mem.Addr
		// run runs fn on kernel k, timing it under name unless name is "".
		run := func(k int, name string, fn osi.ThreadFunc) {
			onKernels(p, pr, func(th osi.Thread) {
				start := th.Proc().Now()
				fn(th)
				if name != "" {
					lat[name] = th.Proc().Now().Sub(start)
				}
			}, k)
		}
		run(0, "", func(th osi.Thread) {
			a, err := th.Mmap(64*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			must(err)
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
	})
	if err != nil {
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

// f3VMAPropagation measures mmap/mprotect/munmap latency at the origin as
// the group spans more kernels (the synchronous-push cost).
func f3VMAPropagation(s Scale) (*stats.Series, error) {
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
		o, err := bootPopcorn(kernel.Testbed(), popcornKernels)
		if err != nil {
			return nil, err
		}
		var mm, pt, um time.Duration
		_, err = runProcess(o, func(p *sim.Proc, pr osi.Process) {
			var base mem.Addr
			ready := sim.NewWaitGroup()
			ready.Add(1)
			hold := sim.NewWaitGroup()
			hold.Add(1)
			must(pr.Spawn(p, 0, func(th osi.Thread) {
				a, err := th.Mmap(uint64(8+replicas)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
				must(err)
				base = a
				ready.Done()
				hold.Wait(th.Proc())
			}))
			ready.Wait(p)
			// Materialise replicas: one thread per extra kernel touches a
			// page so the kernel holds group state.
			onKernels(p, pr, func(th osi.Thread) {
				must(th.Store(base+mem.Addr((7+th.KernelID())*hw.PageSize), 1))
			}, kernelRange(1, replicas)...)
			// Measure from the origin.
			onKernels(p, pr, func(th osi.Thread) {
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
			}, 0)
			hold.Done()
		})
		o.Close()
		if err != nil {
			return nil, err
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
