package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/smp"
	"repro/internal/workload"
)

// testbed is the machine every workload boots: the paper's 64-core,
// 2-node server split into 8 kernels — the same cell bench.Experiments runs.
var testbed = hw.Topology{Cores: 64, NUMANodes: 2}

const testbedKernels = 8

// counterNames are the protocol counters read from o.Metrics() at the end of
// a rep; they are pinned, and the traced run divides them by ops.
var counterNames = []string{"msg.sent", "msg.rpc", "vm.fault.remote", "vm.inval.sent", "tg.migrate", "futex.remote"}

// rep is what one run of a workload on freshly booted machines produced.
type rep struct {
	// Ops is the unit for every *_per_op metric; Attempted and Failed count
	// the same unit (an op that errored, or whose content check failed).
	Ops, Attempted, Failed uint64
	// Virt is the measured window on the replicated kernel.
	Virt time.Duration
	// Events is sim.Engine.EventsProcessed summed over the machines booted.
	Events uint64
	// Counters holds counterNames read from the replicated kernel.
	Counters map[string]uint64
	// Tables maps experiment ID to its rendered table (suite only).
	Tables map[string]string
	// TableMS is host milliseconds per experiment (suite only).
	TableMS map[string]float64
}

// hooks lets the harness observe a rep without the workload knowing why:
// booted is called on each machine before any workload thread exists (the
// live_mb probe and the observers attach there) and may return a wrapped OS
// (the traced run's span recorder).
type hooks struct {
	booted func(o osi.OS) osi.OS
	// between runs at each experiment boundary of the suite.
	between func(id string)
}

func (h hooks) wrap(o osi.OS) osi.OS {
	if h.booted == nil {
		return o
	}
	return h.booted(o)
}

// size scales a workload: full is the pinned benchmark size, toy the size
// the tier-1 tests run.
type size int

const (
	full size = iota
	toy
)

func (s size) pick(fullN, toyN int) int {
	if s == toy {
		return toyN
	}
	return fullN
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// why is copied into BENCHMARK.json.
	why string
	// opStart and opEnd name the syscalls that open and close an op in the
	// traced run's span recorder; a workload sets whichever its loop makes
	// unambiguous (neither on suite, which has no syscall-level trace).
	opStart, opEnd string
	// probeAt is the virtual time of the live_mb probe: about the midpoint
	// of the measured window at full size, when every simulated thread is
	// live. Fixed rather than derived so it never depends on a previous run.
	probeAt time.Duration
	run     func(seed int64, s size, h hooks) (rep, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{name: "suite",
			why: "every bench.Experiments table but T5 at full scale: the real traffic benchtable and CI users wait for, and the mixed check that a synthetic gain shows where people run the code",
			run: runSuite},
		{name: "futex_shared",
			why:   "64 threads on one futex lock (F5b shape, 47% of suite time): nearly every event is a proc block/wake or a futex RPC, so sim hand-off and msg per-RPC cost dominate; vm and threadgroup idle",
			opEnd: "FutexWake", probeAt: 1400 * time.Millisecond, run: runFutexShared},
		{name: "mmap_local",
			why:   "64 private map/touch/unmap loops on core then smp (headline F4): the bypass workload, 0 messages, so msg and threadgroup changes must leave it unmoved while sim.Mutex, vm VMA ops and smp work",
			opEnd: "Munmap", probeAt: 15 * time.Millisecond, run: runMmapLocal},
		{name: "migrate_ring",
			why:   "32 threads each hop kernel to kernel 2000 times and touch 2 private pages: the titular operation, threadgroup checkpoint/revive/commit dominates with vm following lazily",
			opEnd: "Compute", probeAt: 280 * time.Millisecond, run: runMigrateRing},
		{name: "page_bounce",
			why:   "32 threads on 8 kernels, 3 Loads to 1 FetchAdd over 16 shared pages: vm directory, ownership transfer and invalidation fan-out with writes beside reads; threadgroup idle",
			opEnd: "Compute", probeAt: 260 * time.Millisecond, run: runPageBounce},
		{name: "kv_planes",
			why:     "sharded KV store, 10% puts, with flow, failover and fault planes attached and nothing injected: the plane-on send/deliver path and replicated directory commits, read-mostly",
			opStart: "Compute", probeAt: 190 * time.Millisecond, run: runKVPlanes},
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// bootCoreOn boots the replicated kernel with the given number of kernels on
// topo.
func bootCoreOn(topo hw.Topology, kernels int, seed int64) (*core.OS, error) {
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = kernels
	return core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: seed})
}

func bootCore(seed int64) (*core.OS, error) { return bootCoreOn(testbed, testbedKernels, seed) }

func bootSMP(seed int64) (*smp.OS, error) {
	return smp.Boot(smp.Config{Topology: testbed, Seed: seed, FramesPerNode: 1 << 18})
}

// finish folds an OS's end-of-run state into r.
func (r *rep) finish(o osi.OS) {
	r.Events += o.Engine().EventsProcessed()
	if o.Name() != "popcorn" {
		return
	}
	r.Counters = make(map[string]uint64, len(counterNames))
	reg := o.Metrics()
	for _, n := range counterNames {
		r.Counters[n] = reg.Counter(n).Value()
	}
}

// fromResult converts a workload-package run: those workloads panic on the
// first failed syscall, so a run either completes every op or fails whole.
func fromResult(res workload.Result, err error, want uint64) rep {
	r := rep{Ops: want, Attempted: want, Virt: res.Elapsed}
	if err != nil || res.Ops != want {
		r.Failed = want
	}
	return r
}

func runFutexShared(seed int64, s size, h hooks) (rep, error) {
	o, err := bootCore(seed)
	if err != nil {
		return rep{}, err
	}
	defer o.Close()
	spec := workload.FutexChainSpec{Threads: 64, Iters: s.pick(96, 2), CS: 2 * time.Microsecond, Shared: true}
	res, err := workload.FutexChain(h.wrap(o), spec)
	r := fromResult(res, err, uint64(spec.Threads*spec.Iters))
	r.finish(o)
	return r, err
}

func runMmapLocal(seed int64, s size, h hooks) (rep, error) {
	spec := workload.MmapStormSpec{Threads: 64, Iters: s.pick(1200, 3), Pages: 4}
	perOS := uint64(spec.Threads * spec.Iters)
	var r rep
	co, err := bootCore(seed)
	if err != nil {
		return rep{}, err
	}
	defer co.Close()
	res, err := workload.MmapStorm(h.wrap(co), spec)
	r = fromResult(res, err, perOS)
	r.finish(co)
	if err != nil {
		return r, err
	}
	so, err := bootSMP(seed)
	if err != nil {
		return r, err
	}
	defer so.Close()
	res, err = workload.MmapStorm(h.wrap(so), spec)
	sr := fromResult(res, err, perOS)
	r.Ops += sr.Ops
	r.Attempted += sr.Attempted
	r.Failed += sr.Failed
	r.finish(so)
	r.Counters["smp.virt_ns"] = uint64(res.Elapsed)
	return r, err
}

func runKVPlanes(seed int64, s size, h hooks) (rep, error) {
	o, err := bootCore(seed)
	if err != nil {
		return rep{}, err
	}
	defer o.Close()
	// Default configs and an empty plan: heartbeats, incarnation stamping,
	// credits and origin replication all run, nothing is injected.
	o.EnableFlow(msg.DefaultFlowConfig())
	o.EnableFailover()
	o.EnableFaults(&faultinj.Plan{Seed: seed}, msg.DefaultFaultConfig())
	spec := workload.KVStoreSpec{Shards: 32, Clients: 32, OpsPerClient: s.pick(5000, 12),
		PutRatioPct: 10, LocalityPct: 50, KeysPerShard: 2, Think: 2 * time.Microsecond, Seed: seed}
	// KVStore audits every shard's put counter itself and errors on a miss.
	res, err := workload.KVStore(h.wrap(o), spec)
	r := fromResult(res, err, uint64(spec.Clients*spec.OpsPerClient))
	r.finish(o)
	return r, err
}

// drive runs body as the driver proc of o's engine and drains the engine.
func drive(o osi.OS, body func(p *sim.Proc) error) error {
	var bodyErr error
	o.Engine().Spawn("popbench-driver", func(p *sim.Proc) { bodyErr = body(p) })
	if err := o.Engine().Run(); err != nil {
		return err
	}
	return bodyErr
}

// pageAddr returns the address of page i of a mapping.
func pageAddr(base mem.Addr, i int) mem.Addr { return base + mem.Addr(i*hw.PageSize) }

// runMigrateRing: one process, 32 threads; each thread hops to the next
// kernel of a seed-ordered ring, FetchAdds its 2 private pages and computes
// 2µs. Every hop checks KernelID and the values earlier hops left behind.
func runMigrateRing(seed int64, s size, h hooks) (rep, error) {
	return migrateRing(seed, s.pick(2000, 10), h)
}

func migrateRing(seed int64, hops int, h hooks) (rep, error) {
	const threads, pagesPer = 32, 2
	co, err := bootCore(seed)
	if err != nil {
		return rep{}, err
	}
	defer co.Close()
	o := h.wrap(co)
	ring := sim.NewRNG(seed).Perm(testbedKernels)
	next := make([]int, testbedKernels)
	for i, k := range ring {
		next[k] = ring[(i+1)%len(ring)]
	}
	r := rep{Ops: uint64(threads * hops), Attempted: uint64(threads * hops)}
	failed := make([]uint64, threads)
	err = drive(o, func(p *sim.Proc) error {
		pr, err := o.StartProcess(p)
		if err != nil {
			return err
		}
		var base mem.Addr
		runThread(p, pr, 0, func(th osi.Thread) { base = mmapRW(th, threads*pagesPer) })
		start := p.Now()
		for t := 0; t < threads; t++ {
			t := t
			if err := pr.Spawn(p, ring[t%testbedKernels], func(th osi.Thread) {
				mine := pageAddr(base, t*pagesPer)
				for i := 0; i < hops; i++ {
					dst := next[th.KernelID()]
					ok := th.Migrate(dst) == nil && th.KernelID() == dst
					for pg := 0; pg < pagesPer && ok; pg++ {
						// One write fault per page; the old value is what
						// the previous hops stored on other kernels, so it
						// proves the address space followed the thread.
						v, err := th.FetchAdd(pageAddr(mine, pg), 1)
						ok = err == nil && v == int64(i)
					}
					if !ok {
						failed[t]++
					}
					th.Compute(2 * time.Microsecond)
				}
			}); err != nil {
				return err
			}
		}
		pr.Wait(p)
		r.Virt = p.Now().Sub(start)
		return pr.Close(p)
	})
	for _, f := range failed {
		r.Failed += f
	}
	if err != nil {
		r.Failed = r.Attempted
	}
	r.finish(co)
	return r, err
}

// runPageBounce: one process, 32 threads over 8 kernels, 16 shared pages in
// a seed-chosen order; round r of thread i touches page (i+r) mod 16 with 3
// Loads to 1 FetchAdd and computes 500ns. The counters must sum to the
// FetchAdds issued.
func runPageBounce(seed int64, s size, h hooks) (rep, error) {
	return pageBounce(seed, s.pick(10000, 40), h)
}

func pageBounce(seed int64, rounds int, h hooks) (rep, error) {
	const threads, pages = 32, 16
	co, err := bootCore(seed)
	if err != nil {
		return rep{}, err
	}
	defer co.Close()
	o := h.wrap(co)
	order := sim.NewRNG(seed).Perm(pages)
	r := rep{Ops: uint64(threads * rounds), Attempted: uint64(threads * rounds)}
	failed := make([]uint64, threads)
	var adds, sum int64
	err = drive(o, func(p *sim.Proc) error {
		pr, err := o.StartProcess(p)
		if err != nil {
			return err
		}
		var base mem.Addr
		runThread(p, pr, 0, func(th osi.Thread) { base = mmapRW(th, pages) })
		start := p.Now()
		for t := 0; t < threads; t++ {
			t := t
			if err := pr.Spawn(p, t%testbedKernels, func(th osi.Thread) {
				for i := 0; i < rounds; i++ {
					a := pageAddr(base, order[(t+i)%pages])
					var err error
					if i%4 == 3 {
						_, err = th.FetchAdd(a, 1)
						adds++
					} else {
						_, err = th.Load(a)
					}
					if err != nil {
						failed[t]++
					}
					th.Compute(500 * time.Nanosecond)
				}
			}); err != nil {
				return err
			}
		}
		pr.Wait(p)
		r.Virt = p.Now().Sub(start)
		runThread(p, pr, 0, func(th osi.Thread) {
			for pg := 0; pg < pages; pg++ {
				v, err := th.Load(pageAddr(base, pg))
				must(err)
				sum += v
			}
		})
		return pr.Close(p)
	})
	for _, f := range failed {
		r.Failed += f
	}
	if err == nil && sum != adds {
		err = fmt.Errorf("page_bounce: counters sum to %d, %d FetchAdds issued", sum, adds)
	}
	if err != nil {
		r.Failed = r.Attempted
	}
	r.finish(co)
	return r, err
}

// suiteExperiments is bench.Experiments without T5, whose table holds host
// times and so can be neither pinned nor compared.
func suiteExperiments() []bench.Experiment {
	var out []bench.Experiment
	for _, e := range bench.Experiments() {
		if e.ID != "T5" {
			out = append(out, e)
		}
	}
	return out
}

func suiteScale(s size) bench.Scale {
	if s == toy {
		return bench.Quick
	}
	return bench.Full
}

// runSuite runs every experiment once; op = one table. The seed is unused:
// the experiments fix their own seeds, which is what makes their tables
// pinnable.
func runSuite(_ int64, s size, h hooks) (rep, error) {
	scale := suiteScale(s)
	exps := suiteExperiments()
	r := rep{Tables: make(map[string]string, len(exps)), TableMS: make(map[string]float64, len(exps))}
	var firstErr error
	for _, e := range exps {
		r.Ops++
		r.Attempted++
		t0 := time.Now()
		tab, err := e.Run(scale)
		r.TableMS[e.ID] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			r.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("suite %s: %w", e.ID, err)
			}
		} else {
			r.Tables[e.ID] = tab.String()
		}
		if h.between != nil {
			h.between(e.ID)
		}
	}
	return r, firstErr
}
