package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/multikernel"
	"repro/internal/osi"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// A rig is the smallest machine that reaches one layer: one simulated thread
// issues the op back to back and each batch becomes one span. The layers are
// only ever entered through their public functions; nothing inside them is
// instrumented.

// rigBatches is how many batches (spans) each rig records; a rig's value is
// the median over its batches, so a few preempted batches cannot move it.
// Batches are short (5-25 ms) and the sandbox's speed drifts by 10-20% over
// such spans, which is why there are this many.
const rigBatches = 9

// observerBatches is the same for the observer rigs, whose batches are two
// runs of a workload cut and so long enough already.
const observerBatches = 5

// batchSpan is the in-memory span of one rig batch.
type batchSpan struct {
	Name    string `json:"name"`
	HostNS  int64  `json:"host_ns"`
	Ops     uint64 `json:"ops"`
	Events  uint64 `json:"events"`
	Msgs    uint64 `json:"msgs"`
	Mallocs uint64 `json:"mallocs"`
}

// rigSet collects every batch span of a rig pass and the metric values
// derived from them.
type rigSet struct {
	Spans  []batchSpan
	Values map[string]float64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// batch times fn as one span of rig name. e and sent may be nil when the
// layer under test has no engine or fabric.
func (rs *rigSet) batch(name string, ops int, e sim.Engine, sent *stats.Counter, fn func()) {
	var ev0, sent0 uint64
	if e != nil {
		ev0 = e.EventsProcessed()
	}
	if sent != nil {
		sent0 = sent.Value()
	}
	m0 := mallocs()
	t0 := time.Now()
	fn()
	sp := batchSpan{Name: name, HostNS: time.Since(t0).Nanoseconds(), Ops: uint64(ops), Mallocs: mallocs() - m0}
	if e != nil {
		sp.Events = e.EventsProcessed() - ev0
	}
	if sent != nil {
		sp.Msgs = sent.Value() - sent0
	}
	rs.Spans = append(rs.Spans, sp)
}

// per returns the median over name's batches of field/ops.
func (rs *rigSet) per(name string, field func(batchSpan) float64) float64 {
	var xs []float64
	for _, sp := range rs.Spans {
		if sp.Name == name {
			xs = append(xs, field(sp)/float64(sp.Ops))
		}
	}
	return median(xs)
}

func hostNS(sp batchSpan) float64      { return float64(sp.HostNS) }
func spanEvents(sp batchSpan) float64  { return float64(sp.Events) }
func spanMsgs(sp batchSpan) float64    { return float64(sp.Msgs) }
func spanMallocs(sp batchSpan) float64 { return float64(sp.Mallocs) }

// rigTopology is a machine of k kernels with 8 cores each on 2 nodes, so
// kernel 0 and kernel k-1 always sit on different sockets.
func rigTopology(k int) hw.Topology { return hw.Topology{Cores: 8 * k, NUMANodes: 2} }

// coreRig boots a k-kernel replicated kernel, applies prep (plane
// attachment), and runs body as the driver proc with one process started.
func coreRig(k int, prep func(o *core.OS), body func(o *core.OS, p *sim.Proc, pr osi.Process)) error {
	o, err := bootCoreOn(rigTopology(k), k, 1)
	if err != nil {
		return err
	}
	defer o.Close()
	if prep != nil {
		prep(o)
	}
	return drive(o, func(p *sim.Proc) error {
		pr, err := o.StartProcessOn(p, 0)
		if err != nil {
			return err
		}
		body(o, p, pr)
		pr.Wait(p)
		return pr.Close(p)
	})
}

// must turns a set-up or rig syscall error inside a simulated thread into an
// engine failure: these run on healthy machines, so any error is a bug worth
// stopping on. (Measured workload ops count their failures instead.)
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runThread spawns fn on kernel k and blocks the driver until it returns.
func runThread(p *sim.Proc, pr osi.Process, k int, fn osi.ThreadFunc) {
	done := sim.NewWaitGroup()
	done.Add(1)
	must(pr.Spawn(p, k, func(th osi.Thread) {
		defer done.Done()
		fn(th)
	}))
	done.Wait(p)
}

func mmapRW(th osi.Thread, pages int) mem.Addr {
	a, err := th.Mmap(uint64(pages)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
	must(err)
	return a
}

// runRigs measures every rig and derives the *_self_ns and count metrics.
func runRigs() (*rigSet, error) {
	rs := &rigSet{Values: make(map[string]float64)}
	for _, group := range []func(*rigSet) error{simRigs, msgRigs, vmRigs, threadgroupRigs, futexRigs, osRigs, observerRigs, benchRigs} {
		if err := group(rs); err != nil {
			return rs, err
		}
	}
	v := rs.Values
	for _, m := range rigMetrics {
		if m.Unit == "ns" {
			v[m.Name] = rs.per(strings.TrimSuffix(m.Name, "_ns"), hostNS)
		}
	}
	v["sim.allocs_per_handoff"] = rs.per("sim.handoff", spanMallocs)
	v["msg.events_per_rpc"] = rs.per("msg.rpc", spanEvents)
	v["msg.allocs_per_rpc"] = rs.per("msg.rpc", spanMallocs)
	v["vm.events_per_remote_fault"] = rs.per("vm.fault_remote", spanEvents)
	v["vm.msgs_per_remote_fault"] = rs.per("vm.fault_remote", spanMsgs)
	v["vm.allocs_per_remote_fault"] = rs.per("vm.fault_remote", spanMallocs)
	v["threadgroup.events_per_migrate"] = rs.per("threadgroup.migrate", spanEvents)
	v["threadgroup.msgs_per_migrate"] = rs.per("threadgroup.migrate", spanMsgs)
	v["threadgroup.allocs_per_migrate"] = rs.per("threadgroup.migrate", spanMallocs)
	v["futex.events_per_remote_pair"] = rs.per("futex.remote_pair", spanEvents)
	v["futex.msgs_per_remote_pair"] = rs.per("futex.remote_pair", spanMsgs)

	// Self times, sim ⊂ msg ⊂ vm/threadgroup: an RPC's children are its
	// engine events, priced at the proc hand-off; a fault's or migration's
	// children are its RPCs (two messages each) plus the events outside them.
	handoff, rpc, evPerRPC := v["sim.handoff_ns"], v["msg.rpc_ns"], v["msg.events_per_rpc"]
	v["msg.rpc_self_ns"] = selfNS(rpc, child{evPerRPC, handoff})
	above := func(span, events, msgs float64) float64 {
		rpcs := msgs / 2
		return selfNS(span, child{rpcs, rpc}, child{events - rpcs*evPerRPC, handoff})
	}
	v["vm.fault_remote_self_ns"] = above(v["vm.fault_remote_ns"], v["vm.events_per_remote_fault"], v["vm.msgs_per_remote_fault"])
	v["threadgroup.migrate_self_ns"] = above(v["threadgroup.migrate_ns"], v["threadgroup.events_per_migrate"], v["threadgroup.msgs_per_migrate"])
	return rs, nil
}

func simRigs(rs *rigSet) error {
	e := sim.NewEngine(sim.WithSeed(1))
	defer e.Close()
	noop := func() {}

	// callback: Schedule+dispatch of a chained callback with 1024 other
	// timers live in the heap.
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Hour, noop)
	}
	const callbacks = 200000
	for b := 0; b < rigBatches; b++ {
		left := callbacks
		var step func()
		step = func() {
			if left--; left > 0 {
				e.Schedule(time.Nanosecond, step)
			}
		}
		var err error
		rs.batch("sim.callback", callbacks, e, nil, func() {
			e.Schedule(0, step)
			err = e.RunFor(callbacks * time.Nanosecond)
		})
		if err != nil {
			return err
		}
	}

	run := func(name string, ops int, setup func()) error {
		for b := 0; b < rigBatches; b++ {
			setup()
			var err error
			rs.batch(name, ops, e, nil, func() { err = e.RunFor(time.Minute) })
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	// handoff: 64 procs each sleeping; every sleep is one block/wake.
	const sleeps = 400
	if err := run("sim.handoff", 64*sleeps, func() {
		for i := 0; i < 64; i++ {
			e.Spawn("sleeper", func(p *sim.Proc) {
				for n := 0; n < sleeps; n++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
	}); err != nil {
		return err
	}
	const rtts = 10000
	if err := run("sim.chan_rtt", rtts, func() {
		ping, pong := sim.NewChan[int](e, 0), sim.NewChan[int](e, 0)
		e.Spawn("ping", func(p *sim.Proc) {
			for n := 0; n < rtts; n++ {
				ping.Send(p, n)
				pong.Recv(p)
			}
		})
		e.Spawn("pong", func(p *sim.Proc) {
			for n := 0; n < rtts; n++ {
				ping.Recv(p)
				pong.Send(p, n)
			}
		})
	}); err != nil {
		return err
	}
	const locks = 2000
	if err := run("sim.mutex_handoff", 8*locks, func() {
		mu := sim.NewMutex(e)
		for i := 0; i < 8; i++ {
			e.Spawn("contender", func(p *sim.Proc) {
				for n := 0; n < locks; n++ {
					mu.Lock(p)
					p.Sleep(100 * time.Nanosecond)
					mu.Unlock(p)
				}
			})
		}
	}); err != nil {
		return err
	}
	const spawns = 5000
	if err := run("sim.spawn", spawns, func() {
		for i := 0; i < spawns; i++ {
			e.Spawn("child", func(*sim.Proc) {})
		}
	}); err != nil {
		return err
	}
	const cancels = 50000
	return run("sim.timer_cancel", cancels, func() {
		for i := 0; i < cancels; i++ {
			e.AfterFunc(time.Millisecond, noop).Stop()
		}
	})
}

// msgRig builds the bare cross-socket fabric R2 uses, with nodes kernels,
// and runs body on one caller proc at node 0.
func msgRig(nodes int, prep func(f *msg.Fabric), body func(e sim.Engine, f *msg.Fabric, sent *stats.Counter, p *sim.Proc)) error {
	e := sim.NewEngine(sim.WithSeed(1))
	defer e.Close()
	topo := rigTopology(nodes)
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		return err
	}
	nodeCore := make([]int, nodes)
	for i := range nodeCore {
		nodeCore[i] = 8 * i
	}
	reg := stats.NewRegistry()
	f, err := msg.NewFabric(e, machine, nodes, nodeCore, msg.DefaultConfig(), reg)
	if err != nil {
		return err
	}
	if prep != nil {
		prep(f)
	}
	for n := 1; n < nodes; n++ {
		f.Endpoint(msg.NodeID(n)).Handle(msg.TypeUser, func(p *sim.Proc, m *msg.Message) *msg.Message {
			if m.Payload == nil {
				return nil // one-way
			}
			return &msg.Message{Size: 64}
		})
	}
	e.Spawn("caller", func(p *sim.Proc) { body(e, f, reg.Counter("msg.sent"), p) })
	return e.Run()
}

func msgRigs(rs *rigSet) error {
	const rpcs = 4000
	rpcRig := func(name string, size int, prep func(f *msg.Fabric)) error {
		return msgRig(2, prep, func(e sim.Engine, f *msg.Fabric, sent *stats.Counter, p *sim.Proc) {
			ep := f.Endpoint(0)
			for b := 0; b < rigBatches; b++ {
				rs.batch(name, rpcs, e, sent, func() {
					for i := 0; i < rpcs; i++ {
						_, err := ep.Call(p, &msg.Message{Type: msg.TypeUser, To: 1, Size: size, Payload: "rpc"})
						must(err)
					}
				})
			}
		})
	}
	flow := func(f *msg.Fabric) { f.EnableFlow(msg.DefaultFlowConfig()) }
	faults := func(f *msg.Fabric) {
		f.EnableFaults(&faultinj.Plan{Seed: 1}, msg.DefaultFaultConfig(), msg.FaultHooks{})
	}
	failover := func(f *msg.Fabric) { f.EnableFailover() }
	for _, r := range []struct {
		name string
		size int
		prep func(f *msg.Fabric)
	}{
		{"msg.rpc", 64, nil},
		{"msg.rpc_4k", 4096, nil},
		{"msg.rpc_flow", 64, flow},
		{"msg.rpc_faults", 64, faults},
		{"msg.rpc_failover", 64, failover},
		{"msg.rpc_allplanes", 64, func(f *msg.Fabric) { flow(f); failover(f); faults(f) }},
	} {
		if err := rpcRig(r.name, r.size, r.prep); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
	}
	// send: one-way; the batch ends when the sender has paid for every send
	// (the receiver drains concurrently, as it does under a workload).
	if err := msgRig(2, nil, func(e sim.Engine, f *msg.Fabric, sent *stats.Counter, p *sim.Proc) {
		ep := f.Endpoint(0)
		for b := 0; b < rigBatches; b++ {
			rs.batch("msg.send", rpcs, e, sent, func() {
				for i := 0; i < rpcs; i++ {
					ep.Send(p, &msg.Message{Type: msg.TypeUser, To: 1, Size: 64})
				}
			})
		}
	}); err != nil {
		return fmt.Errorf("msg.send: %w", err)
	}
	targets := []msg.NodeID{1, 2, 3, 4, 5, 6, 7}
	const fanouts = 1000
	if err := msgRig(8, nil, func(e sim.Engine, f *msg.Fabric, sent *stats.Counter, p *sim.Proc) {
		ep := f.Endpoint(0)
		for b := 0; b < rigBatches; b++ {
			rs.batch("msg.fanout7", fanouts, e, sent, func() {
				for i := 0; i < fanouts; i++ {
					_, err := ep.CallEach(p, targets, func(to msg.NodeID) *msg.Message {
						return &msg.Message{Type: msg.TypeUser, To: to, Size: 64, Payload: "rpc"}
					})
					must(err)
				}
			})
		}
	}); err != nil {
		return fmt.Errorf("msg.fanout7: %w", err)
	}
	return nil
}

func vmRigs(rs *rigSet) error {
	const pages = 1024
	sentOf := func(o *core.OS) *stats.Counter { return o.Metrics().Counter("msg.sent") }

	// hit, local zero-fill fault and mmap/munmap need one kernel's worth of
	// state only; 2 kernels is the smallest replicated machine.
	if err := coreRig(2, nil, func(o *core.OS, p *sim.Proc, pr osi.Process) {
		runThread(p, pr, 0, func(th osi.Thread) {
			e, sent := o.Engine(), sentOf(o)
			for b := 0; b < rigBatches; b++ {
				a := mmapRW(th, pages)
				rs.batch("vm.fault_local", pages, e, sent, func() {
					for i := 0; i < pages; i++ {
						must(th.Store(pageAddr(a, i), 1))
					}
				})
				rs.batch("vm.hit", 8*pages, e, sent, func() {
					for i := 0; i < 8*pages; i++ {
						_, err := th.Load(pageAddr(a, i%pages))
						must(err)
					}
				})
				must(th.Munmap(a, pages*hw.PageSize))
				rs.batch("vm.mmap_munmap", pages, e, sent, func() {
					for i := 0; i < pages; i++ {
						m := mmapRW(th, 1)
						must(th.Munmap(m, hw.PageSize))
					}
				})
			}
		})
	}); err != nil {
		return fmt.Errorf("vm local rigs: %w", err)
	}

	// remote read fault: kernel 0 owns the pages, a thread on kernel 1
	// reads each once.
	remote := func(name string, prep func(o *core.OS)) error {
		return coreRig(2, prep, func(o *core.OS, p *sim.Proc, pr osi.Process) {
			for b := 0; b < rigBatches; b++ {
				var a mem.Addr
				runThread(p, pr, 0, func(th osi.Thread) {
					a = mmapRW(th, pages)
					for i := 0; i < pages; i++ {
						must(th.Store(pageAddr(a, i), 1))
					}
				})
				runThread(p, pr, 1, func(th osi.Thread) {
					rs.batch(name, pages, o.Engine(), sentOf(o), func() {
						for i := 0; i < pages; i++ {
							_, err := th.Load(pageAddr(a, i))
							must(err)
						}
					})
				})
			}
		})
	}
	if err := remote("vm.fault_remote", nil); err != nil {
		return fmt.Errorf("vm.fault_remote: %w", err)
	}
	if err := remote("vm.fault_remote_repl", func(o *core.OS) { o.EnableFailover() }); err != nil {
		return fmt.Errorf("vm.fault_remote_repl: %w", err)
	}

	// write fault with 3 read sharers to invalidate.
	if err := coreRig(4, nil, func(o *core.OS, p *sim.Proc, pr osi.Process) {
		for b := 0; b < rigBatches; b++ {
			var a mem.Addr
			runThread(p, pr, 0, func(th osi.Thread) {
				a = mmapRW(th, pages)
				for i := 0; i < pages; i++ {
					must(th.Store(pageAddr(a, i), 1))
				}
			})
			for k := 1; k <= 3; k++ {
				runThread(p, pr, k, func(th osi.Thread) {
					for i := 0; i < pages; i++ {
						_, err := th.Load(pageAddr(a, i))
						must(err)
					}
				})
			}
			runThread(p, pr, 0, func(th osi.Thread) {
				rs.batch("vm.fault_inval3", pages, o.Engine(), sentOf(o), func() {
					for i := 0; i < pages; i++ {
						must(th.Store(pageAddr(a, i), 2))
					}
				})
			})
		}
	}); err != nil {
		return fmt.Errorf("vm.fault_inval3: %w", err)
	}

	// mprotect at the origin with replicas of the address space on the 7
	// other kernels, each kept alive by a parked thread.
	const protects = 500
	return coreRig(8, nil, func(o *core.OS, p *sim.Proc, pr osi.Process) {
		release := sim.NewWaitGroup()
		release.Add(1)
		for k := 1; k < 8; k++ {
			must(pr.Spawn(p, k, func(th osi.Thread) { release.Wait(th.Proc()) }))
		}
		runThread(p, pr, 0, func(th osi.Thread) {
			a := mmapRW(th, 1)
			for b := 0; b < rigBatches; b++ {
				rs.batch("vm.mprotect_push7", protects, o.Engine(), sentOf(o), func() {
					for i := 0; i < protects; i++ {
						prot := mem.ProtRead
						if i%2 == 1 {
							prot |= mem.ProtWrite
						}
						must(th.Mprotect(a, hw.PageSize, prot))
					}
				})
			}
		})
		release.Done()
	})
}

func threadgroupRigs(rs *rigSet) error {
	const hops = 1000
	if err := coreRig(2, nil, func(o *core.OS, p *sim.Proc, pr osi.Process) {
		e, sent := o.Engine(), o.Metrics().Counter("msg.sent")
		runThread(p, pr, 0, func(th osi.Thread) {
			// One round trip first, so both kernels hold a shadow to revive.
			must(th.Migrate(1))
			must(th.Migrate(0))
			for b := 0; b < rigBatches; b++ {
				rs.batch("threadgroup.migrate", hops, e, sent, func() {
					for i := 0; i < hops; i++ {
						must(th.Migrate(1 - th.KernelID()))
					}
				})
			}
			for b := 0; b < rigBatches; b++ {
				rs.batch("threadgroup.clone_local", hops, e, sent, func() {
					for i := 0; i < hops; i++ {
						must(th.Spawn(0, func(osi.Thread) {}))
					}
				})
				rs.batch("threadgroup.clone_remote", hops, e, sent, func() {
					for i := 0; i < hops; i++ {
						must(th.Spawn(1, func(osi.Thread) {}))
					}
				})
			}
		})
		rs.Values["threadgroup.migrate_virt_us"] = float64(o.Metrics().Histogram("tg.migrate.total").Mean().Nanoseconds()) / 1e3
	}); err != nil {
		return fmt.Errorf("threadgroup rigs: %w", err)
	}
	// cold migration: each hop lands on a kernel that has never seen the
	// group, so a fresh process walks kernels 0..7 once per batch.
	return coreRig(8, nil, func(o *core.OS, p *sim.Proc, _ osi.Process) {
		for b := 0; b < 3*rigBatches; b++ {
			pr, err := o.StartProcessOn(p, 0)
			must(err)
			runThread(p, pr, 0, func(th osi.Thread) {
				rs.batch("threadgroup.migrate_first", 7, o.Engine(), o.Metrics().Counter("msg.sent"), func() {
					for k := 1; k < 8; k++ {
						must(th.Migrate(k))
					}
				})
			})
			pr.Wait(p)
			must(pr.Close(p))
		}
	})
}

func futexRigs(rs *rigSet) error {
	const pairs = 1000
	// A pair is one FutexWait and the FutexWake that releases it. The waker
	// retries until the waiter is queued, as a real lock holder would find
	// an empty queue and move on; the retries are part of the pair's cost.
	pairRig := func(name string, waiterKernel int) error {
		return coreRig(2, nil, func(o *core.OS, p *sim.Proc, pr osi.Process) {
			var word mem.Addr
			runThread(p, pr, 0, func(th osi.Thread) {
				word = mmapRW(th, 1)
				must(th.Store(word, 0))
			})
			must(pr.Spawn(p, waiterKernel, func(th osi.Thread) {
				for i := 0; i < rigBatches*pairs; i++ {
					must(th.FutexWait(word, 0))
				}
			}))
			runThread(p, pr, 0, func(th osi.Thread) {
				for b := 0; b < rigBatches; b++ {
					rs.batch(name, pairs, o.Engine(), o.Metrics().Counter("msg.sent"), func() {
						for i := 0; i < pairs; i++ {
							for {
								n, err := th.FutexWake(word, 1)
								must(err)
								if n == 1 {
									break
								}
								th.Compute(200 * time.Nanosecond)
							}
						}
					})
				}
			})
		})
	}
	if err := pairRig("futex.local_pair", 0); err != nil {
		return fmt.Errorf("futex.local_pair: %w", err)
	}
	if err := pairRig("futex.remote_pair", 1); err != nil {
		return fmt.Errorf("futex.remote_pair: %w", err)
	}
	return nil
}

// osRigs covers sched, kernel boot, the core syscall veneer and the two
// baseline OSes.
func osRigs(rs *rigSet) error {
	// Two threads sharing one core: a 2-core, 2-kernel machine gives kernel
	// 0 a single core, so every Compute slice is contended.
	const slices = 2000
	o, err := bootCoreOn(hw.Topology{Cores: 2, NUMANodes: 2}, 2, 1)
	if err != nil {
		return err
	}
	err = drive(o, func(p *sim.Proc) error {
		pr, err := o.StartProcessOn(p, 0)
		if err != nil {
			return err
		}
		for b := 0; b < rigBatches; b++ {
			rs.batch("sched.compute", 2*slices, o.Engine(), nil, func() {
				for i := 0; i < 2; i++ {
					must(pr.Spawn(p, 0, func(th osi.Thread) {
						for n := 0; n < slices; n++ {
							th.Compute(10 * time.Microsecond)
						}
					}))
				}
				pr.Wait(p)
			})
		}
		return pr.Close(p)
	})
	o.Close()
	if err != nil {
		return fmt.Errorf("sched.compute: %w", err)
	}

	var boots []float64
	for b := 0; b < 2*rigBatches; b++ {
		t0 := time.Now()
		o, err := bootCore(1)
		if err != nil {
			return err
		}
		o.Close()
		boots = append(boots, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	rs.Values["kernel.boot8_ms"] = median(boots)

	const calls = 20000
	if err := coreRig(2, nil, func(o *core.OS, p *sim.Proc, pr osi.Process) {
		runThread(p, pr, 0, func(th osi.Thread) {
			word := mmapRW(th, 1)
			must(th.Store(word, 0))
			for b := 0; b < rigBatches; b++ {
				rs.batch("core.syscall", calls, o.Engine(), nil, func() {
					for i := 0; i < calls; i++ {
						_, err := th.FutexWake(word, 1)
						must(err)
					}
				})
			}
		})
	}); err != nil {
		return fmt.Errorf("core.syscall: %w", err)
	}

	so, err := bootSMP(1)
	if err != nil {
		return err
	}
	const maps, clones = 100, 2000
	err = drive(so, func(p *sim.Proc) error {
		pr, err := so.StartProcess(p)
		if err != nil {
			return err
		}
		for b := 0; b < rigBatches; b++ {
			rs.batch("smp.mmap_munmap", 64*maps, so.Engine(), nil, func() {
				for i := 0; i < 64; i++ {
					must(pr.Spawn(p, 0, func(th osi.Thread) {
						for n := 0; n < maps; n++ {
							must(th.Munmap(mmapRW(th, 1), hw.PageSize))
						}
					}))
				}
				pr.Wait(p)
			})
		}
		runThread(p, pr, 0, func(th osi.Thread) {
			for b := 0; b < rigBatches; b++ {
				rs.batch("smp.clone", clones, so.Engine(), nil, func() {
					for i := 0; i < clones; i++ {
						must(th.Spawn(0, func(osi.Thread) {}))
					}
				})
			}
		})
		pr.Wait(p)
		return pr.Close(p)
	})
	so.Close()
	if err != nil {
		return fmt.Errorf("smp rigs: %w", err)
	}

	spec := workload.MmapStormSpec{Threads: 8, Iters: 200, Pages: 4}
	for b := 0; b < rigBatches; b++ {
		mk, err := multikernel.Boot(multikernel.Config{Topology: testbed, Kernels: testbedKernels, FramesPerKernel: 1 << 16, Seed: 1})
		if err != nil {
			return err
		}
		rs.batch("multikernel.memstorm", spec.Threads*spec.Iters, mk.Engine(), mk.Metrics().Counter("msg.sent"), func() {
			_, err = workload.MKMemStorm(mk, spec)
		})
		mk.Close()
		if err != nil {
			return fmt.Errorf("multikernel.memstorm: %w", err)
		}
	}
	return nil
}

// The observer rigs run a fixed cut of the workload each observer is meant
// for, twice per batch. The sanitizer's cut is tiny on purpose: the checker's
// cost grows faster than linearly with run length (110 ms at 10 rounds, 3.3 s
// at 80 on the reference host), so its overhead only compares at one size.
const (
	tracedHops      = 250
	sanitizedRounds = 20
)

// observerRigs prices attaching the tracer and the sanitizer as the wall
// clock ratio of a small fixed cut of the workload each is meant for.
func observerRigs(rs *rigSet) error {
	overhead := func(attach func(o *core.OS), run func(h hooks) (rep, error)) (float64, error) {
		attached := hooks{booted: func(o osi.OS) osi.OS {
			attach(o.(*core.OS))
			return o
		}}
		var pcts []float64
		for b := 0; b < observerBatches; b++ {
			var wall [2]float64
			for i, h := range []hooks{{}, attached} {
				t0 := time.Now()
				if _, err := run(h); err != nil {
					return 0, err
				}
				wall[i] = time.Since(t0).Seconds()
			}
			pcts = append(pcts, 100*(wall[1]/wall[0]-1))
		}
		return median(pcts), nil
	}
	var err error
	rs.Values["trace.attach_overhead_pct"], err = overhead(
		func(o *core.OS) { o.AttachTracer() },
		func(h hooks) (rep, error) { return migrateRing(1, tracedHops, h) })
	if err != nil {
		return fmt.Errorf("trace.attach_overhead: %w", err)
	}
	rs.Values["sanitize.attach_overhead_pct"], err = overhead(
		func(o *core.OS) { o.AttachSanitizer(sanitize.Config{}) },
		func(h hooks) (rep, error) { return pageBounce(1, sanitizedRounds, h) })
	if err != nil {
		return fmt.Errorf("sanitize.attach_overhead: %w", err)
	}
	const observes = 1 << 20
	h := stats.NewRegistry().Histogram("rig")
	for b := 0; b < rigBatches; b++ {
		rs.batch("stats.observe", observes, nil, nil, func() {
			for i := 0; i < observes; i++ {
				h.Observe(time.Duration(i))
			}
		})
	}
	return nil
}

// benchRigs times the six heaviest experiments (median of 5) and counts the
// suite tables whose bytes differ from pins.json. Changed tables are
// reported, not failed: a model PR moves them on purpose and re-pins.
func benchRigs(rs *rigSet) error {
	r, err := runSuite(0, full, hooks{})
	if err != nil {
		return err
	}
	rs.Values["bench.tables_changed"] = float64(len(pinned.changedTables(r.Tables)))
	for _, id := range []string{"F5b", "F7", "F6", "R3", "F4b", "F4"} {
		e, _ := bench.Find(id)
		ms := []float64{r.TableMS[id]}
		for len(ms) < 5 {
			t0 := time.Now()
			if _, err := e.Run(bench.Full); err != nil {
				return fmt.Errorf("bench %s: %w", id, err)
			}
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		rs.Values["bench."+id+"_ms"] = median(ms)
	}
	return nil
}
