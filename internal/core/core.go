// Package core is the replicated-kernel OS itself: the paper's Popcorn
// Linux analogue. It boots a cluster of kernel instances (internal/kernel)
// on the simulated machine and layers the single-system image on top —
// processes whose threads run on any kernel, created remotely, migrated
// between kernels at runtime, sharing one consistent address space — while
// exposing the ordinary osi syscall surface, indistinguishable from the
// SMP baseline's.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/threadgroup"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Config configures a replicated-kernel boot.
type Config struct {
	// Topology describes the machine; zero value defaults to 64 cores on
	// 2 NUMA nodes (the paper's testbed class).
	Topology hw.Topology
	// Cost overrides the hardware cost model (nil = defaults).
	Cost *hw.CostModel
	// Cluster overrides the kernel cluster configuration (nil = one
	// kernel per NUMA node).
	Cluster *kernel.ClusterConfig
	// Seed seeds the deterministic simulation.
	Seed int64
	// TieShuffle randomises the order of same-instant events from the
	// seed, so different seeds explore different legal schedules.
	TieShuffle bool
}

// OS is a booted replicated-kernel operating system.
type OS struct {
	e       sim.Engine
	machine *hw.Machine
	cluster *kernel.Cluster
	// metrics is the machine-wide registry every kernel's services count
	// into.
	metrics *stats.Registry
	// rr is the round-robin cursor for automatic thread placement.
	rr int
	// live tracks every running Thread by task ID so the fault plane can
	// halt the ones hosted by a crashing kernel.
	live map[task.ID]*Thread
	// restartable maps recoverable threads to their re-execution entry; the
	// thread-group restart hook consults it after a hosting-kernel crash.
	restartable map[task.ID]restartEntry
}

// restartEntry is what checkpointed restart needs to re-execute a thread:
// its process and its function.
type restartEntry struct {
	pr *Process
	fn osi.ThreadFunc
}

var _ osi.OS = (*OS)(nil)

// Boot creates the simulation engine, the machine and the kernel cluster.
func Boot(cfg Config) (*OS, error) {
	topo := cfg.Topology
	if topo.Cores == 0 {
		topo = hw.Topology{Cores: 64, NUMANodes: 2}
	}
	cost := hw.DefaultCostModel()
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	machine, err := hw.NewMachine(topo, cost)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	opts := []sim.Option{sim.WithSeed(seed)}
	if cfg.TieShuffle {
		opts = append(opts, sim.WithTieShuffle())
	}
	e := sim.NewEngine(opts...)
	clusterCfg := kernel.DefaultClusterConfig(machine)
	if cfg.Cluster != nil {
		clusterCfg = *cfg.Cluster
	}
	metrics := stats.NewRegistry()
	cluster, err := kernel.Boot(e, machine, clusterCfg, metrics)
	if err != nil {
		e.Close()
		return nil, err
	}
	return &OS{e: e, machine: machine, cluster: cluster, metrics: metrics, live: make(map[task.ID]*Thread), restartable: make(map[task.ID]restartEntry)}, nil
}

// Name implements osi.OS.
func (o *OS) Name() string { return "popcorn" }

// Engine implements osi.OS.
func (o *OS) Engine() sim.Engine { return o.e }

// Machine implements osi.OS.
func (o *OS) Machine() *hw.Machine { return o.machine }

// Kernels implements osi.OS.
func (o *OS) Kernels() int { return len(o.cluster.Kernels) }

// Metrics implements osi.OS.
func (o *OS) Metrics() *stats.Registry { return o.metrics }

// Kernel returns the k-th kernel instance (for white-box benchmarks).
//
//popcornvet:allow kernlocal white-box accessor for benchmarks and tests only; never on an event path
func (o *OS) Kernel(k int) *kernel.Kernel { return o.cluster.Kernels[k] }

// Fabric returns the inter-kernel message fabric, so model checkers and
// benchmarks can drive raw transport load alongside the OS workload.
func (o *OS) Fabric() *msg.Fabric { return o.cluster.Fabric }

// AttachTracer attaches a causal span collector to the inter-kernel fabric
// and returns it. Every protocol layer reads the collector through the
// fabric, so this single attachment covers wire legs, RPC rounds, message
// handlers, VM faults and directory transactions, thread-group migration
// phases, futex protocol rounds, and core.Migrate roots. Attach before
// running workloads; detached runs pay one nil check per potential span,
// and attached runs record only virtual timestamps the simulation already
// produced — the simulated numbers are identical either way.
func (o *OS) AttachTracer() *trace.Collector {
	c := trace.NewCollector()
	o.cluster.Fabric.SetCollector(c)
	return c
}

// Tracer returns the span collector attached with AttachTracer (nil when
// tracing is detached).
func (o *OS) Tracer() *trace.Collector { return o.cluster.Fabric.Collector() }

// AttachSanitizer wires a coherence sanitizer and race detector into every
// layer of the OS: the engine (proc lifecycle and lock edges), the fabric
// (message happens-before edges) and each kernel's VM, futex and
// thread-group services. Attach before running workloads; detached runs pay
// nothing.
func (o *OS) AttachSanitizer(cfg sanitize.Config) *sanitize.Checker {
	c := sanitize.New(o.e, cfg)
	o.e.SetProcObserver(c)
	o.cluster.Fabric.SetObserver(c)
	for _, kn := range o.cluster.Kernels {
		kn.VM.AttachChecker(c)
		kn.Futex.AttachChecker(c)
		kn.TG.AttachChecker(c)
	}
	return c
}

// EnableFlow attaches the fabric's overload plane — per-link sender
// credits, the priority control lane, per-peer circuit breakers, retry
// budgets, and the gray-failure detector (DESIGN.md §13). Call after boot,
// before the workload runs. Overload then surfaces to syscalls as
// msg.BackpressureError (or sender-side blocking for fire-and-forget
// sends) instead of unbounded queue growth; a detached OS behaves exactly
// as before.
func (o *OS) EnableFlow(cfg msg.FlowConfig) {
	o.cluster.Fabric.EnableFlow(cfg)
}

// EnableFailover attaches the origin-failover plane (DESIGN.md §14): the
// fabric's origin-epoch/holder tables and stale-origin fence, synchronous
// replication of every kernel's page-directory and group-metadata mutations
// to its ring successor, and promotion of the mirrored state when the
// failure detector declares an origin dead. Call after boot, before the
// workload runs; pair with EnableFaults for the detector that triggers
// promotions. A detached OS behaves exactly as before.
func (o *OS) EnableFailover() { o.cluster.Fabric.EnableFailover() }

// EnableFaults attaches a fault plan to the inter-kernel fabric and wires
// the OS-level degradation and recovery hooks: a crashing kernel halts every
// thread it hosts (marked lost; their group accounting completes via the
// survivors' reaping, or — for recoverable threads — via checkpointed
// restart at the origin), a healing kernel resets its services to boot
// state before the fabric's rejoin handshake runs, and each surviving
// kernel's declared-dead verdict drives its VM, futex and thread-group
// services' degradation. Call after boot, before the workload runs. A nil
// plan changes nothing.
//
//popcornvet:allow kernlocal the reboot and peer-death hooks act on the kernel the fabric names: the harness standing in for that machine's firmware and failure detector, not one kernel reaching into another
func (o *OS) EnableFaults(plan *faultinj.Plan, cfg msg.FaultConfig) {
	if plan != nil {
		for _, kn := range o.cluster.Kernels {
			kn.TG.SetRestartHook(o.restartHookFor(kn))
		}
	}
	o.cluster.Fabric.EnableFaults(plan, cfg, msg.FaultHooks{
		NodeCrashed: func(n msg.NodeID) {
			ids := make([]task.ID, 0, len(o.live))
			for id, th := range o.live {
				if th.k.Node == n {
					ids = append(ids, id)
				}
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				th := o.live[id]
				th.task.State = task.StateLost
				o.metrics.Counter("core.threads.lost").Inc()
				th.p.Kill()
			}
		},
		NodeRebooted: func(n msg.NodeID) {
			// The kernel boots from scratch: all pre-crash service state is
			// gone (the fabric's incarnation fencing keeps zombie messages
			// from resurrecting any of it). VM before TG is irrelevant here —
			// everything is dropped wholesale — but the locks must be rebuilt
			// because a thread killed mid-critical-section never unlocked.
			k := o.cluster.Kernels[n]
			k.VM.Reboot()
			k.Futex.Reboot()
			k.TG.Reboot()
			k.Frames.Reset()
			k.Sched.Reset()
		},
		PeerDead: func(p *sim.Proc, observer, dead msg.NodeID) {
			// VM first: the directory reclaim is a bounded local+fan-out pass,
			// so restarted threads (spawned from TG's sweep below) fault
			// against an already-reclaimed directory instead of racing it.
			k := o.cluster.Kernels[observer]
			k.VM.PeerDied(p, dead)
			k.Futex.PeerDied(p, dead)
			k.TG.PeerDied(p, dead)
		},
	})
}

// restartHookFor builds kn's checkpointed-restart hook: re-execute a
// recovered task's registered function on kn. The task keeps StateRecovered
// while the re-execution runs and leaves through the ordinary exit path.
func (o *OS) restartHookFor(kn *kernel.Kernel) threadgroup.RestartHook {
	return func(p *sim.Proc, tk *task.Task) bool {
		ent, ok := o.restartable[tk.ID]
		if !ok {
			return false
		}
		o.metrics.Counter("core.threads.recovered").Inc()
		pr := ent.pr
		pr.wg.Add(1)
		o.e.Spawn(fmt.Sprintf("thread-%d-r", tk.ID), func(tp *sim.Proc) {
			defer pr.wg.Done()
			th := &Thread{pr: pr, p: tp, task: tk, k: kn}
			o.live[tk.ID] = th
			defer func() {
				// Only remove our own entry: a superseded incarnation dying
				// late must not deregister the copy that replaced it.
				if o.live[tk.ID] == th {
					delete(o.live, tk.ID)
				}
			}()
			th.core = th.k.Sched.Acquire(tp)
			ent.fn(th)
			th.exit()
		})
		return true
	}
}

// LiveThreads returns how many threads are currently executing. Zero after
// the simulation quiesces means every thread reached a terminal state.
func (o *OS) LiveThreads() int { return len(o.live) }

// Close shuts the simulation down, unwinding all service processes.
func (o *OS) Close() { o.e.Close() }

// pickKernel resolves a placement hint to a kernel index: AnyKernel cycles
// through the kernels round-robin (cheap and deterministic, what the
// prototype's userspace launcher did).
func (o *OS) pickKernel(hint int) (int, error) {
	if hint == osi.AnyKernel {
		k := o.rr % len(o.cluster.Kernels)
		o.rr++
		return k, nil
	}
	if hint < 0 || hint >= len(o.cluster.Kernels) {
		return 0, fmt.Errorf("core: kernel %d out of range [0,%d)", hint, len(o.cluster.Kernels))
	}
	return hint, nil
}

// Process is a distributed thread group with SSI semantics.
type Process struct {
	os     *OS
	gid    vm.GID
	origin msg.NodeID
	main   *task.Task
	wg     *sim.WaitGroup
	closed bool
}

var _ osi.Process = (*Process)(nil)

// StartProcess implements osi.OS: it creates the thread group and its
// address space at the least-loaded kernel (round robin).
func (o *OS) StartProcess(p *sim.Proc) (osi.Process, error) {
	k, _ := o.pickKernel(osi.AnyKernel)
	return o.StartProcessOn(p, k)
}

// StartProcessOn creates the process with its origin on a specific kernel.
// The syscall trap executes in the calling thread's context and enters the
// chosen kernel's threadgroup service directly — the simulated equivalent
// of trapping into the kernel you run on.
//
//popcornvet:allow kernlocal syscall trap into the origin kernel the calling thread runs on; local by construction
func (o *OS) StartProcessOn(p *sim.Proc, k int) (*Process, error) {
	if k < 0 || k >= len(o.cluster.Kernels) {
		return nil, fmt.Errorf("core: kernel %d out of range", k)
	}
	p.Sleep(o.machine.Cost.SyscallTrap)
	gid, main, err := o.cluster.Kernels[k].TG.CreateGroup(p)
	if err != nil {
		return nil, err
	}
	return &Process{os: o, gid: gid, origin: msg.NodeID(k), main: main, wg: sim.NewWaitGroup()}, nil
}

// GID returns the process's group ID.
func (pr *Process) GID() vm.GID { return pr.gid }

// Origin returns the kernel hosting the group origin.
func (pr *Process) Origin() int { return int(pr.origin) }

// Spawn implements osi.Process.
func (pr *Process) Spawn(p *sim.Proc, kernelHint int, fn osi.ThreadFunc) error {
	return pr.spawnThread(p, kernelHint, fn, false)
}

// SpawnRecoverable is Spawn plus checkpointed-restart registration: the
// group origin retains the thread's last migration payload, and if the
// kernel hosting the thread later crashes, the origin restarts fn from that
// checkpoint (the task in StateRecovered) instead of reaping the member as
// lost. fn therefore re-runs from its last migration boundary — it must
// tolerate partial re-execution of the work since then. Restart is
// at-most-once per thread, and only while the origin kernel survives.
func (pr *Process) SpawnRecoverable(p *sim.Proc, kernelHint int, fn osi.ThreadFunc) error {
	return pr.spawnThread(p, kernelHint, fn, true)
}

// spawnThread issues the clone from the origin kernel's services; remote
// placement runs the distributed creation protocol over msg from there. The
// direct Kernels[...] dereferences resolve the origin (the caller's own
// kernel) and mirror the recoverable flag onto the hosting kernel's task
// struct — a teleport, made by an untagged workload thread proc in the
// same event as the creation protocol's last step.
//
//popcornvet:allow kernlocal origin-side syscall trap; the flag mirror is a teleport written in the same event as the creation protocol's last step
func (pr *Process) spawnThread(p *sim.Proc, kernelHint int, fn osi.ThreadFunc, recoverable bool) error {
	k, err := pr.os.pickKernel(kernelHint)
	if err != nil {
		return err
	}
	p.Sleep(pr.os.machine.Cost.SyscallTrap)
	// The clone is issued from the origin kernel's services (the caller's
	// context); remote placement runs the distributed creation protocol.
	tk, err := pr.os.cluster.Kernels[pr.origin].TG.Spawn(p, pr.gid, msg.NodeID(k))
	if err != nil {
		return err
	}
	if recoverable {
		tk.Recoverable = true
		// For a remote clone the hosting kernel holds its own task struct;
		// mark it too so the flag rides the thread's future migrations.
		if ht, ok := pr.os.cluster.Kernels[tk.Kernel].TG.Task(pr.gid, tk.ID); ok {
			ht.Recoverable = true
		}
		if err := pr.os.cluster.Kernels[pr.origin].TG.SetRecoverable(p, pr.gid, tk.ID); err != nil {
			return err
		}
		pr.os.restartable[tk.ID] = restartEntry{pr: pr, fn: fn}
	}
	pr.runThread(tk, fn)
	return nil
}

// runThread starts the simulation proc that executes fn as thread tk. The
// cluster-table lookup binds the new Thread to the kernel hosting it — the
// thread's own kernel, not a foreign one.
//
//popcornvet:allow kernlocal resolves the thread's own hosting kernel; the binding Migrate later rebinds
func (pr *Process) runThread(tk *task.Task, fn osi.ThreadFunc) {
	pr.wg.Add(1)
	pr.os.e.Spawn(fmt.Sprintf("thread-%d", tk.ID), func(tp *sim.Proc) {
		defer pr.wg.Done()
		th := &Thread{pr: pr, p: tp, task: tk, k: pr.os.cluster.Kernels[tk.Kernel]}
		pr.os.live[tk.ID] = th
		defer func() {
			// Only remove our own entry: a superseded incarnation dying late
			// must not deregister the restarted copy that replaced it.
			if pr.os.live[tk.ID] == th {
				delete(pr.os.live, tk.ID)
			}
		}()
		th.core = th.k.Sched.Acquire(tp)
		tk.State = task.StateRunning
		fn(th)
		th.exit()
	})
}

// Wait implements osi.Process.
func (pr *Process) Wait(p *sim.Proc) { pr.wg.Wait(p) }

// Join blocks until every thread of the process other than the main thread
// has left the group — by exiting, by being reaped as lost, or by a
// checkpointed restart running to completion. Unlike Wait, which tracks
// simulation procs and so returns as soon as a crashed thread's proc
// unwinds, Join tracks the origin's member table and waits out pending
// restarts of lost threads.
//
//popcornvet:allow kernlocal joins on the process's own origin kernel, where the caller's group state lives
func (pr *Process) Join(p *sim.Proc) error {
	return pr.os.cluster.Kernels[pr.originKernel()].TG.WaitMembers(p, pr.gid, 1)
}

// originKernel resolves the kernel currently serving this process's origin
// role: the boot-time origin until a failover promotes its successor. A
// Join or Close issued after a promotion lands at the promoted holder; one
// already blocked inside the dead kernel's service when the crash fired is
// a documented limitation of the failover model (DESIGN.md §14).
func (pr *Process) originKernel() msg.NodeID {
	return pr.os.cluster.Fabric.OriginHolder(pr.origin)
}

// Close implements osi.Process: the main thread exits, tearing down the
// distributed group on every kernel. The exit enters the origin kernel's
// threadgroup service; the cross-kernel teardown itself travels over msg.
//
//popcornvet:allow kernlocal exits through the process's own origin kernel; remote teardown goes over msg
func (pr *Process) Close(p *sim.Proc) error {
	if pr.closed {
		return nil
	}
	pr.closed = true
	return pr.os.cluster.Kernels[pr.originKernel()].TG.Exit(p, pr.gid, pr.main.ID)
}

// Thread is a running thread under the single-system image. Its syscall
// surface always routes to the kernel currently hosting it; Migrate
// switches that binding via the paper's migration protocol.
type Thread struct {
	pr   *Process
	p    *sim.Proc
	task *task.Task
	k    *kernel.Kernel
	core int
}

var _ osi.Thread = (*Thread)(nil)

// Proc implements osi.Thread.
func (t *Thread) Proc() *sim.Proc { return t.p }

// ID implements osi.Thread.
func (t *Thread) ID() int64 { return int64(t.task.ID) }

// KernelID implements osi.Thread.
func (t *Thread) KernelID() int { return int(t.k.Node) }

// Core implements osi.Thread.
func (t *Thread) Core() int { return t.core }

// Migrations returns how many times this thread has moved between kernels.
func (t *Thread) Migrations() int { return t.task.Migrations }

// Compute implements osi.Thread. Under a fault plan it first gives the
// thread a chance to evacuate a kernel whose link to the group origin has
// turned suspicious; fault-free runs skip the check.
func (t *Thread) Compute(d time.Duration) {
	if t.pr.os.cluster.Fabric.FaultsEnabled() {
		t.maybeEvacuate()
	}
	t.core = t.k.Sched.Run(t.p, d)
}

// maybeEvacuate proactively migrates the thread off a kernel whose local
// failure detector suspects the group origin (silence past half the
// declare-dead threshold, verdict not yet reached). The danger of staying
// put is the symmetric view: if this kernel cannot hear the origin, the
// origin likely cannot hear this kernel, and once the origin declares it
// dead it reaps — or restarts — the member while it is still running here.
// Moving to a kernel the detector does not suspect re-registers the
// thread's location with the origin through a healthy path. Best-effort: a
// failed migration just resumes here and the crash path cleans up as usual.
// The endpoint fetched is the hosting kernel's own (t.k.Node — local, not a
// peer's), and the candidate scan reads only failure-detector verdicts,
// which are advisory: a stale read costs one wasted migration attempt.
//
//popcornvet:allow kernlocal reads own kernel's endpoint and advisory suspicion verdicts; staleness is benign
func (t *Thread) maybeEvacuate() {
	if t.k.Node == t.pr.origin {
		return
	}
	ep := t.pr.os.cluster.Fabric.Endpoint(t.k.Node)
	if !ep.Suspects(t.pr.origin) {
		return
	}
	for k := range t.pr.os.cluster.Kernels {
		dst := msg.NodeID(k)
		if dst == t.k.Node || ep.Suspects(dst) || t.pr.os.cluster.Fabric.Crashed(dst) {
			continue
		}
		if ep.PeerHealth(dst) == msg.PeerSlow {
			// The gray detector marked the link to this candidate sick:
			// shipping a thread context over it trades one suspect link for
			// another. Prefer a peer the detector considers healthy.
			t.pr.os.metrics.Counter("core.evacuate.slowskip").Inc()
			continue
		}
		if err := t.Migrate(k); err == nil {
			t.pr.os.metrics.Counter("core.threads.evacuated").Inc()
		}
		return
	}
}

// space returns the thread's current kernel's view of the address space.
func (t *Thread) space() (*vm.Space, error) {
	sp, ok := t.k.VM.Space(t.pr.gid)
	if !ok {
		return nil, fmt.Errorf("core: kernel %d lost the space for group %d", t.k.Node, t.pr.gid)
	}
	return sp, nil
}

// Mmap implements osi.Thread.
func (t *Thread) Mmap(length uint64, prot mem.Prot) (mem.Addr, error) {
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	sp, err := t.space()
	if err != nil {
		return 0, err
	}
	return sp.Map(t.p, length, prot)
}

// Sbrk implements osi.Thread.
func (t *Thread) Sbrk(delta int64) (mem.Addr, error) {
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	sp, err := t.space()
	if err != nil {
		return 0, err
	}
	return sp.Sbrk(t.p, delta)
}

// Munmap implements osi.Thread.
func (t *Thread) Munmap(addr mem.Addr, length uint64) error {
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	sp, err := t.space()
	if err != nil {
		return err
	}
	return sp.Unmap(t.p, addr, length)
}

// Mprotect implements osi.Thread.
func (t *Thread) Mprotect(addr mem.Addr, length uint64, prot mem.Prot) error {
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	sp, err := t.space()
	if err != nil {
		return err
	}
	return sp.Protect(t.p, addr, length, prot)
}

// Load implements osi.Thread.
func (t *Thread) Load(addr mem.Addr) (int64, error) {
	sp, err := t.space()
	if err != nil {
		return 0, err
	}
	return sp.Load(t.p, t.core, addr)
}

// Store implements osi.Thread.
func (t *Thread) Store(addr mem.Addr, val int64) error {
	sp, err := t.space()
	if err != nil {
		return err
	}
	return sp.Store(t.p, t.core, addr, val)
}

// CompareAndSwap implements osi.Thread.
func (t *Thread) CompareAndSwap(addr mem.Addr, old, new int64) (bool, error) {
	sp, err := t.space()
	if err != nil {
		return false, err
	}
	return sp.CompareAndSwap(t.p, t.core, addr, old, new)
}

// FetchAdd implements osi.Thread.
func (t *Thread) FetchAdd(addr mem.Addr, delta int64) (int64, error) {
	sp, err := t.space()
	if err != nil {
		return 0, err
	}
	return sp.FetchAdd(t.p, t.core, addr, delta)
}

// FutexWait implements osi.Thread. The thread yields its core while asleep.
func (t *Thread) FutexWait(addr mem.Addr, expect int64) error {
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	t.k.Sched.Release(t.p)
	err := t.k.Futex.Wait(t.p, t.pr.gid, addr, expect)
	t.core = t.k.Sched.Acquire(t.p)
	return err
}

// FutexWake implements osi.Thread.
func (t *Thread) FutexWake(addr mem.Addr, count int) (int, error) {
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	return t.k.Futex.Wake(t.p, t.pr.gid, addr, count)
}

// FutexRequeue implements osi.Thread.
func (t *Thread) FutexRequeue(from, to mem.Addr, expect int64, wake, requeue int) (int, int, error) {
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	return t.k.Futex.Requeue(t.p, t.pr.gid, from, to, expect, wake, requeue)
}

// Spawn implements osi.Thread: clone a sibling from this thread's kernel.
func (t *Thread) Spawn(kernelHint int, fn osi.ThreadFunc) error {
	k, err := t.pr.os.pickKernel(kernelHint)
	if err != nil {
		return err
	}
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	tk, err := t.k.TG.Spawn(t.p, t.pr.gid, msg.NodeID(k))
	if err != nil {
		return err
	}
	t.pr.runThread(tk, fn)
	return nil
}

// Migrate implements osi.Thread: the paper's thread context migration. The
// thread leaves its current core, ships its context to the destination
// kernel (over msg, inside TG.Migrate), and resumes there inside a dummy
// (or revived shadow) task. The cluster-table lookup afterwards rebinds
// t.k to the kernel the thread now runs on — its new local kernel.
//
//popcornvet:allow kernlocal rebinds the thread to its new hosting kernel after the msg-based migration protocol
func (t *Thread) Migrate(kernelHint int) error {
	if kernelHint == osi.AnyKernel {
		return fmt.Errorf("core: Migrate needs an explicit destination kernel")
	}
	if kernelHint < 0 || kernelHint >= len(t.pr.os.cluster.Kernels) {
		return fmt.Errorf("core: kernel %d out of range", kernelHint)
	}
	dst := msg.NodeID(kernelHint)
	if dst == t.k.Node {
		return nil
	}
	// core.migrate is the operation root for a thread migration: it covers
	// the syscall trap, releasing the source core, the full thread-group
	// protocol (checkpoint → transfer → install → registration), and
	// re-acquiring a core at the destination. Every protocol span below
	// nests under it.
	migScope := t.pr.os.Tracer().Begin(t.p, "core.migrate", int(t.k.Node))
	defer migScope.End()
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	t.k.Sched.Release(t.p)
	moved, err := t.k.TG.Migrate(t.p, t.pr.gid, t.task.ID, dst)
	if err != nil {
		if errors.Is(err, threadgroup.ErrSuperseded) {
			// The migration's fate was ambiguous and the origin resolved it
			// against us: another incarnation of this thread (a checkpointed
			// restart, or the import that did land) owns the identity now.
			// This copy must die rather than resume and fork the thread.
			t.task.State = task.StateLost
			t.pr.os.metrics.Counter("core.threads.lost").Inc()
			t.p.Kill()
		}
		if msg.IsBackpressure(err) {
			// Overload, not failure: the fabric refused to ship the context
			// while the destination link is saturated or its breaker is
			// open. The thread stays put with its state intact; the caller
			// may retry once the gray detector clears the link.
			t.pr.os.metrics.Counter("core.migrate.backpressure").Inc()
		}
		// Failed migrations resume on the source kernel.
		t.core = t.k.Sched.Acquire(t.p)
		return err
	}
	t.task = moved
	t.k = t.pr.os.cluster.Kernels[dst]
	if t.pr.os.cluster.Fabric.Crashed(dst) {
		// The acceptance ack raced the destination's death: the context
		// landed on a kernel that no longer exists, so the thread is lost
		// with it. The crash-time registry sweep missed it because it was
		// still in flight (t.k pointed at the source).
		t.task.State = task.StateLost
		t.pr.os.metrics.Counter("core.threads.lost").Inc()
		t.p.Kill()
	}
	t.core = t.k.Sched.Acquire(t.p)
	t.task.State = task.StateRunning
	return nil
}

// Prefetch batches read grants for [addr, addr+pages*PageSize) into one
// origin round trip (madvise(WILLNEED) for the distributed address
// space). Advisory; returns how many pages were installed.
func (t *Thread) Prefetch(addr mem.Addr, pages int) (int, error) {
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	sp, err := t.space()
	if err != nil {
		return 0, err
	}
	return sp.Prefetch(t.p, t.core, addr, pages)
}

// Kill implements osi.Thread: the distributed signal path — routed via
// shadows and the origin's member table to wherever the target runs.
func (t *Thread) Kill(tid int64, sig int) error {
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	return t.k.TG.Signal(t.p, t.pr.gid, task.ID(tid), sig)
}

// SigWait implements osi.Thread. The thread yields its core while waiting.
func (t *Thread) SigWait() ([]int, error) {
	t.p.Sleep(t.k.Machine.Cost.SyscallTrap)
	t.k.Sched.Release(t.p)
	sigs, err := t.k.TG.WaitSignal(t.p, t.pr.gid, t.task.ID)
	t.core = t.k.Sched.Acquire(t.p)
	return sigs, err
}

// exit runs the thread-exit protocol and releases the core.
func (t *Thread) exit() {
	t.k.Sched.Release(t.p)
	if err := t.k.TG.Exit(t.p, t.pr.gid, t.task.ID); err != nil {
		panic(fmt.Errorf("core: thread exit: %w", err))
	}
}
