// Package multikernel implements the Barrelfish-like baseline the paper
// compares against: per-core-partition kernels that communicate only by
// message passing, with NO single-system image. Applications are written
// as explicitly distributed "domains" (Barrelfish dispatchers): each domain
// runs on one kernel with private memory, and all cross-domain interaction
// goes over explicit channels. This is the scalability gold standard the
// replicated kernel aims to match — at the cost, absent here by design,
// of running unmodified shared-memory applications.
package multikernel

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config configures a multikernel boot.
type Config struct {
	Topology hw.Topology
	Seed     int64
	// Kernels is the number of kernel instances (default one per core
	// pair is excessive to simulate; default one per NUMA node).
	Kernels int
	// FramesPerKernel sizes each kernel's memory partition.
	FramesPerKernel int
}

// OS is the booted multikernel.
type OS struct {
	e       sim.Engine
	machine *hw.Machine
	metrics *stats.Registry
	fabric  *msg.Fabric
	nodes   []*node
	nextDom int64
}

type node struct {
	id     msg.NodeID
	sched  *sched.Scheduler
	frames *kernel.LockedFrames
	// domains hosted on this kernel, keyed by domain ID.
	domains map[int64]*Domain
}

// Boot brings up the multikernel.
func Boot(cfg Config) (_ *OS, err error) {
	topo := cfg.Topology
	if topo.Cores == 0 {
		topo = hw.Topology{Cores: 64, NUMANodes: 2}
	}
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	kernels, framesPerKernel := cfg.Kernels, cfg.FramesPerKernel
	if kernels <= 0 {
		kernels = topo.NUMANodes
	}
	if framesPerKernel <= 0 {
		framesPerKernel = 1 << 16
	}
	if topo.Cores%kernels != 0 {
		return nil, fmt.Errorf("multikernel: %d cores do not split across %d kernels", topo.Cores, kernels)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	e := sim.NewEngine(sim.WithSeed(seed))
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	metrics := stats.NewRegistry()
	perKernel := topo.Cores / kernels
	nodeCore := make([]int, kernels)
	for k := range nodeCore {
		nodeCore[k] = k * perKernel
	}
	fabric, err := msg.NewFabric(e, machine, kernels, nodeCore, msg.DefaultConfig(), metrics)
	if err != nil {
		return nil, err
	}
	os := &OS{e: e, machine: machine, metrics: metrics, fabric: fabric}
	for k := 0; k < kernels; k++ {
		cores := make([]int, perKernel)
		for i := range cores {
			cores[i] = k*perKernel + i
		}
		sch, err := sched.New(e, machine, cores, metrics)
		if err != nil {
			return nil, err
		}
		alloc, err := mem.NewFrameAllocator(topo.NodeOf(cores[0]), mem.FrameID(k)<<24, framesPerKernel)
		if err != nil {
			return nil, err
		}
		n := &node{
			id:      msg.NodeID(k),
			sched:   sch,
			frames:  kernel.NewLockedFrames(e, machine, alloc, false, perKernel),
			domains: make(map[int64]*Domain),
		}
		os.nodes = append(os.nodes, n)
		k := k
		fabric.Endpoint(msg.NodeID(k)).Handle(msg.TypeUser, func(p *sim.Proc, m *msg.Message) *msg.Message {
			pkt := m.Payload.(*packet)
			d, ok := os.nodes[k].domains[pkt.Dst]
			if !ok {
				os.metrics.Counter("mk.drop").Inc()
				return nil
			}
			d.inbox = append(d.inbox, *pkt) // the message goes back to the pool on return
			d.hasMail.Signal()
			return nil
		})
	}
	return os, nil
}

// Name identifies the flavour.
func (o *OS) Name() string { return "multikernel" }

// Engine returns the simulation engine.
func (o *OS) Engine() sim.Engine { return o.e }

// Machine returns the simulated hardware.
func (o *OS) Machine() *hw.Machine { return o.machine }

// Kernels returns the kernel count.
func (o *OS) Kernels() int { return len(o.nodes) }

// Metrics returns the metrics registry.
func (o *OS) Metrics() *stats.Registry { return o.metrics }

// Close shuts the simulation down.
func (o *OS) Close() { o.e.Close() }

// packet is one inter-domain message.
type packet struct {
	Dst     int64
	Size    int
	Payload any
}

// DomainFunc is a domain body; the domain exits when it returns.
type DomainFunc func(d *Domain)

// Domain is a dispatcher bound to one kernel with private memory and
// explicit channels — the unit applications are decomposed into on a
// multikernel.
type Domain struct {
	os   *OS
	node *node
	id   int64
	p    *sim.Proc
	core int
	wg   *sim.WaitGroup

	inbox   []packet
	hasMail *sim.Cond

	// Private memory: a bump allocator over the kernel's frame partition.
	pt      *mem.PageTable
	values  map[mem.VPN]int64
	nextMap mem.Addr
}

// SpawnDomain starts fn as a new domain on the given kernel. The returned
// WaitGroup-like handle is the OS-wide join: use Wait.
func (o *OS) SpawnDomain(p *sim.Proc, kernelID int, wg *sim.WaitGroup, fn DomainFunc) (*Domain, error) {
	if kernelID < 0 || kernelID >= len(o.nodes) {
		return nil, fmt.Errorf("multikernel: kernel %d out of range [0,%d)", kernelID, len(o.nodes))
	}
	n := o.nodes[kernelID]
	// Spawning on a remote kernel costs a message to its monitor.
	p.Sleep(o.machine.Cost.SyscallTrap + o.machine.Cost.ThreadSetup)
	o.nextDom++
	d := &Domain{
		os:      o,
		node:    n,
		id:      o.nextDom,
		hasMail: sim.NewCond(),
		pt:      mem.NewPageTable(),
		values:  make(map[mem.VPN]int64),
		nextMap: 1 << 32,
		wg:      wg,
	}
	n.domains[d.id] = d
	if wg != nil {
		wg.Add(1)
	}
	o.metrics.Counter("mk.domains").Inc()
	o.e.Spawn(fmt.Sprintf("mk-domain-%d", d.id), func(dp *sim.Proc) {
		if wg != nil {
			defer wg.Done()
		}
		d.p = dp
		d.core = n.sched.Acquire(dp)
		fn(d)
		n.sched.Release(dp)
		delete(n.domains, d.id)
		for _, pte := range d.pt.Drain() {
			if pte.Frame != mem.NoFrame {
				n.frames.FreeFrame(dp, pte.Frame)
			}
		}
	})
	return d, nil
}

// ID returns the machine-unique domain ID (the channel address).
func (d *Domain) ID() int64 { return d.id }

// KernelID returns the kernel hosting this domain.
func (d *Domain) KernelID() int { return int(d.node.id) }

// Proc returns the simulation process executing the domain.
func (d *Domain) Proc() *sim.Proc { return d.p }

// Compute burns CPU time on the domain's core.
func (d *Domain) Compute(t time.Duration) {
	d.core = d.node.sched.Run(d.p, t)
}

// Alloc maps `pages` fresh private pages and returns the base address.
// Purely local: the kernel's own allocator, no cross-kernel traffic.
func (d *Domain) Alloc(pages int) (mem.Addr, error) {
	if pages <= 0 {
		return 0, fmt.Errorf("multikernel: Alloc of %d pages", pages)
	}
	d.p.Sleep(d.os.machine.Cost.SyscallTrap)
	base := d.nextMap
	for i := 0; i < pages; i++ {
		frame, home, err := d.node.frames.AllocFrame(d.p)
		if err != nil {
			return 0, err
		}
		d.p.Sleep(d.os.machine.Cost.PTESet)
		d.pt.Set(mem.PageOf(base+mem.Addr(i*hw.PageSize)), mem.PTE{Frame: frame, Prot: mem.ProtRead | mem.ProtWrite, HomeNode: home})
	}
	d.nextMap += mem.Addr(pages * hw.PageSize)
	return base, nil
}

// Free unmaps private pages.
func (d *Domain) Free(addr mem.Addr, pages int) error {
	d.p.Sleep(d.os.machine.Cost.SyscallTrap)
	for i := 0; i < pages; i++ {
		v := mem.PageOf(addr + mem.Addr(i*hw.PageSize))
		pte, ok := d.pt.Lookup(v)
		if !ok {
			return fmt.Errorf("multikernel: Free of unmapped page %#x", uint64(v.Base()))
		}
		d.pt.Clear(v)
		delete(d.values, v)
		d.node.frames.FreeFrame(d.p, pte.Frame)
	}
	d.p.Sleep(d.os.machine.TLBShootdown(d.node.sched.Cores()-1, false))
	return nil
}

// Load reads private memory.
func (d *Domain) Load(addr mem.Addr) (int64, error) {
	v := mem.PageOf(addr)
	pte, ok := d.pt.Lookup(v)
	if !ok {
		return 0, fmt.Errorf("multikernel: load of unmapped %#x", uint64(addr))
	}
	d.p.Sleep(d.os.machine.MemAccess(d.core, pte.HomeNode))
	return d.values[v], nil
}

// Store writes private memory.
func (d *Domain) Store(addr mem.Addr, val int64) error {
	v := mem.PageOf(addr)
	pte, ok := d.pt.Lookup(v)
	if !ok {
		return fmt.Errorf("multikernel: store to unmapped %#x", uint64(addr))
	}
	d.values[v] = val
	d.p.Sleep(d.os.machine.MemAccess(d.core, pte.HomeNode))
	return nil
}

// Send delivers a payload to another domain over an explicit channel,
// charging fabric costs for cross-kernel destinations and a local enqueue
// for same-kernel ones.
func (d *Domain) Send(dst *Domain, size int, payload any) {
	d.os.metrics.Counter("mk.send").Inc()
	if dst.node == d.node {
		d.p.Sleep(d.os.machine.Cost.MemAccessLocal)
		dst.inbox = append(dst.inbox, packet{Dst: dst.id, Size: size, Payload: payload})
		dst.hasMail.Signal()
		return
	}
	// d.node.id is the sending domain's own kernel: a local-endpoint
	// resolve, not a grab at a peer's queue.
	//popcornvet:allow kernlocal resolves the sender's own kernel endpoint, not a peer's
	ep := d.os.fabric.Endpoint(d.node.id)
	ep.Send(d.p, msg.NewWith(ep, msg.TypeUser, dst.node.id, size,
		packet{Dst: dst.id, Size: size, Payload: payload},
	))
}

// Recv blocks until a message arrives and returns its payload and size.
// The domain yields its core while waiting.
func (d *Domain) Recv() (any, int) {
	if len(d.inbox) == 0 {
		d.node.sched.Release(d.p)
		for len(d.inbox) == 0 {
			d.hasMail.Wait(d.p)
		}
		d.core = d.node.sched.Acquire(d.p)
	}
	pkt := d.next()
	return pkt.Payload, pkt.Size
}

// TryRecv returns a pending message without blocking.
func (d *Domain) TryRecv() (any, int, bool) {
	if len(d.inbox) == 0 {
		return nil, 0, false
	}
	pkt := d.next()
	return pkt.Payload, pkt.Size, true
}

// next pops the oldest packet off a non-empty inbox.
func (d *Domain) next() packet {
	pkt := d.inbox[0]
	d.inbox[0] = packet{}
	d.inbox = d.inbox[1:]
	return pkt
}
