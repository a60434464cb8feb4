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
	nodes   []*node
	nextDom int64
}

type node struct {
	id     msg.NodeID
	ep     *msg.Endpoint
	sched  *sched.Scheduler
	frames *kernel.LockedFrames
	// domains hosted on this kernel, keyed by domain ID.
	domains map[int64]*Domain
}

// Boot brings up the multikernel.
func Boot(cfg Config) (_ *OS, err error) {
	machine, e, metrics, err := kernel.Setup(cfg.Topology, nil, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	kernels, framesPerKernel := cfg.Kernels, cfg.FramesPerKernel
	if kernels <= 0 {
		kernels = machine.Topology.NUMANodes
	}
	if framesPerKernel <= 0 {
		framesPerKernel = kernel.DefaultFrames
	}
	parts, err := kernel.Carve(e, machine, kernels, framesPerKernel)
	if err != nil {
		return nil, err
	}
	nodeCore := make([]int, kernels)
	for k, part := range parts {
		nodeCore[k] = part.Cores[0]
	}
	fabric, err := msg.NewFabric(e, machine, kernels, nodeCore, msg.DefaultConfig(), metrics)
	if err != nil {
		return nil, err
	}
	os := &OS{e: e, machine: machine, metrics: metrics}
	for k, part := range parts {
		sch, err := sched.New(e, machine, part.Cores, metrics)
		if err != nil {
			return nil, err
		}
		n := &node{
			id:      msg.NodeID(k),
			ep:      fabric.Endpoint(msg.NodeID(k)),
			sched:   sch,
			frames:  part.Frames,
			domains: make(map[int64]*Domain),
		}
		os.nodes = append(os.nodes, n)
		channel.Handle(n.ep, func(_ *sim.Proc, _ msg.NodeID, pkt *packet) struct{} {
			d, ok := os.nodes[k].domains[pkt.Dst]
			if !ok {
				os.metrics.Counter("mk.drop").Inc()
				return struct{}{}
			}
			d.inbox = append(d.inbox, *pkt) // the message goes back to the pool on return
			d.hasMail.Signal()
			return struct{}{}
		})
	}
	return os, nil
}

// Name identifies the flavour.
func (o *OS) Name() string { return "multikernel" }

// Engine returns the simulation engine.
func (o *OS) Engine() sim.Engine { return o.e }

// Kernels returns the kernel count.
func (o *OS) Kernels() int { return len(o.nodes) }

// Metrics returns the metrics registry.
func (o *OS) Metrics() *stats.Registry { return o.metrics }

// Conserved reports frames in use on any kernel: a finished domain gives
// back every frame its page table maps.
func (o *OS) Conserved() error {
	return kernel.FramesBack("multikernel", "node", len(o.nodes), func(i int) *kernel.LockedFrames { return o.nodes[i].frames })
}

// Close shuts the simulation down.
func (o *OS) Close() { o.e.Close() }

// packet is one inter-domain message.
type packet struct {
	Dst     int64
	Size    int
	Payload any
}

// channel carries packets between domains on different kernels, one-way,
// as many bytes on the wire as the packet declares.
var channel = msg.Kind[packet, struct{}]{Type: msg.TypeUser, SizeOf: func(p *packet) int { return p.Size }}

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

	inbox   []packet
	hasMail *sim.Cond

	// Private memory: a bump allocator over the kernel's frame partition.
	pt      mem.PageTable
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
		nextMap: 1 << 32,
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
		for _, e := range d.pt.Drain {
			if e.Frame != mem.NoFrame {
				n.frames.FreeFrame(dp, e.Frame)
			}
		}
	})
	return d, nil
}

// KernelID returns the kernel hosting this domain.
func (d *Domain) KernelID() int { return int(d.node.id) }

// Proc returns the simulation process executing the domain.
func (d *Domain) Proc() *sim.Proc { return d.p }

// Compute burns CPU time on the domain's core.
func (d *Domain) Compute(t time.Duration) {
	d.core = d.node.sched.Run(d.p, t)
}

// Alloc maps `pages` fresh private pages and returns the base address.
// Purely local: the kernel's own allocator, no cross-kernel traffic. An
// Alloc that runs out of frames maps nothing: it unmaps the pages it had
// mapped and frees their frames, in page order, before it fails.
func (d *Domain) Alloc(pages int) (mem.Addr, error) {
	if pages <= 0 {
		return 0, fmt.Errorf("multikernel: Alloc of %d pages", pages)
	}
	d.p.Sleep(d.os.machine.Cost.SyscallTrap)
	base := d.nextMap
	for i := 0; i < pages; i++ {
		frame, home, err := d.node.frames.AllocFrame(d.p)
		if err != nil {
			var buf [16]mem.PTE
			for _, pte := range d.pt.ClearRange(buf[:0], mem.PageOf(base), mem.PageOf(base)+mem.VPN(i)) {
				d.node.frames.FreeFrame(d.p, pte.Frame)
			}
			return 0, err
		}
		d.p.Sleep(d.os.machine.Cost.PTESet)
		d.pt.Set(mem.PageOf(base+mem.Addr(i*hw.PageSize)), mem.PTE{Frame: frame, Prot: mem.ProtRead | mem.ProtWrite, HomeNode: uint8(home)})
	}
	d.nextMap += mem.Addr(pages * hw.PageSize)
	return base, nil
}

// Free unmaps private pages, freeing their frames in page order. A range
// with an unmapped page is unmapped up to that page, and the call fails
// there.
func (d *Domain) Free(addr mem.Addr, pages int) error {
	d.p.Sleep(d.os.machine.Cost.SyscallTrap)
	lo := mem.PageOf(addr)
	hi := lo + mem.VPN(max(pages, 0))
	var err error
	for v := lo; v < hi; v++ {
		if _, ok := d.pt.Lookup(v); !ok {
			hi, err = v, fmt.Errorf("multikernel: Free of unmapped page %#x", uint64(v.Base()))
			break
		}
	}
	var buf [16]mem.PTE
	for _, pte := range d.pt.ClearRange(buf[:0], lo, hi) {
		d.node.frames.FreeFrame(d.p, pte.Frame)
	}
	if err != nil {
		return err
	}
	d.p.Sleep(d.os.machine.TLBShootdown(d.node.sched.Cores(), d.node.sched.Cores(), false))
	return nil
}

// Store writes private memory. Nothing reads a domain's memory back, so
// only the access is charged; the value is not kept.
func (d *Domain) Store(addr mem.Addr, _ int64) error {
	pte, ok := d.pt.Lookup(mem.PageOf(addr))
	if !ok {
		return fmt.Errorf("multikernel: store to unmapped %#x", uint64(addr))
	}
	d.p.Sleep(d.os.machine.MemAccess(d.core, int(pte.HomeNode)))
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
	channel.Send(d.p, d.node.ep, dst.node.id, &packet{Dst: dst.id, Size: size, Payload: payload})
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
	pkt := d.inbox[0]
	d.inbox[0] = packet{}
	d.inbox = d.inbox[1:]
	return pkt.Payload, pkt.Size
}
