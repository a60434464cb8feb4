package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// Map creates a new anonymous mapping of length bytes (rounded up to whole
// pages) and returns its base address. On a replica kernel the operation is
// forwarded to the origin; propagation to other replicas is lazy (they fetch
// the VMA on first fault), mirroring the paper's design where only
// destructive layout changes are pushed eagerly.
func (sp *Space) Map(p *sim.Proc, length uint64, prot mem.Prot) (mem.Addr, error) {
	if length == 0 {
		return 0, fmt.Errorf("%w: zero-length map", ErrBadRange)
	}
	sp.svc.metrics.CounterIn(&sp.svc.hot.opMap, "vm.op.map").Inc()
	start := p.Now()
	defer func() {
		sp.svc.metrics.HistogramIn(&sp.svc.hot.latMap, "vm.op.map.latency").Observe(p.Now().Sub(start))
	}()
	r, err := sp.layoutOp(p, vmaOpReq{GID: sp.gid, Op: OpMap, Length: length, Prot: prot})
	if err != nil {
		return 0, err
	}
	if !sp.isOrigin {
		// Cache the new area locally so this kernel's first fault skips the
		// VMA-fetch round trip.
		lo := mem.PageOf(r.Addr)
		sp.cacheVMA(VMA{Lo: lo, Hi: lo + mem.VPN(pagesFor(length)), Prot: prot}, r.Version)
	}
	return r.Addr, nil
}

// Unmap removes every mapping in [addr, addr+length). The change is pushed
// synchronously to all replicas: every kernel drops its PTEs, copies and
// frames for the range before Unmap returns.
func (sp *Space) Unmap(p *sim.Proc, addr mem.Addr, length uint64) error {
	if err := CheckRange(addr, length); err != nil {
		return err
	}
	sp.svc.metrics.CounterIn(&sp.svc.hot.opUnmap, "vm.op.unmap").Inc()
	start := p.Now()
	defer func() {
		sp.svc.metrics.HistogramIn(&sp.svc.hot.latUnmap, "vm.op.unmap.latency").Observe(p.Now().Sub(start))
	}()
	_, err := sp.layoutOp(p, vmaOpReq{GID: sp.gid, Op: OpUnmap, Addr: addr, Length: length})
	return err
}

// Protect changes the protection of [addr, addr+length), which must be
// fully mapped. Like Unmap, the change propagates synchronously.
func (sp *Space) Protect(p *sim.Proc, addr mem.Addr, length uint64, prot mem.Prot) error {
	if err := CheckRange(addr, length); err != nil {
		return err
	}
	sp.svc.metrics.CounterIn(&sp.svc.hot.opProtect, "vm.op.protect").Inc()
	start := p.Now()
	defer func() {
		sp.svc.metrics.HistogramIn(&sp.svc.hot.latProtect, "vm.op.protect.latency").Observe(p.Now().Sub(start))
	}()
	_, err := sp.layoutOp(p, vmaOpReq{GID: sp.gid, Op: OpProtect, Addr: addr, Length: length, Prot: prot})
	return err
}

// Sbrk grows (delta > 0) or shrinks (delta < 0) the process heap by delta
// bytes, rounded to whole pages, returning the previous program break. It
// is the classic brk(2) interface over the same origin-coordinated
// machinery: growth is a map, shrinkage an unmap.
func (sp *Space) Sbrk(p *sim.Proc, delta int64) (mem.Addr, error) {
	r, err := sp.layoutOp(p, vmaOpReq{GID: sp.gid, Op: OpBrk, Length: uint64(delta)})
	if err != nil {
		return 0, err
	}
	return r.Addr, nil
}

// layoutOp runs one layout operation: committed here on the origin,
// forwarded to it from a replica.
func (sp *Space) layoutOp(p *sim.Proc, req vmaOpReq) (vmaOpReply, error) {
	if sp.isOrigin {
		return sp.originLayout(p, req)
	}
	r, err := vmaOp.Call(p, sp.svc.ep, sp.origin, msg.NoRole, &req)
	if err != nil {
		return vmaOpReply{}, err
	}
	if r.Err != nil {
		return vmaOpReply{}, fmt.Errorf("vm: remote %s: %w", opNames[req.Op], r.Err)
	}
	return r, nil
}

// originLayout commits one layout operation at the origin. The layout
// resolves it, making no sends: into the update that replicas and the mirror
// replay, stamped with the next version, or into nothing when the layout did
// not change. A change then applies to this kernel's own pages and is
// published, all under the asLock that assigned the version.
func (sp *Space) originLayout(p *sim.Proc, req vmaOpReq) (vmaOpReply, error) {
	sp.asLock.Lock(p)
	defer sp.asLock.Unlock(p)
	p.Sleep(sp.svc.machine.Cost.VMAOp)
	at, u, removed, err := sp.layout.Resolve(req.Op, req.Addr, req.Length, req.Prot)
	reply := vmaOpReply{Addr: at, Version: sp.layout.version}
	if err != nil || u.Op == 0 {
		return reply, err
	}
	u.GID = sp.gid
	sp.svc.checker.LayoutApplied(sp.svc.node, int64(sp.gid), u.Version)
	for _, r := range removed {
		sp.scrubLocal(p, r.Lo, r.Hi)
		sp.dropEntries(r.Lo, r.Hi)
		sp.svc.checker.Unmapped(int64(sp.gid), r.Lo, r.Hi)
	}
	if u.Op == OpProtect {
		sp.applyProtectLocal(p, u.Lo, u.Hi, u.Prot)
	}
	//popcornvet:allow locksend layout changes must reach the mirror and every replica in version order, so they are published under the asLock that assigned the version; the mirror and replica handlers apply the change locally and never call back into the origin
	return reply, sp.publish(p, u)
}

// publish sends one committed layout change on: to the mirror when failover
// is on, then to every replica. A new mapping reaches replicas lazily, on
// their first fault, unless the eager-push ablation is on.
func (sp *Space) publish(p *sim.Proc, u vmaUpdate) error {
	if sp.svc.fabric.Failover() {
		sp.shipLayout(p, u)
	}
	if u.Op == OpMap && !sp.svc.eagerMapPush {
		return nil
	}
	return sp.pushUpdate(p, u)
}

// pushUpdate synchronously delivers a layout change to every replica.
func (sp *Space) pushUpdate(p *sim.Proc, u vmaUpdate) error {
	sp.pushNodes = sp.replicas.nodes(sp.pushNodes, sp.origin)
	targets := sp.pushNodes
	if len(targets) == 0 {
		return nil
	}
	sp.svc.metrics.CounterIn(&sp.svc.hot.updatePushed, "vm.update.pushed").Add(uint64(len(targets)))
	// Origin-role traffic: epoch-stamped so stale copies from a
	// crashed-and-rejoined origin are fenced (see revokeCopies).
	var err error
	vmaPush.Each(p, sp.svc.ep, targets, OriginKernelOf(sp.gid), &u, func(_ int, _ *vmaOpReply, e error) {
		if err == nil {
			err = e
		}
	})
	return err
}

// scrubLocal drops this kernel's PTEs and frames for [lo, hi),
// charging a TLB shootdown across the kernel's cores if anything was mapped.
func (sp *Space) scrubLocal(p *sim.Proc, lo, hi mem.VPN) {
	var buf [16]mem.PTE
	cleared := sp.pt.ClearRange(buf[:0], lo, hi)
	for v := lo; v < hi; v++ {
		if pend, ok := sp.pending[v]; ok {
			pend.invalidated = true
			// A layout scrub voids any grant, whatever its directory
			// version: the mapping itself is gone.
			pend.invalVersion = ^uint64(0)
		}
	}
	for _, pte := range cleared {
		if pte.Frame != mem.NoFrame {
			sp.svc.frames.FreeFrame(p, pte.Frame)
		}
	}
	if len(cleared) > 0 {
		p.Sleep(sp.svc.machine.TLBShootdown(sp.localThreads, len(sp.svc.cores), false))
	}
}

// applyProtectLocal updates this kernel's PTEs for a protection change.
// Entries keep their frames (so re-enabling access needs no data transfer)
// but lose the revoked access bits; hardware-visible changes charge a TLB
// shootdown across the kernel's cores.
func (sp *Space) applyProtectLocal(p *sim.Proc, lo, hi mem.VPN, prot mem.Prot) {
	// A PTE never gains bits here: upgrades go through the fault path so
	// the directory can arbitrate ownership.
	touched := sp.pt.Protect(lo, hi, prot)
	for v := lo; v < hi; v++ {
		if pend, ok := sp.pending[v]; ok {
			pend.invalidated = true
			// Protection changed under the fault; no grant may install,
			// whatever its directory version.
			pend.invalVersion = ^uint64(0)
		}
	}
	if touched > 0 {
		p.Sleep(sp.svc.machine.TLBShootdown(sp.localThreads, len(sp.svc.cores), false))
	}
}

// cacheVMA installs a fetched or just-created VMA into the replica cache,
// replacing any stale fragments the authoritative area supersedes.
func (sp *Space) cacheVMA(v VMA, version uint64) {
	sp.layout.vmas.apply(vmaUpdate{Op: OpMap, Lo: v.Lo, Hi: v.Hi, Prot: v.Prot})
	sp.layout.version = max(sp.layout.version, version)
	sp.svc.checker.LayoutApplied(sp.svc.node, int64(sp.gid), sp.layout.version)
}
