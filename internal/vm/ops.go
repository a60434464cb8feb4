package vm

import (
	"fmt"

	"repro/internal/hw"
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
	r, err := sp.layout(p, vmaOpReq{GID: sp.gid, Op: opMap, Length: length, Prot: prot})
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
	if err := checkRange(addr, length); err != nil {
		return err
	}
	sp.svc.metrics.CounterIn(&sp.svc.hot.opUnmap, "vm.op.unmap").Inc()
	start := p.Now()
	defer func() {
		sp.svc.metrics.HistogramIn(&sp.svc.hot.latUnmap, "vm.op.unmap.latency").Observe(p.Now().Sub(start))
	}()
	_, err := sp.layout(p, vmaOpReq{GID: sp.gid, Op: opUnmap, Addr: addr, Length: length})
	return err
}

// Protect changes the protection of [addr, addr+length), which must be
// fully mapped. Like Unmap, the change propagates synchronously.
func (sp *Space) Protect(p *sim.Proc, addr mem.Addr, length uint64, prot mem.Prot) error {
	if err := checkRange(addr, length); err != nil {
		return err
	}
	sp.svc.metrics.CounterIn(&sp.svc.hot.opProtect, "vm.op.protect").Inc()
	start := p.Now()
	defer func() {
		sp.svc.metrics.HistogramIn(&sp.svc.hot.latProtect, "vm.op.protect.latency").Observe(p.Now().Sub(start))
	}()
	_, err := sp.layout(p, vmaOpReq{GID: sp.gid, Op: opProtect, Addr: addr, Length: length, Prot: prot})
	return err
}

// heapBase is where each group's brk heap starts (below the mmap area).
const heapBase mem.Addr = 1 << 28

// Sbrk grows (delta > 0) or shrinks (delta < 0) the process heap by delta
// bytes, rounded to whole pages, returning the previous program break. It
// is the classic brk(2) interface over the same origin-coordinated
// machinery: growth is a map, shrinkage an unmap.
func (sp *Space) Sbrk(p *sim.Proc, delta int64) (mem.Addr, error) {
	r, err := sp.layout(p, vmaOpReq{GID: sp.gid, Op: opBrk, Length: uint64(delta)})
	if err != nil {
		return 0, err
	}
	return r.Addr, nil
}

// layout runs one layout operation: committed here on the origin, forwarded
// to it from a replica.
func (sp *Space) layout(p *sim.Proc, req vmaOpReq) (vmaOpReply, error) {
	if sp.isOrigin {
		return sp.originLayout(p, req)
	}
	r, err := msg.CallFor[vmaOpReply](sp.svc.ep, p, msg.NewWith(sp.svc.ep, msg.TypeVMAOp, sp.origin, sizeSmallReq, req))
	if err != nil {
		return vmaOpReply{}, err
	}
	if r.Err != "" {
		return vmaOpReply{}, fmt.Errorf("vm: remote %s: %s", opNames[req.Op], r.Err)
	}
	return r, nil
}

func checkRange(addr mem.Addr, length uint64) error {
	if length == 0 {
		return fmt.Errorf("%w: zero length", ErrBadRange)
	}
	if uint64(addr)%hw.PageSize != 0 {
		return fmt.Errorf("%w: address %#x not page-aligned", ErrBadRange, uint64(addr))
	}
	return nil
}

func pagesFor(length uint64) int {
	return int((length + hw.PageSize - 1) / hw.PageSize)
}

// originLayout commits one layout operation at the origin. One switch
// resolves the request against the authoritative layout, making no sends: into
// the update that replicas and the mirror replay (brk growth is a map, brk
// shrinkage an unmap), or into nothing when the layout did not change. A
// change then takes the next version, applies to this kernel's own pages, and
// is published, all under the asLock that assigned the version.
func (sp *Space) originLayout(p *sim.Proc, req vmaOpReq) (vmaOpReply, error) {
	sp.asLock.Lock(p)
	defer sp.asLock.Unlock(p)
	p.Sleep(sp.svc.machine.Cost.VMAOp)
	var (
		reply   vmaOpReply
		u       vmaUpdate // Op stays 0 when nothing changed
		removed []VMA     // the mapped pieces an unmap took out
		err     error
	)
	pages := pagesFor(req.Length)
	lo := mem.PageOf(req.Addr)
	hi := lo + mem.VPN(pages)
	switch req.Op {
	case opMap:
		reply.Addr = sp.nextMap
		sp.nextMap += mem.Addr(pages * hw.PageSize)
		lo = mem.PageOf(reply.Addr)
		u = vmaUpdate{Op: opMap, Lo: lo, Hi: lo + mem.VPN(pages), Prot: req.Prot}
		err = sp.vmas.insert(VMA{Lo: u.Lo, Hi: u.Hi, Prot: u.Prot})
	case opUnmap:
		// Unmapping a hole is a no-op, as in Linux.
		if removed = sp.vmas.remove(lo, hi); len(removed) > 0 {
			u = vmaUpdate{Op: opUnmap, Lo: lo, Hi: hi}
		}
	case opProtect:
		if !sp.vmas.covered(lo, hi) {
			err = fmt.Errorf("%w: mprotect range [%#x,%#x) not fully mapped", ErrBadRange, uint64(req.Addr), uint64(req.Addr)+req.Length)
		} else if len(sp.vmas.protect(lo, hi, req.Prot)) > 0 {
			u = vmaUpdate{Op: opProtect, Lo: lo, Hi: hi, Prot: req.Prot}
		}
	case opBrk:
		reply.Addr = sp.brk
		u, removed, err = sp.resolveBrk(int64(req.Length))
	default:
		err = fmt.Errorf("unknown vma op %d", req.Op)
	}
	if err != nil || u.Op == 0 {
		reply.Version = sp.version
		return reply, err
	}
	sp.version++
	u.GID, u.Version = sp.gid, sp.version
	sp.svc.checker.LayoutApplied(sp.svc.node, int64(sp.gid), sp.version)
	for _, r := range removed {
		sp.scrubLocal(p, r.Lo, r.Hi)
		for v := r.Lo; v < r.Hi; v++ {
			delete(sp.dir, v)
		}
		sp.svc.checker.Unmapped(int64(sp.gid), r.Lo, r.Hi)
	}
	if u.Op == opProtect {
		sp.applyProtectLocal(p, u.Lo, u.Hi, u.Prot)
	}
	reply.Version = sp.version
	//popcornvet:allow locksend layout changes must reach the mirror and every replica in version order, so they are published under the asLock that assigned the version; the mirror and replica handlers apply the change locally and never call back into the origin
	return reply, sp.publish(p, u)
}

// resolveBrk moves the program break by delta bytes, rounded to whole pages,
// and returns the layout change that moved it.
func (sp *Space) resolveBrk(delta int64) (vmaUpdate, []VMA, error) {
	if delta == 0 {
		return vmaUpdate{}, nil, nil
	}
	pages := (delta + hw.PageSize - 1) / hw.PageSize
	if delta < 0 {
		pages = -((-delta + hw.PageSize - 1) / hw.PageSize)
	}
	old := sp.brk
	newBrk := old + mem.Addr(pages*hw.PageSize)
	if newBrk < heapBase {
		return vmaUpdate{}, nil, fmt.Errorf("%w: brk below heap base", ErrBadRange)
	}
	if delta > 0 {
		u := vmaUpdate{Op: opMap, Lo: mem.PageOf(old), Hi: mem.PageOf(newBrk), Prot: mem.ProtRead | mem.ProtWrite}
		if err := sp.vmas.insert(VMA{Lo: u.Lo, Hi: u.Hi, Prot: u.Prot}); err != nil {
			return vmaUpdate{}, nil, err
		}
		sp.brk = newBrk
		return u, nil, nil
	}
	u := vmaUpdate{Op: opUnmap, Lo: mem.PageOf(newBrk), Hi: mem.PageOf(old)}
	sp.brk = newBrk
	return u, sp.vmas.remove(u.Lo, u.Hi), nil
}

// publish sends one committed layout change on: to the mirror when failover
// is on, then to every replica. A new mapping reaches replicas lazily, on
// their first fault, unless the eager-push ablation is on.
func (sp *Space) publish(p *sim.Proc, u vmaUpdate) error {
	if sp.svc.fabric.Failover() {
		sp.shipLayout(p, u)
	}
	if u.Op == opMap && !sp.svc.eagerMapPush {
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
	if sp.pushBuild == nil {
		sp.pushBuild = sp.pushRequest
	}
	sp.pushU, sp.pushErrs = u, resize(sp.pushErrs, len(targets))
	sp.svc.ep.CallEachErr(p, targets, sp.pushBuild, nil, sp.pushErrs)
	var err error
	for _, e := range sp.pushErrs {
		if e != nil && err == nil {
			err = e
		}
	}
	clear(sp.pushErrs)
	return err
}

// pushRequest is pushUpdate's request builder, bound once as sp.pushBuild.
func (sp *Space) pushRequest(to msg.NodeID) *msg.Message {
	m := msg.NewWith(sp.svc.ep, msg.TypeVMAUpdate, to, sizeSmallReq, sp.pushU)
	// Origin-role traffic: epoch-stamped so stale copies from a
	// crashed-and-rejoined origin are fenced (see revokeCopies).
	sp.svc.fabric.StampOrigin(m, OriginKernelOf(sp.gid))
	return m
}

// scrubLocal drops this kernel's PTEs, values and frames for [lo, hi),
// charging a TLB shootdown across the kernel's cores if anything was mapped.
func (sp *Space) scrubLocal(p *sim.Proc, lo, hi mem.VPN) {
	cleared := sp.pt.ClearRange(lo, hi)
	for v := lo; v < hi; v++ {
		delete(sp.values, v)
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
		p.Sleep(sp.svc.machine.TLBShootdown(sp.shootdownCores(), false))
	}
}

// applyProtectLocal updates this kernel's PTEs for a protection change.
// Entries keep their frames (so re-enabling access needs no data transfer)
// but lose the revoked access bits; hardware-visible changes charge a TLB
// shootdown across the kernel's cores.
func (sp *Space) applyProtectLocal(p *sim.Proc, lo, hi mem.VPN, prot mem.Prot) {
	touched := 0
	for v := lo; v < hi; v++ {
		pte, ok := sp.pt.Lookup(v)
		if !ok {
			continue
		}
		// A PTE may never gain bits here: upgrades go through the fault
		// path so the directory can arbitrate ownership.
		newProt := pte.Prot & prot
		if newProt != pte.Prot {
			pte.Prot = newProt
			sp.pt.Set(v, pte)
			touched++
		}
	}
	for v := lo; v < hi; v++ {
		if pend, ok := sp.pending[v]; ok {
			pend.invalidated = true
			// Protection changed under the fault; no grant may install,
			// whatever its directory version.
			pend.invalVersion = ^uint64(0)
		}
	}
	if touched > 0 {
		p.Sleep(sp.svc.machine.TLBShootdown(sp.shootdownCores(), false))
	}
}

// cacheVMA installs a fetched or just-created VMA into the replica cache,
// replacing any stale fragments the authoritative area supersedes.
func (sp *Space) cacheVMA(v VMA, version uint64) {
	sp.vmas.apply(vmaUpdate{Op: opMap, Lo: v.Lo, Hi: v.Hi, Prot: v.Prot})
	if version > sp.version {
		sp.version = version
	}
	sp.svc.checker.LayoutApplied(sp.svc.node, int64(sp.gid), sp.version)
}
