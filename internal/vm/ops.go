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
	if sp.isOrigin {
		return sp.originMap(p, length, prot)
	}
	reply, err := sp.svc.ep.Call(p, msg.NewWith(msg.TypeVMAOp, sp.origin, sizeSmallReq,
		vmaOpReq{GID: sp.gid, Op: opMap, Length: length, Prot: prot},
	))
	if err != nil {
		return 0, err
	}
	r := reply.Payload.(*vmaOpReply)
	if r.Err != "" {
		return 0, fmt.Errorf("vm: remote map: %s", r.Err)
	}
	// Cache the new area locally so this kernel's first fault skips the
	// VMA-fetch round trip.
	lo := mem.PageOf(r.Addr)
	hi := lo + mem.VPN(pagesFor(length))
	sp.cacheVMA(VMA{Lo: lo, Hi: hi, Prot: prot}, r.Version)
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
	if sp.isOrigin {
		return sp.originUnmap(p, addr, length)
	}
	reply, err := sp.svc.ep.Call(p, msg.NewWith(msg.TypeVMAOp, sp.origin, sizeSmallReq,
		vmaOpReq{GID: sp.gid, Op: opUnmap, Addr: addr, Length: length},
	))
	if err != nil {
		return err
	}
	if r := reply.Payload.(*vmaOpReply); r.Err != "" {
		return fmt.Errorf("vm: remote unmap: %s", r.Err)
	}
	return nil
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
	if sp.isOrigin {
		return sp.originProtect(p, addr, length, prot)
	}
	reply, err := sp.svc.ep.Call(p, msg.NewWith(msg.TypeVMAOp, sp.origin, sizeSmallReq,
		vmaOpReq{GID: sp.gid, Op: opProtect, Addr: addr, Length: length, Prot: prot},
	))
	if err != nil {
		return err
	}
	if r := reply.Payload.(*vmaOpReply); r.Err != "" {
		return fmt.Errorf("vm: remote protect: %s", r.Err)
	}
	return nil
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

// originMap runs the map at the origin: allocate an address range, insert
// the VMA, bump the version. No eager propagation.
func (sp *Space) originMap(p *sim.Proc, length uint64, prot mem.Prot) (mem.Addr, error) {
	sp.asLock.Lock(p)
	defer sp.asLock.Unlock(p)
	p.Sleep(sp.svc.machine.Cost.VMAOp)
	addr := sp.nextMap
	pages := pagesFor(length)
	sp.nextMap += mem.Addr(pages * hw.PageSize)
	lo := mem.PageOf(addr)
	v := VMA{Lo: lo, Hi: lo + mem.VPN(pages), Prot: prot}
	if err := sp.vmas.insert(v); err != nil {
		return 0, err
	}
	sp.version++
	sp.svc.checker.LayoutApplied(sp.svc.node, int64(sp.gid), sp.version)
	if sp.svc.failover {
		//popcornvet:allow locksend layout snapshots must reach the mirror in version order, so the ship happens under the asLock that assigned the version; the mirror-side handler only records the snapshot and never calls back into the origin
		sp.shipLayout(p, opMap, v.Lo, v.Hi, prot)
	}
	if sp.svc.eagerMapPush {
		//popcornvet:allow locksend VMA updates must reach replicas in version order, so the push happens under the asLock that assigned the version; the replica-side handler applies the layout locally and never calls back into the origin
		if err := sp.pushUpdate(p, vmaUpdate{GID: sp.gid, Op: opMap, Lo: v.Lo, Hi: v.Hi, Prot: prot, Version: sp.version}); err != nil {
			return 0, err
		}
	}
	return addr, nil
}

// originUnmap removes the range, scrubs local pages and the directory, and
// pushes the update to every replica.
func (sp *Space) originUnmap(p *sim.Proc, addr mem.Addr, length uint64) error {
	sp.asLock.Lock(p)
	defer sp.asLock.Unlock(p)
	p.Sleep(sp.svc.machine.Cost.VMAOp)
	lo := mem.PageOf(addr)
	hi := lo + mem.VPN(pagesFor(length))
	removed := sp.vmas.remove(lo, hi)
	if len(removed) == 0 {
		return nil // unmapping a hole is a no-op, as in Linux
	}
	sp.version++
	sp.svc.checker.LayoutApplied(sp.svc.node, int64(sp.gid), sp.version)
	for _, r := range removed {
		sp.scrubLocal(p, r.Lo, r.Hi)
		for v := r.Lo; v < r.Hi; v++ {
			delete(sp.dir, v)
		}
		sp.svc.checker.Unmapped(int64(sp.gid), r.Lo, r.Hi)
	}
	if sp.svc.failover {
		//popcornvet:allow locksend layout snapshots must reach the mirror in version order, so the ship happens under the asLock that assigned the version; the mirror-side handler only records the snapshot and never calls back into the origin
		sp.shipLayout(p, opUnmap, lo, hi, 0)
	}
	//popcornvet:allow locksend VMA updates must reach replicas in version order, so the push happens under the asLock that assigned the version; the replica-side handler applies the layout locally and never calls back into the origin
	return sp.pushUpdate(p, vmaUpdate{GID: sp.gid, Op: opUnmap, Lo: lo, Hi: hi, Version: sp.version})
}

// originProtect re-protects the range and pushes the update to replicas.
func (sp *Space) originProtect(p *sim.Proc, addr mem.Addr, length uint64, prot mem.Prot) error {
	sp.asLock.Lock(p)
	defer sp.asLock.Unlock(p)
	p.Sleep(sp.svc.machine.Cost.VMAOp)
	lo := mem.PageOf(addr)
	hi := lo + mem.VPN(pagesFor(length))
	if !sp.vmas.covered(lo, hi) {
		return fmt.Errorf("%w: mprotect range [%#x,%#x) not fully mapped", ErrBadRange, uint64(addr), uint64(addr)+length)
	}
	changed := sp.vmas.protect(lo, hi, prot)
	if len(changed) == 0 {
		return nil
	}
	sp.version++
	sp.svc.checker.LayoutApplied(sp.svc.node, int64(sp.gid), sp.version)
	if sp.svc.failover {
		//popcornvet:allow locksend layout snapshots must reach the mirror in version order, so the ship happens under the asLock that assigned the version; the mirror-side handler only records the snapshot and never calls back into the origin
		sp.shipLayout(p, opProtect, lo, hi, prot)
	}
	sp.applyProtectLocal(p, lo, hi, prot)
	//popcornvet:allow locksend VMA updates must reach replicas in version order, so the push happens under the asLock that assigned the version; the replica-side handler applies the layout locally and never calls back into the origin
	return sp.pushUpdate(p, vmaUpdate{GID: sp.gid, Op: opProtect, Lo: lo, Hi: hi, Prot: prot, Version: sp.version})
}

// pushUpdate synchronously delivers a layout change to every replica.
func (sp *Space) pushUpdate(p *sim.Proc, u vmaUpdate) error {
	sp.pushNodes = nodeSet(sp.pushNodes, sp.replicas, sp.origin)
	targets := sp.pushNodes
	if len(targets) == 0 {
		return nil
	}
	sp.svc.metrics.CounterIn(&sp.svc.hot.updatePushed, "vm.update.pushed").Add(uint64(len(targets)))
	_, err := sp.svc.ep.CallEach(p, targets, func(to msg.NodeID) *msg.Message {
		m := msg.NewWith(msg.TypeVMAUpdate, to, sizeSmallReq, u)
		// Origin-role traffic: epoch-stamped so stale copies from a
		// crashed-and-rejoined origin are fenced (see revokeCopies).
		sp.svc.fabric.StampOrigin(m, OriginKernelOf(sp.gid))
		return m
	})
	return err
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
	sp.vmas.remove(v.Lo, v.Hi)
	// insert cannot fail after the remove cleared the range.
	if err := sp.vmas.insert(v); err != nil {
		panic(fmt.Sprintf("vm: cacheVMA: %v", err))
	}
	if version > sp.version {
		sp.version = version
	}
	sp.svc.checker.LayoutApplied(sp.svc.node, int64(sp.gid), sp.version)
}

// heapBase is where each group's brk heap starts (below the mmap area).
const heapBase mem.Addr = 1 << 28

// Sbrk grows (delta > 0) or shrinks (delta < 0) the process heap by delta
// bytes, rounded to whole pages, returning the previous program break. It
// is the classic brk(2) interface over the same origin-coordinated
// machinery: growth is lazy like mmap, shrinkage pushes like munmap.
func (sp *Space) Sbrk(p *sim.Proc, delta int64) (mem.Addr, error) {
	if sp.isOrigin {
		return sp.originSbrk(p, delta)
	}
	reply, err := sp.svc.ep.Call(p, msg.NewWith(msg.TypeVMAOp, sp.origin, sizeSmallReq,
		vmaOpReq{GID: sp.gid, Op: opBrk, Length: uint64(delta)},
	))
	if err != nil {
		return 0, err
	}
	r := reply.Payload.(*vmaOpReply)
	if r.Err != "" {
		return 0, fmt.Errorf("vm: remote sbrk: %s", r.Err)
	}
	return r.Addr, nil
}

func (sp *Space) originSbrk(p *sim.Proc, delta int64) (mem.Addr, error) {
	sp.asLock.Lock(p)
	p.Sleep(sp.svc.machine.Cost.VMAOp)
	old := sp.brk
	if delta == 0 {
		sp.asLock.Unlock(p)
		return old, nil
	}
	pages := (delta + hw.PageSize - 1) / hw.PageSize
	if delta < 0 {
		pages = -((-delta + hw.PageSize - 1) / hw.PageSize)
	}
	newBrk := old + mem.Addr(pages*hw.PageSize)
	if newBrk < heapBase {
		sp.asLock.Unlock(p)
		return 0, fmt.Errorf("%w: brk below heap base", ErrBadRange)
	}
	if delta > 0 {
		v := VMA{Lo: mem.PageOf(old), Hi: mem.PageOf(newBrk), Prot: mem.ProtRead | mem.ProtWrite}
		if err := sp.vmas.insert(v); err != nil {
			sp.asLock.Unlock(p)
			return 0, err
		}
		sp.brk = newBrk
		sp.version++
		sp.svc.checker.LayoutApplied(sp.svc.node, int64(sp.gid), sp.version)
		if sp.svc.failover {
			//popcornvet:allow locksend layout snapshots must reach the mirror in version order, so the ship happens under the asLock that assigned the version; the mirror-side handler only records the snapshot and never calls back into the origin
			sp.shipLayout(p, opMap, v.Lo, v.Hi, v.Prot)
		}
		sp.asLock.Unlock(p)
		return old, nil
	}
	// Shrink: release [newBrk, old) like an unmap, pushing to replicas.
	lo, hi := mem.PageOf(newBrk), mem.PageOf(old)
	removed := sp.vmas.remove(lo, hi)
	sp.brk = newBrk
	sp.version++
	sp.svc.checker.LayoutApplied(sp.svc.node, int64(sp.gid), sp.version)
	for _, r := range removed {
		sp.scrubLocal(p, r.Lo, r.Hi)
		for v := r.Lo; v < r.Hi; v++ {
			delete(sp.dir, v)
		}
		sp.svc.checker.Unmapped(int64(sp.gid), r.Lo, r.Hi)
	}
	if sp.svc.failover {
		//popcornvet:allow locksend layout snapshots must reach the mirror in version order, so the ship happens under the asLock that assigned the version; the mirror-side handler only records the snapshot and never calls back into the origin
		sp.shipLayout(p, opUnmap, lo, hi, 0)
	}
	//popcornvet:allow locksend VMA updates must reach replicas in version order, so the push happens under the asLock that assigned the version; the replica-side handler applies the layout locally and never calls back into the origin
	err := sp.pushUpdate(p, vmaUpdate{GID: sp.gid, Op: opUnmap, Lo: lo, Hi: hi, Version: sp.version})
	sp.asLock.Unlock(p)
	return old, err
}
