package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// dirTransaction is the origin-side heart of the consistency protocol: it
// serialises on the page's directory entry, revokes conflicting copies, and
// produces the grant for the requesting kernel — into g, the caller's own
// storage, so the origin's local fault allocates nothing for it and the frames
// a blocked transaction keeps on its stack carry one copy, not one per level.
// The caller holds the address-space lock shared.
//
//popcornvet:allow locksend holding the directory-entry lock across the revocation RPCs is the protocol: it is what makes a page's ownership transition atomic. Invalidate handlers at remote kernels touch only their local page tables and never take origin directory locks, so no wait cycle can close.
func (sp *Space) dirTransaction(p *sim.Proc, req msg.NodeID, vpn mem.VPN, write, noCopy bool, g *pageGrant) error {
	// The vm.dir span covers the origin-side transaction: waiting for the
	// page's directory-entry lock plus any revocation fan-out. It runs under
	// vm.fault for local faults and under handle.page-fetch for remote ones.
	var dirScope trace.Scope
	if col := sp.svc.ep.Collector(); col != nil {
		dirScope = col.Begin(p, "vm.dir", int(sp.svc.node))
	}
	defer dirScope.End()
	// The requester's incarnation, for the sanitizer: see the Grant below.
	inc := sp.svc.fabric.Incarnation(req)
	vma, ok := sp.layout.Find(vpn)
	if err := refusal(vma, ok, vpn, write); err != nil {
		*g = pageGrant{Err: err}
		return nil
	}
	de, ok := sp.dir.Lookup(vpn)
	if !ok {
		de = &dirEntry{}
		de.mu.SetLabel(&dirEntryLabel)
		sp.dir.Set(vpn, de)
	}
	de.mu.Lock(p)
	defer de.mu.Unlock(p)
	if noCopy && de.state == pageShared {
		// The requester disclaims the read copy the directory has on record
		// (an abandoned prefetch or failed install left the directory ahead
		// of its page table). Believe the page table: drop the stale sharer
		// entry so the grant below transfers the data again instead of
		// assuming a copy that does not exist.
		if de.sharers.has(req) {
			de.sharers.remove(req)
			sp.svc.metrics.Counter("vm.dir.desync_repaired").Inc()
		}
	}
	ver := de.nextVersion()
	// Every locked directory transaction is one protocol-relative commit for
	// the fault plane's origin-crash triggers (a nil check when no plan).
	sp.svc.fabric.RecordDirCommit(sp.svc.node)
	rec, err := sp.dirApply(p, req, vpn, de, vma, ver, write, noCopy, g)
	if err != nil {
		return err
	}
	if sp.svc.fabric.Failover() {
		// Mirror the committed entry to the successor before the grant is
		// released: still under de.mu, so the per-entry replication stream
		// is ordered, and the requester can never act on a grant the
		// successor has not logged.
		sp.shipDirEntry(p, vpn, de)
	}
	// The grant exists from here on: the mirror has logged it and the reply
	// is about to leave. An origin that dies mid-ship never gets here, so the
	// sanitizer never counts a grant that was never sent. A requester that
	// rebooted while the transaction ran is gone like a dead one: the reply
	// is fenced at its new incarnation and never installs, and the rejoin's
	// PeerDied sweep, queued on de.mu, takes it out of the entry.
	lost := sp.svc.fabric.Incarnation(req) != inc
	sp.svc.checker.Grant(p, int64(sp.gid), vpn, req, rec.exclusive, rec.fresh, rec.value, lost)
	return nil
}

// refusal is the error a fault on vpn gets instead of a grant, or nil: the
// page is unmapped (mapped false) or vma's protection forbids the access. Out
// of dirTransaction, whose frame every process parked in its fan-out keeps.
func refusal(vma VMA, mapped bool, vpn mem.VPN, write bool) error {
	switch {
	case !mapped:
		return fmt.Errorf("%w: page %#x unmapped", ErrSegv, uint64(vpn.Base()))
	case write && !vma.Prot.Writable():
		return fmt.Errorf("%w: write to %v page", ErrAccess, vma.Prot)
	case !vma.Prot.Readable():
		return fmt.Errorf("%w: %v page", ErrAccess, vma.Prot)
	}
	return nil
}

// grantRec is the sanitizer's record of the grant one transition decided (see
// sanitize.Checker.Grant); dirTransaction reports it once the grant is released.
type grantRec struct {
	exclusive, fresh bool
	value            int64
}

// dirApply performs the MSI state transition for one locked directory entry,
// produces the grant into g and returns the sanitizer's record of it. Split
// from dirTransaction so the failover plane can ship the entry's
// post-transaction snapshot between the transition and the grant's release.
func (sp *Space) dirApply(p *sim.Proc, req msg.NodeID, vpn mem.VPN, de *dirEntry, vma VMA, ver uint64, write, noCopy bool, g *pageGrant) (grantRec, error) {
	sharedProt := vma.Prot &^ mem.ProtWrite
	exclusiveProt := vma.Prot

	switch de.state {
	case pageUnmapped:
		// A fresh entry zero-fills. A reclaimed entry (its owner's kernel
		// died) re-grants the directory's last written-back value, faulted
		// back from the home node.
		src := srcZeroFill
		if de.reclaimed {
			src = int(sp.origin)
		}
		if write {
			de.state = pageModified
			de.setOwner(req)
			*g = pageGrant{Value: de.value, Src: src, Prot: exclusiveProt, Version: ver}
			return grantRec{exclusive: true, fresh: true, value: de.value}, nil
		}
		de.state = pageShared
		de.sharers = 0
		de.sharers.add(req)
		*g = pageGrant{Value: de.value, Src: src, Prot: sharedProt, Version: ver}
		return grantRec{exclusive: false, fresh: true, value: de.value}, nil

	case pageShared:
		isSharer := de.sharers.has(req)
		if !write {
			de.sharers.add(req)
			src := int(sp.origin)
			if isSharer {
				src = srcHaveCopy
			}
			*g = pageGrant{Value: de.value, Src: src, Prot: sharedProt, Version: ver}
			return grantRec{exclusive: false, fresh: !isSharer, value: de.value}, nil
		}
		// Write on a shared page: revoke every other copy, then grant
		// exclusive.
		sp.revokeCopies(p, de.sharers, req, vpn, false, ver)
		de.state = pageModified
		de.setOwner(req)
		de.sharers = 0
		src := int(sp.origin)
		if isSharer {
			src = srcHaveCopy
		}
		*g = pageGrant{Value: de.value, Src: src, Prot: exclusiveProt, Version: ver}
		return grantRec{exclusive: true, fresh: !isSharer, value: de.value}, nil

	case pageModified:
		if de.owner() == req {
			if noCopy {
				// The recorded owner disclaims its exclusive copy. A promoted
				// directory can be ahead of the owner's page table this way:
				// the copy was surrendered to the old origin in a revocation
				// whose commit died with it. Believe the page table and
				// transfer the directory's preserved value instead of
				// re-granting data that no longer exists.
				sp.svc.metrics.Counter("vm.dir.desync_repaired").Inc()
				if write {
					*g = pageGrant{Value: de.value, Src: int(sp.origin), Prot: exclusiveProt, Version: ver}
					return grantRec{exclusive: true, fresh: true, value: de.value}, nil
				}
				de.state = pageShared
				de.sharers = 0
				de.sharers.add(req)
				de.setOwner(0)
				*g = pageGrant{Value: de.value, Src: int(sp.origin), Prot: sharedProt, Version: ver}
				return grantRec{exclusive: false, fresh: true, value: de.value}, nil
			}
			// The owner lost PTE bits (mprotect round trip) but still has
			// the data; re-grant in place.
			*g = pageGrant{Src: srcHaveCopy, Prot: exclusiveProt, Version: ver}
			return grantRec{exclusive: true}, nil
		}
		old := de.owner()
		ack := sp.revokeOwner(p, old, vpn, !write, ver)
		if ack.HadCopy {
			de.value = ack.Value
		}
		if write {
			de.setOwner(req)
			*g = pageGrant{Value: de.value, Src: int(old), Prot: exclusiveProt, Version: ver}
			return grantRec{exclusive: true, fresh: true, value: de.value}, nil
		}
		de.state = pageShared
		de.sharers = 0
		de.sharers.add(req)
		if ack.HadCopy {
			// The old owner kept a downgraded read copy.
			de.sharers.add(old)
		}
		de.setOwner(0)
		*g = pageGrant{Value: de.value, Src: int(old), Prot: sharedProt, Version: ver}
		return grantRec{exclusive: false, fresh: true, value: de.value}, nil
	}
	return grantRec{}, fmt.Errorf("vm: directory entry for %#x in impossible state %d", uint64(vpn.Base()), de.state)
}

// revokeCopies invalidates the read copies of every kernel in sharers but req
// (the origin's own copy is handled locally; remote copies over the fabric, in
// parallel). It lists the kernels in a buffer off the service's free list,
// kept until the fan-out returns.
func (sp *Space) revokeCopies(p *sim.Proc, sharers nodeMask, req msg.NodeID, vpn mem.VPN, downgrade bool, ver uint64) {
	buf := sim.Take(&sp.svc.revokeFree)
	if buf == nil {
		buf = new([]msg.NodeID)
	}
	*buf = sharers.nodes(*buf, req)
	remote := (*buf)[:0]
	for _, t := range *buf {
		if sp.svc.injectSkipRevoke && t == sp.svc.skipRevokeTarget {
			// Deliberately broken protocol (sanitizer tests): leave the
			// stale copy in place.
			sp.svc.metrics.Counter("vm.inject.skipped").Inc()
			continue
		}
		if t == sp.svc.node {
			ack := sp.applyInval(p, vpn, downgrade, ver)
			sp.svc.checker.Revoked(p, int64(sp.gid), vpn, t, downgrade, ack.HadCopy, ack.Value)
		} else {
			remote = append(remote, t)
		}
	}
	if len(remote) == 0 {
		sim.Give(&sp.svc.revokeFree, buf)
		return
	}
	sp.svc.metrics.CounterIn(&sp.svc.hot.invalSent, "vm.inval.sent").Add(uint64(len(remote)))
	// Origin-role traffic carries the origin epoch: if this kernel dies and
	// later rejoins, copies of this invalidation still in flight are fenced
	// at delivery instead of revoking pages behind the promoted successor's
	// back.
	pageInvalidate.Each(p, sp.svc.ep, remote, OriginKernelOf(sp.gid),
		&pageInval{GID: sp.gid, VPN: vpn, Downgrade: downgrade, Version: ver}, func(i int, ack *pageInvalAck, err error) {
			switch {
			case err == nil:
				sp.svc.checker.Revoked(p, int64(sp.gid), vpn, remote[i], downgrade, ack.HadCopy, ack.Value)
			case msg.IsDeadPeer(err):
				// The sharer's kernel died: its copy is gone with it, which is
				// exactly what an invalidation would have achieved. No Revoked
				// commit — the sanitizer's crash sweep already forgot the copy.
				sp.svc.metrics.Counter("vm.inval.deadpeer").Inc()
			default:
				panic(fmt.Sprintf("vm: invalidation fan-out failed: %v", err))
			}
		})
	sim.Give(&sp.svc.revokeFree, buf)
}

// revokeOwner revokes (or downgrades) the exclusive copy at the owning
// kernel and returns the written-back contents.
func (sp *Space) revokeOwner(p *sim.Proc, owner msg.NodeID, vpn mem.VPN, downgrade bool, ver uint64) pageInvalAck {
	if sp.svc.injectSkipRevoke && owner == sp.svc.skipRevokeTarget {
		// Deliberately broken protocol (sanitizer tests): the owner keeps
		// its writable copy and no write-back happens.
		sp.svc.metrics.Counter("vm.inject.skipped").Inc()
		return pageInvalAck{}
	}
	if owner == sp.svc.node {
		ack := sp.applyInval(p, vpn, downgrade, ver)
		sp.svc.checker.Revoked(p, int64(sp.gid), vpn, owner, downgrade, ack.HadCopy, ack.Value)
		return ack
	}
	sp.svc.metrics.CounterIn(&sp.svc.hot.invalSent, "vm.inval.sent").Inc()
	// Epoch-stamped like the copy fan-out above (see revokeCopies).
	ack, err := pageInvalidate.Call(p, sp.svc.ep, owner, OriginKernelOf(sp.gid),
		&pageInval{GID: sp.gid, VPN: vpn, Downgrade: downgrade, Version: ver})
	if err != nil {
		if msg.IsDeadPeer(err) {
			// The owner died before writing back: its copy (and any writes
			// not yet written back) are lost with the kernel. The directory's
			// last known value stands; the sanitizer saw the crash while the
			// owner still shadowed as writable, so the value is redefined by
			// the next grant rather than checked against the lost write-back.
			sp.svc.metrics.Counter("vm.inval.deadpeer").Inc()
			return pageInvalAck{}
		}
		panic(fmt.Sprintf("vm: owner revocation failed: %v", err))
	}
	sp.svc.checker.Revoked(p, int64(sp.gid), vpn, owner, downgrade, ack.HadCopy, ack.Value)
	return ack
}

// applyInval executes an invalidation against this kernel's copy of the
// page: mark racing faults stale, strip the PTE (or its write bit), release
// the frame on full invalidation, and charge the TLB shootdown.
//
// The sanitizer is deliberately NOT told here. The revocation only takes
// effect at the origin when the ack arrives — that is where the directory
// commits the written-back value — and a revokee can die with its ack in
// flight, in which case the write-back is lost and the directory keeps its
// older value. Committing the shadow at the revokee would make that
// legitimate degradation look like a stale-read violation, so the caller
// (revokeOwner/revokeCopies, at the origin) drives Checker.Revoked from the
// ack instead.
func (sp *Space) applyInval(p *sim.Proc, vpn mem.VPN, downgrade bool, ver uint64) pageInvalAck {
	var ack pageInvalAck
	if pend, ok := sp.pending[vpn]; ok {
		pend.invalidated = true
		if ver > pend.invalVersion {
			pend.invalVersion = ver
		}
	}
	pte, ok := sp.pt.Lookup(vpn)
	if !ok {
		return ack
	}
	ack.HadCopy = true
	ack.Value = pte.Word
	if downgrade {
		pte.Prot &^= mem.ProtWrite
		sp.pt.Set(vpn, pte)
	} else {
		sp.pt.Clear(vpn)
		if pte.Frame != mem.NoFrame {
			sp.svc.frames.FreeFrame(p, pte.Frame)
		}
	}
	p.Sleep(sp.svc.machine.TLBShootdown(sp.shootdownCores(), false))
	sp.svc.metrics.CounterIn(&sp.svc.hot.invalApplied, "vm.inval.applied").Inc()
	return ack
}
