package vm

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// handleVMAOp serves a forwarded layout operation at the origin.
func (s *Service) handleVMAOp(p *sim.Proc, m *msg.Message) *msg.Message {
	req := m.Payload.(*vmaOpReq)
	sp, ok := s.spaces[req.GID]
	if !ok || !sp.isOrigin {
		return msg.Reply(s.ep, m, sizeVMAReply, vmaOpReply{Err: fmt.Sprintf("kernel %d is not origin of group %d", s.node, req.GID)})
	}
	reply, err := sp.originLayout(p, *req)
	if err != nil {
		reply.Err = err.Error()
	}
	return msg.Reply(s.ep, m, sizeVMAReply, reply)
}

// handleVMAUpdate applies a pushed layout change on a replica.
func (s *Service) handleVMAUpdate(p *sim.Proc, m *msg.Message) *msg.Message {
	u := m.Payload.(*vmaUpdate)
	sp, ok := s.spaces[u.GID]
	if !ok {
		// The replica was dropped concurrently (group exit); ack anyway.
		return msg.Reply(s.ep, m, sizeSmallReq, vmaOpReply{})
	}
	// A pushed map (the eager-push ablation) only pre-populates the
	// replica's VMA cache; removals and re-protections also reach its pages.
	sp.layout.vmas.apply(*u)
	switch u.Op {
	case OpUnmap:
		sp.scrubLocal(p, u.Lo, u.Hi)
	case OpProtect:
		sp.applyProtectLocal(p, u.Lo, u.Hi, u.Prot)
	}
	sp.layout.version = max(sp.layout.version, u.Version)
	s.checker.LayoutApplied(s.node, int64(u.GID), sp.layout.version)
	return msg.Reply(s.ep, m, sizeSmallReq, vmaOpReply{Version: sp.layout.version})
}

// handleVMAFetch serves a replica's VMA cache miss at the origin.
func (s *Service) handleVMAFetch(p *sim.Proc, m *msg.Message) *msg.Message {
	req := m.Payload.(*vmaFetchReq)
	sp, ok := s.spaces[req.GID]
	if !ok || !sp.isOrigin {
		return msg.Reply(s.ep, m, sizeVMAReply, vmaFetchReply{})
	}
	sp.asLock.RLock(p)
	defer sp.asLock.RUnlock(p)
	vma, found := sp.layout.Find(req.VPN)
	return msg.Reply(s.ep, m, sizeVMAReply, vmaFetchReply{OK: found, VMA: vma, Version: sp.layout.version})
}

// handlePageFetch runs a directory transaction at the origin on behalf of a
// remote faulting kernel.
func (s *Service) handlePageFetch(p *sim.Proc, m *msg.Message) *msg.Message {
	req := m.Payload.(*pageFetchReq)
	sp, ok := s.spaces[req.GID]
	if !ok || !sp.isOrigin {
		return msg.Reply(s.ep, m, sizeVMAReply, grantError(fmt.Errorf("kernel %d is not origin of group %d", s.node, req.GID)))
	}
	// Count > 0 marks a prefetch (demand faults leave it zero). A
	// single-page prefetch must still take the batch path: the requester
	// installs from grant.Batch, and answering it with a scalar grant would
	// record a sharer that never materialises.
	if req.Count > 0 {
		sp.asLock.RLock(p)
		//popcornvet:allow locksend the shared asLock orders remote faults against concurrent VMA updates; the revocation handlers it can trigger touch only remote page tables and never take the origin asLock
		grant := sp.batchTransactions(p, m.From, req.VPN, req.Count)
		sp.asLock.RUnlock(p)
		size := sizeVMAReply
		for _, be := range grant.Batch {
			if be.Code == codeOK {
				size += hw.PageSize
			}
		}
		return msg.Reply(s.ep, m, size, *grant)
	}
	if req.Op.Kind != mem.OpLoad {
		// A forwarded write: apply it here, as a local thread would.
		val, err := sp.access(p, s.homeCoreHint(), req.Addr, req.Op)
		//popcornvet:allow dirver a forwarded-op reply installs no page copy (srcApplied); there is nothing for the replica to order
		grant := pageGrant{Value: val, Src: srcApplied}
		if err != nil {
			grant = grantError(err)
		}
		return msg.Reply(s.ep, m, sizeVMAReply, grant)
	}
	var grant pageGrant
	sp.asLock.RLock(p)
	//popcornvet:allow locksend the shared asLock orders remote faults against concurrent VMA updates; the revocation handlers it can trigger touch only remote page tables and never take the origin asLock
	err := sp.dirTransaction(p, m.From, req.VPN, req.Write, req.NoCopy, &grant)
	sp.asLock.RUnlock(p)
	if err != nil {
		grant = grantError(err)
	}
	return msg.Reply(s.ep, m, grantSize(grant), grant)
}

// handlePageInvalidate revokes this kernel's copy of a page on the origin's
// behalf.
func (s *Service) handlePageInvalidate(p *sim.Proc, m *msg.Message) *msg.Message {
	req := m.Payload.(*pageInval)
	sp, ok := s.spaces[req.GID]
	if !ok {
		return msg.Reply(s.ep, m, sizeSmallReq, pageInvalAck{})
	}
	// A full invalidation of a writable copy destroys the page's only
	// current contents: after applyInval the value exists solely in the ack
	// on its way to the origin, and an origin crash in that window would
	// strand the mirror one write behind. With failover on, the surrendering
	// owner closes the window itself: it ships the value to the holder's
	// successor *before* releasing the ack, so the mirror is never behind a
	// value the directory has committed to.
	surrender := false
	if s.fabric.Failover() && !req.Downgrade {
		if pte, held := sp.pt.Lookup(req.VPN); held && pte.Prot.Writable() {
			surrender = true
		}
	}
	ack := sp.applyInval(p, req.VPN, req.Downgrade, req.Version)
	if surrender && ack.HadCopy {
		s.shipSurrender(p, req.GID, req.VPN, ack.Value, req.Version)
	}
	return msg.Reply(s.ep, m, invalAckSize(ack), ack)
}
