package vm

import (
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Load reads the word at addr from a thread running on the given core of
// this kernel, resolving faults through the consistency protocol as needed.
func (sp *Space) Load(p *sim.Proc, core int, addr mem.Addr) (int64, error) {
	return sp.access(p, core, addr, mem.Op{Kind: mem.OpLoad})
}

// Store writes val to addr from a thread running on the given core of this
// kernel, acquiring exclusive page ownership as needed.
func (sp *Space) Store(p *sim.Proc, core int, addr mem.Addr, val int64) error {
	_, err := sp.access(p, core, addr, mem.Op{Kind: mem.OpStore, Val: val})
	return err
}

// CompareAndSwap atomically replaces the word at addr with new if it equals
// old, reporting whether the swap happened. The page is brought in
// exclusively either way, as a hardware CAS would.
func (sp *Space) CompareAndSwap(p *sim.Proc, core int, addr mem.Addr, old, new int64) (bool, error) {
	prior, err := sp.access(p, core, addr, mem.Op{Kind: mem.OpCAS, Val: new, Old: old})
	return err == nil && prior == old, err
}

// FetchAdd atomically adds delta to the word at addr and returns the
// previous value.
func (sp *Space) FetchAdd(p *sim.Proc, core int, addr mem.Addr, delta int64) (int64, error) {
	return sp.access(p, core, addr, mem.Op{Kind: mem.OpFetchAdd, Val: delta})
}

// maxFaultRetries bounds fault retry loops; a page ping-ponging this many
// times in one access indicates a protocol bug, not workload behaviour.
const maxFaultRetries = 64

// retryFailover reports whether a fault-path error should be retried
// because the group's origin died while the failover plane is on; it
// sleeps msg.FailoverRetryDelay before returning true. Declared-dead
// fast-fails consume no virtual time, so without pacing the retry budget
// would burn out at one instant; with it, maxFaultRetries spans comfortably
// more than the detection-plus-handover window, and the retried fault lands
// on the promoted origin once the handover announcement re-points sp.origin.
func (sp *Space) retryFailover(p *sim.Proc, err error) bool {
	if !sp.svc.fabric.Failover() || !msg.IsDeadPeer(err) {
		return false
	}
	sp.svc.metrics.Counter("vm.fault.failover_retry").Inc()
	p.Sleep(msg.FailoverRetryDelay)
	return true
}

// beginFault registers an in-flight fault on vpn, on a recycled record.
func (sp *Space) beginFault(vpn mem.VPN) *pendingFault {
	pend := sim.Take(&sp.pendFree)
	if pend == nil {
		pend = &pendingFault{}
	}
	sp.pending[vpn] = pend
	return pend
}

// endFault retires vpn's fault and releases the faults coalesced behind it.
// They re-walk without looking at the record again, so it is free at once.
func (sp *Space) endFault(vpn mem.VPN, pend *pendingFault) {
	delete(sp.pending, vpn)
	pend.done.Broadcast()
	*pend = pendingFault{}
	sim.Give(&sp.pendFree, pend)
}

func (sp *Space) access(p *sim.Proc, core int, addr mem.Addr, op mem.Op) (int64, error) {
	vpn := mem.PageOf(addr)
	write := op.Kind != mem.OpLoad
	if write && sp.svc.writeForwarding && !sp.isOrigin {
		return sp.forwardWrite(p, addr, op)
	}
	noCopy := false
	for attempt := 0; attempt < maxFaultRetries; attempt++ {
		vma, err := sp.lookupVMA(p, vpn)
		if err != nil {
			if sp.retryFailover(p, err) {
				continue
			}
			return 0, err
		}
		if write && !vma.Prot.Writable() {
			return 0, fmt.Errorf("%w: write to %v page %#x", ErrAccess, vma.Prot, uint64(addr))
		}
		if !write && !vma.Prot.Readable() {
			return 0, fmt.Errorf("%w: read of %v page %#x", ErrAccess, vma.Prot, uint64(addr))
		}
		// Fast path: a sufficient PTE means the hardware walk succeeds.
		// The value mutation happens atomically at the check (before any
		// blocking), matching TLB-shootdown semantics: once an
		// invalidation has been acknowledged, no core can still land a
		// write through the revoked mapping.
		if pte, ok := sp.pt.Lookup(vpn); ok {
			sufficient := pte.Prot.Readable() && (!write || pte.Prot.Writable())
			if sufficient {
				res := sp.performAccess(p, vpn, pte, op)
				p.Sleep(sp.svc.machine.MemAccess(core, int(pte.HomeNode)))
				return res.value, nil
			}
		}
		// Page fault.
		p.Sleep(sp.svc.machine.Cost.PageFaultTrap)
		faultStart := p.Now()
		if pend, ok := sp.pending[vpn]; ok {
			// Another local thread is resolving this page: coalesce.
			sp.svc.metrics.CounterIn(&sp.svc.hot.faultCoalesced, "vm.fault.coalesced").Inc()
			pend.done.Wait(p)
			continue
		}
		pend := sp.beginFault(vpn)
		// The vm.fault span covers this kernel's fault resolution: the
		// directory transaction (local) or the PageFetch round trip (remote)
		// plus installing the grant. The trap cost and coalesced waits stay
		// outside it — they are the *caller's* time, not the protocol's.
		var faultScope trace.Scope
		if col := sp.svc.ep.Collector(); col != nil {
			faultScope = col.Begin(p, "vm.fault", int(sp.svc.node))
		}
		res, err := sp.resolveFault(p, vpn, op, pend, noCopy)
		faultScope.End()
		sp.endFault(vpn, pend)
		if err != nil {
			// An origin that died mid-fault is retried (paced) when failover
			// is on: the successor promotes itself and the handover
			// announcement re-points this replica at it.
			if sp.retryFailover(p, err) {
				continue
			}
			return 0, err
		}
		if sp.isOrigin {
			sp.svc.metrics.HistogramIn(&sp.svc.hot.latLocal, "vm.fault.latency.local").Observe(p.Now().Sub(faultStart))
		} else {
			sp.svc.metrics.HistogramIn(&sp.svc.hot.latRemote, "vm.fault.latency.remote").Observe(p.Now().Sub(faultStart))
		}
		if res.completed {
			// The faulting access was performed atomically at install
			// time (the analogue of the CPU retrying the instruction
			// before the next shootdown IPI lands), so progress is
			// guaranteed even under heavy write contention.
			return res.value, nil
		}
		if res.lostCopy {
			sp.svc.metrics.Counter("vm.fault.desync").Inc()
			noCopy = true
		}
		sp.svc.metrics.CounterIn(&sp.svc.hot.faultRetried, "vm.fault.retried").Inc()
		// A racing invalidation or layout change voided the grant; redo
		// the walk from the top.
	}
	return 0, fmt.Errorf("vm: access to %#x did not settle after %d fault retries", uint64(addr), maxFaultRetries)
}

// accessResult is the outcome of a fault resolution: completed means the
// faulting access itself was performed during installation; lostCopy means
// the grant assumed this kernel still held a copy that its page table does
// not have, so the retry must disclaim it to the directory.
type accessResult struct {
	value     int64
	completed bool
	lostCopy  bool
}

// lookupVMA finds the VMA covering the page, consulting the origin on a
// replica cache miss.
func (sp *Space) lookupVMA(p *sim.Proc, vpn mem.VPN) (VMA, error) {
	if v, ok := sp.layout.Find(vpn); ok {
		return v, nil
	}
	if sp.isOrigin {
		return VMA{}, fmt.Errorf("%w: page %#x", ErrSegv, uint64(vpn.Base()))
	}
	sp.svc.metrics.CounterIn(&sp.svc.hot.vmaFetch, "vm.vmafetch").Inc()
	r, err := vmaFetch.Call(p, sp.svc.ep, sp.origin, msg.NoRole, &vmaFetchReq{GID: sp.gid, VPN: vpn})
	if err != nil {
		return VMA{}, err
	}
	if !r.OK {
		return VMA{}, fmt.Errorf("%w: page %#x", ErrSegv, uint64(vpn.Base()))
	}
	sp.cacheVMA(r.VMA, r.Version)
	return r.VMA, nil
}

// resolveFault obtains access to the page from the directory (locally at
// the origin, over a PageFetch RPC elsewhere) and installs the result,
// performing the faulting access atomically with the installation unless a
// racing invalidation voided the grant.
func (sp *Space) resolveFault(p *sim.Proc, vpn mem.VPN, op mem.Op, pend *pendingFault, noCopy bool) (accessResult, error) {
	write := op.Kind != mem.OpLoad
	grant := &pend.grant
	if sp.isOrigin {
		sp.svc.metrics.CounterIn(&sp.svc.hot.faultLocal, "vm.fault.local").Inc()
		sp.asLock.RLock(p)
		//popcornvet:allow locksend the shared asLock orders this fault against concurrent VMA updates; the revocation handlers it can trigger touch only remote page tables and never take the origin asLock
		err := sp.dirTransaction(p, sp.svc.node, vpn, write, noCopy, grant)
		sp.asLock.RUnlock(p)
		if err != nil {
			return accessResult{}, err
		}
	} else {
		sp.svc.metrics.CounterIn(&sp.svc.hot.faultRemote, "vm.fault.remote").Inc()
		g, err := pageFetch.Call(p, sp.svc.ep, sp.origin, msg.NoRole,
			&pageFetchReq{GID: sp.gid, VPN: vpn, Write: write, NoCopy: noCopy})
		if err != nil {
			return accessResult{}, err
		}
		*grant = g
	}
	if grant.Err != nil {
		return accessResult{}, grant.Err
	}
	// Everything the wire delivered to this kernel before the grant is
	// already processed (per-pair FIFO), so any invalidation marks so far
	// predate the grant and are consistent with its view: clear them. Under
	// a fault plan FIFO no longer holds — a delayed grant reply can be
	// overtaken by the invalidation that revokes it — so order them by
	// directory version instead: a grant whose transaction postdates every
	// revocation observed during the fault is fresh and may install; an
	// older grant was genuinely overtaken, so keep the mark and let the
	// access loop retry with a fresh fetch. (Under FIFO the grant's version
	// always exceeds any prior invalidation's, so faults-off behaviour is
	// unchanged; layout scrubs pin invalVersion to ^uint64(0) because they
	// void any grant.)
	if sp.svc.ep.Ordered() || grant.Version > pend.invalVersion {
		pend.invalidated = false
	}
	return sp.install(p, vpn, grant, pend, op)
}

// install materialises a grant and performs the faulting access. The state
// mutation and the access happen atomically at the invalidation check (no
// blocking in between); the hardware costs are charged afterwards. This
// guarantees that a granted fault makes progress: the access linearises
// before any later revocation, which will then simply write the new
// contents back.
func (sp *Space) install(p *sim.Proc, vpn mem.VPN, g *pageGrant, pend *pendingFault, op mem.Op) (accessResult, error) {
	if g.Src == srcHaveCopy {
		if pend.invalidated {
			return accessResult{}, nil
		}
		pte, ok := sp.pt.Lookup(vpn)
		if !ok {
			// The directory believes this kernel holds a copy, but the page
			// table disagrees: either a racing reclaim (the retry resolves
			// it) or the directory is genuinely ahead — an abandoned
			// prefetch or a failed install recorded a sharer that never
			// materialised. The retry disclaims the copy so the origin
			// repairs its entry and transfers the data; without that the
			// access loop would redraw this same grant forever.
			return accessResult{lostCopy: true}, nil
		}
		pte.Prot = g.Prot
		sp.pt.Set(vpn, pte)
		res := sp.performAccess(p, vpn, pte, op)
		p.Sleep(sp.svc.machine.Cost.PTESet)
		return res, nil
	}
	// The allocation may block on the kernel's frame lock; it happens
	// before the final check so the check-and-mutate below stays atomic.
	frame, home, err := sp.svc.frames.AllocFrame(p)
	if err != nil {
		sp.svc.metrics.Counter("vm.fault.enomem").Inc()
		return accessResult{}, fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	if pend.invalidated {
		sp.svc.frames.FreeFrame(p, frame)
		return accessResult{}, nil
	}
	if g.Src == srcZeroFill {
		sp.svc.metrics.CounterIn(&sp.svc.hot.zeroFill, "vm.page.zerofill").Inc()
	} else {
		sp.svc.metrics.CounterIn(&sp.svc.hot.transfer, "vm.page.transfer").Inc()
	}
	pte := mem.PTE{Frame: frame, Word: g.Value, Prot: g.Prot, HomeNode: uint8(home)}
	sp.pt.Set(vpn, pte)
	res := sp.performAccess(p, vpn, pte, op)
	p.Sleep(sp.svc.machine.Cost.PageCopyLocal + sp.svc.machine.Cost.PTESet)
	return res, nil
}

// performAccess applies op to the local copy, pte, the page's current entry.
// It must be called with no intervening blocking after the sufficiency check
// or installation: this is the access's linearisation point, which is also
// where the sanitizer checks it.
func (sp *Space) performAccess(p *sim.Proc, vpn mem.VPN, pte mem.PTE, op mem.Op) accessResult {
	cur := pte.Word
	next, result, wrote := op.Apply(cur)
	if wrote {
		pte.Word = next
		sp.pt.Set(vpn, pte)
	}
	switch op.Kind {
	case mem.OpLoad:
		sp.svc.checker.AccessRead(p, sp.svc.node, int64(sp.gid), vpn, cur)
	case mem.OpStore:
		sp.svc.checker.AccessWrite(p, sp.svc.node, int64(sp.gid), vpn, next)
	default:
		sp.svc.checker.AccessRMW(p, sp.svc.node, int64(sp.gid), vpn, cur, next, wrote)
	}
	return accessResult{value: result, completed: true}
}

// forwardWrite ships a write-class operation to the origin (the D5
// ablation): the origin performs the access against its own copy — which
// revokes any conflicting replicas through the ordinary directory path —
// and returns the access's result. No ownership ever moves to this kernel.
func (sp *Space) forwardWrite(p *sim.Proc, addr mem.Addr, op mem.Op) (int64, error) {
	req := pageFetchReq{GID: sp.gid, VPN: mem.PageOf(addr), Addr: addr, Op: op}
	sp.svc.metrics.Counter("vm.write.forwarded").Inc()
	grant, err := pageFetch.Call(p, sp.svc.ep, sp.origin, msg.NoRole, &req)
	if err != nil {
		return 0, err
	}
	if grant.Err != nil {
		return 0, grant.Err
	}
	return grant.Value, nil
}

// Prefetch brings up to `pages` consecutive pages starting at addr into
// this kernel as read copies using a single batched round trip to the
// origin — the madvise(WILLNEED) analogue for the distributed address
// space. Pages that are already resident, pending, or unmapped are
// skipped; the call is advisory and never fails the caller for per-page
// conditions. It returns how many pages were installed.
func (sp *Space) Prefetch(p *sim.Proc, core int, addr mem.Addr, pages int) (int, error) {
	if pages <= 0 {
		return 0, nil
	}
	first := mem.PageOf(addr)
	if sp.isOrigin {
		// At the origin every fetch is local, but pages owned elsewhere
		// each cost an owner round trip — overlap them.
		n := 0
		wg := sim.NewWaitGroup()
		for i := 0; i < pages; i++ {
			vpn := first + mem.VPN(i)
			if _, ok := sp.pt.Lookup(vpn); ok {
				continue
			}
			wg.Add(1)
			parentSpan := p.Span()
			sp.svc.e.Spawn("vm-prefetch", func(fp *sim.Proc) {
				defer wg.Done()
				fp.SetSpan(parentSpan)
				if _, err := sp.access(fp, core, vpn.Base(), mem.Op{Kind: mem.OpLoad}); err == nil {
					n++
				}
			})
		}
		wg.Wait(p)
		return n, nil
	}
	if sp.svc.ep.PeerHealth(sp.origin) == msg.PeerSlow {
		// The gray detector marked the origin link sick: speculative batch
		// fetches are exactly the load a degraded link cannot absorb, and
		// demand faults will still get through on their own. Advisory call,
		// advisory shed — the caller just runs without the warm cache.
		sp.svc.metrics.Counter("vm.prefetch.shed").Inc()
		return 0, nil
	}
	// Register pendings for the pages we will request so concurrent
	// faults coalesce and racing invalidations void individual entries.
	type slot struct {
		vpn  mem.VPN
		pend *pendingFault
	}
	var want []slot
	for i := 0; i < pages; i++ {
		vpn := first + mem.VPN(i)
		_, resident := sp.pt.Lookup(vpn)
		_, busy := sp.pending[vpn]
		if resident || busy {
			// The batch request is a contiguous (VPN, Count) range and the
			// origin records a sharer for every page it grants, so a hole —
			// a page this kernel will not install — would leave the
			// directory ahead of the page table. End the batch at the first
			// hole instead of spanning it; later pages stay demand-faulted.
			if len(want) > 0 {
				break
			}
			continue
		}
		want = append(want, slot{vpn: vpn, pend: sp.beginFault(vpn)})
	}
	if len(want) == 0 {
		return 0, nil
	}
	finish := func() {
		for _, s := range want {
			sp.endFault(s.vpn, s.pend)
		}
	}
	sp.svc.metrics.Counter("vm.prefetch").Inc()
	count := int(want[len(want)-1].vpn-want[0].vpn) + 1
	grant, err := pageFetch.Call(p, sp.svc.ep, sp.origin, msg.NoRole,
		&pageFetchReq{GID: sp.gid, VPN: want[0].vpn, Count: count})
	if err != nil {
		finish()
		if msg.IsBackpressure(err) {
			// Prefetch is advisory: under overload it is the first load to
			// shed, not an error the caller should see.
			sp.svc.metrics.Counter("vm.prefetch.shed").Inc()
			return 0, nil
		}
		return 0, err
	}
	if grant.Err != nil {
		finish()
		return 0, grant.Err
	}
	installed := 0
	for _, s := range want {
		idx := int(s.vpn - want[0].vpn)
		if idx >= len(grant.Batch) {
			break
		}
		be := grant.Batch[idx]
		if be.Err != nil || s.pend.invalidated {
			continue
		}
		frame, home, err := sp.svc.frames.AllocFrame(p)
		if err != nil {
			break
		}
		if s.pend.invalidated {
			sp.svc.frames.FreeFrame(p, frame)
			continue
		}
		sp.pt.Set(s.vpn, mem.PTE{Frame: frame, Word: be.Value, Prot: be.Prot, HomeNode: uint8(home)})
		installed++
	}
	// Charge the fills once, overlapping the copies as hardware would.
	if installed > 0 {
		p.Sleep(time.Duration(installed) * (sp.svc.machine.Cost.PageCopyLocal + sp.svc.machine.Cost.PTESet))
		sp.svc.metrics.Counter("vm.prefetch.pages").Add(uint64(installed))
	}
	finish()
	return installed, nil
}

// batchTransactions serves a prefetch at the origin: read transactions for
// every page in the range run concurrently (their owner revocations
// overlap), collected into one grant. The caller holds the address-space
// lock shared for the whole batch.
func (sp *Space) batchTransactions(p *sim.Proc, req msg.NodeID, first mem.VPN, count int) *pageGrant {
	//popcornvet:allow dirver the batch envelope carries no page itself; the requester installs entries under the asLock held across the whole prefetch, which orders them against every concurrent directory transaction
	out := &pageGrant{Batch: make([]batchEntry, count)}
	wg := sim.NewWaitGroup()
	parentSpan := p.Span()
	for i := 0; i < count; i++ {
		i := i
		wg.Add(1)
		sp.svc.e.Spawn("vm-batch", func(bp *sim.Proc) {
			defer wg.Done()
			bp.SetSpan(parentSpan)
			var g pageGrant
			if err := sp.dirTransaction(bp, req, first+mem.VPN(i), false, false, &g); err != nil {
				out.Batch[i] = batchEntry{Err: err}
				return
			}
			out.Batch[i] = batchEntry{Err: g.Err, Value: g.Value, Src: g.Src, Prot: g.Prot}
		})
	}
	wg.Wait(p)
	return out
}
