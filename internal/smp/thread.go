package smp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Thread is a running SMP thread.
type Thread struct {
	pr   *Process
	p    *sim.Proc
	tid  int64
	core int
	// woken is set when a futex wake or requeue releases the thread.
	woken bool
}

var _ osi.Thread = (*Thread)(nil)

// Proc implements osi.Thread.
func (t *Thread) Proc() *sim.Proc { return t.p }

// ID implements osi.Thread.
func (t *Thread) ID() int64 { return t.tid }

// KernelID implements osi.Thread: SMP has a single kernel 0.
func (t *Thread) KernelID() int { return 0 }

// Core implements osi.Thread.
func (t *Thread) Core() int { return t.core }

// Compute implements osi.Thread.
func (t *Thread) Compute(d time.Duration) {
	t.core = t.pr.os.sched.Run(t.p, d)
}

// Mmap implements osi.Thread: mmap_sem exclusive plus the VMA work.
func (t *Thread) Mmap(length uint64, prot mem.Prot) (mem.Addr, error) {
	if length == 0 {
		return 0, fmt.Errorf("%w: zero-length map", vm.ErrBadRange)
	}
	o := t.pr.os
	t.p.Sleep(o.machine.Cost.SyscallTrap)
	o.metrics.Counter("smp.mmap").Inc()
	start := t.p.Now()
	addr, err := t.layout(vm.OpMap, 0, length, prot)
	o.metrics.Histogram("smp.mmap.latency").Observe(t.p.Now().Sub(start))
	return addr, err
}

// Sbrk implements osi.Thread: brk(2) under mmap_sem.
func (t *Thread) Sbrk(delta int64) (mem.Addr, error) {
	t.p.Sleep(t.pr.os.machine.Cost.SyscallTrap)
	return t.layout(vm.OpBrk, 0, uint64(delta), 0)
}

// Munmap implements osi.Thread: mmap_sem exclusive, PTE teardown, zone
// frees and a machine-wide TLB shootdown.
func (t *Thread) Munmap(addr mem.Addr, length uint64) error {
	if err := vm.CheckRange(addr, length); err != nil {
		return err
	}
	t.p.Sleep(t.pr.os.machine.Cost.SyscallTrap)
	t.pr.os.metrics.Counter("smp.munmap").Inc()
	_, err := t.layout(vm.OpUnmap, addr, length, 0)
	return err
}

// Mprotect implements osi.Thread.
func (t *Thread) Mprotect(addr mem.Addr, length uint64, prot mem.Prot) error {
	if err := vm.CheckRange(addr, length); err != nil {
		return err
	}
	t.p.Sleep(t.pr.os.machine.Cost.SyscallTrap)
	t.pr.os.metrics.Counter("smp.mprotect").Inc()
	_, err := t.layout(vm.OpProtect, addr, length, prot)
	return err
}

// layout runs one layout operation under mmap_sem exclusive: the decision
// the replicated kernel's origin makes (vm.Layout.Resolve), then this
// process's pages — the removed ranges lose their entries and frames, a
// protect strips PTE bits — and one TLB shootdown across the process's
// cores if any entry changed.
func (t *Thread) layout(op vm.LayoutOp, addr mem.Addr, length uint64, prot mem.Prot) (mem.Addr, error) {
	o := t.pr.os
	mm := t.pr.mm
	mm.mmapSem.Lock(t.p)
	defer mm.mmapSem.Unlock(t.p)
	t.p.Sleep(o.machine.LineBounce(o.capSharers(mm.mmapSem.Waiters()), o.crossNode()) + o.machine.Cost.VMAOp)
	at, u, removed, err := mm.layout.Resolve(op, addr, length, prot)
	if err != nil {
		return 0, err
	}
	touched := 0
	var buf [16]mem.PTE
	for _, r := range removed {
		for _, pte := range mm.pt.ClearRange(buf[:0], r.Lo, r.Hi) {
			if pte.Frame != mem.NoFrame {
				o.zones[pte.HomeNode].FreeFrame(t.p, pte.Frame)
				touched++
			}
		}
	}
	if u.Op == vm.OpProtect {
		touched += mm.pt.Protect(u.Lo, u.Hi, u.Prot)
	}
	if touched > 0 {
		remote, cross := mm.shootdownRemote()
		t.p.Sleep(o.machine.TLBShootdown(remote, cross))
	}
	return at, nil
}

// access is the SMP memory path: hardware-coherent, so no protocol — just
// the fault path (mmap_sem shared + zone alloc) on first touch and
// cache-line transfer costs for cross-core sharing. The page's word and its
// last writer live in its entry.
func (t *Thread) access(addr mem.Addr, op mem.Op) (int64, error) {
	o := t.pr.os
	mm := t.pr.mm
	vpn := mem.PageOf(addr)
	write := op.Kind != mem.OpLoad
	pte, ok := mm.pt.Lookup(vpn)
	if !ok || !covers(pte.Prot, write) {
		if err := t.fault(vpn, write, ok); err != nil {
			return 0, err
		}
		// The fault left the entry installed, and nothing has blocked since
		// it dropped mmap_sem.
		pte, ok = mm.pt.Lookup(vpn)
	}
	home := int(pte.HomeNode)
	// Hardware coherence: pulling a line another core dirtied costs a
	// transfer; the directory is the cache hierarchy, not software.
	if last, wrote := pte.LastWriter(); wrote && last != t.core {
		t.p.Sleep(o.machine.LineBounce(1, !o.machine.Topology.SameNode(last, t.core)))
		// Other cores ran during the transfer: the word may have moved on,
		// or an unmap taken the entry, in which case the access reads a
		// zero word and leaves nothing behind. An mprotect that took the
		// access's right sends it back through the fault path, which
		// refuses it or restores the right from the area.
		pte, ok = mm.pt.Lookup(vpn)
		if ok && !covers(pte.Prot, write) {
			if err := t.fault(vpn, write, true); err != nil {
				return 0, err
			}
			pte, ok = mm.pt.Lookup(vpn)
		}
	}
	next, result, wrote := op.Apply(pte.Word)
	if ok && write {
		if wrote {
			pte.Word = next
		}
		pte.SetWriter(t.core)
		mm.pt.Set(vpn, pte)
	}
	t.p.Sleep(o.machine.MemAccess(t.core, home))
	return result, nil
}

// covers reports whether prot allows a load, or a store when write is set.
func covers(prot mem.Prot, write bool) bool {
	return prot.Readable() && (!write || prot.Writable())
}

// fault resolves a page fault under mmap_sem shared: the VMA check, then a
// zero-filled frame on first touch (present is false) or the VMA's
// protections on an entry that lacks them.
func (t *Thread) fault(vpn mem.VPN, write, present bool) error {
	o := t.pr.os
	mm := t.pr.mm
	t.p.Sleep(o.machine.Cost.PageFaultTrap)
	mm.mmapSem.RLock(t.p)
	defer mm.mmapSem.RUnlock(t.p)
	area, found := mm.layout.Find(vpn)
	if !found {
		return fmt.Errorf("%w: page %#x", vm.ErrSegv, uint64(vpn.Base()))
	}
	if write && !area.Prot.Writable() {
		return fmt.Errorf("%w: write to %v page", vm.ErrAccess, area.Prot)
	}
	if !area.Prot.Readable() {
		return fmt.Errorf("%w: %v page", vm.ErrAccess, area.Prot)
	}
	// Threads write words without mmap_sem, so the entry is read afresh
	// under it rather than taken from before the trap.
	if pte, ok := mm.pt.Lookup(vpn); present && ok {
		// Present but insufficient: refresh protections from the VMA.
		pte.Prot = area.Prot
		mm.pt.Set(vpn, pte)
		t.p.Sleep(o.machine.Cost.PTESet)
		return nil
	}
	frame, home, err := o.zones[o.machine.Topology.NodeOf(t.core)].AllocFrame(t.p)
	if err != nil {
		return fmt.Errorf("%w: %v", vm.ErrNoSpace, err)
	}
	t.p.Sleep(o.machine.Cost.PageCopyLocal + o.machine.Cost.PTESet) // zero-fill
	o.metrics.Counter("smp.fault").Inc()
	if _, raced := mm.pt.Lookup(vpn); raced {
		// Another thread faulted the page in while this one allocated and
		// zeroed: keep its entry, and with it any word written since, and
		// drop the frame, as Linux's do_anonymous_page does when its
		// pte_none recheck fails.
		o.zones[home].DropFrame(frame)
		return nil
	}
	mm.pt.Set(vpn, mem.PTE{Frame: frame, Prot: area.Prot, HomeNode: uint8(home)})
	return nil
}

// Load implements osi.Thread.
func (t *Thread) Load(addr mem.Addr) (int64, error) {
	return t.access(addr, mem.Op{Kind: mem.OpLoad})
}

// Store implements osi.Thread.
func (t *Thread) Store(addr mem.Addr, val int64) error {
	_, err := t.access(addr, mem.Op{Kind: mem.OpStore, Val: val})
	return err
}

// CompareAndSwap implements osi.Thread.
func (t *Thread) CompareAndSwap(addr mem.Addr, old, new int64) (bool, error) {
	prior, err := t.access(addr, mem.Op{Kind: mem.OpCAS, Val: new, Old: old})
	return err == nil && prior == old, err
}

// FetchAdd implements osi.Thread.
func (t *Thread) FetchAdd(addr mem.Addr, delta int64) (int64, error) {
	return t.access(addr, mem.Op{Kind: mem.OpFetchAdd, Val: delta})
}

// FutexWait implements osi.Thread: the global hash bucket serialises the
// value check and the enqueue, bouncing its lock word across sockets.
func (t *Thread) FutexWait(addr mem.Addr, expect int64) error {
	o := t.pr.os
	t.p.Sleep(o.machine.Cost.SyscallTrap)
	mu := o.futexLock(addr)
	mu.Lock(t.p)
	t.p.Sleep(o.machine.LineBounce(o.capSharers(mu.Waiters()), o.crossNode()))
	val, err := t.access(addr, mem.Op{Kind: mem.OpLoad})
	if err != nil {
		mu.Unlock(t.p)
		return err
	}
	t.woken = false
	if err = o.futexQueue(t.pr.mm, addr).Wait(t, val, expect); err != nil {
		mu.Unlock(t.p)
		o.metrics.Counter("smp.futex.eagain").Inc()
		return err
	}
	mu.Unlock(t.p)
	o.metrics.Counter("smp.futex.wait").Inc()
	o.sched.Release(t.p)
	if !t.woken {
		t.p.Suspend()
	}
	t.core = o.sched.Acquire(t.p)
	if !t.woken {
		return errors.New("smp: futex waiter woken without wake")
	}
	return nil
}

// FutexWake implements osi.Thread.
func (t *Thread) FutexWake(addr mem.Addr, count int) (int, error) {
	o := t.pr.os
	t.p.Sleep(o.machine.Cost.SyscallTrap)
	if count <= 0 {
		return 0, nil
	}
	mu := o.futexLock(addr)
	mu.Lock(t.p)
	t.p.Sleep(o.machine.LineBounce(o.capSharers(mu.Waiters()), o.crossNode()))
	var few [4]*Thread
	woken := o.futexQueue(t.pr.mm, addr).Wake(few[:0], count)
	resume(woken)
	mu.Unlock(t.p)
	o.metrics.Counter("smp.futex.wake").Inc()
	return len(woken), nil
}

// FutexRequeue implements osi.Thread: both buckets lock in bucket-index
// order, the value check and the queue moves are atomic under them.
// Requeueing onto the same word moves the requeued waiters to its tail.
func (t *Thread) FutexRequeue(from, to mem.Addr, expect int64, wake, requeue int) (int, int, error) {
	o := t.pr.os
	t.p.Sleep(o.machine.Cost.SyscallTrap)
	// Taken in bucket-index order, so concurrent requeues cannot close a
	// cycle. Address order would not do: buckets wrap, so a < b can hash to
	// bucket(a) > bucket(b).
	bFrom, bTo := futexBucket(from), futexBucket(to)
	first, second := &o.futexes[min(bFrom, bTo)], &o.futexes[max(bFrom, bTo)]
	first.Lock(t.p)
	if second != first {
		second.Lock(t.p)
	}
	defer func() {
		if second != first {
			second.Unlock(t.p)
		}
		first.Unlock(t.p)
	}()
	t.p.Sleep(o.machine.LineBounce(o.capSharers(first.Waiters()+second.Waiters()), o.crossNode()))
	val, err := t.access(from, mem.Op{Kind: mem.OpLoad})
	if err != nil {
		return 0, 0, err
	}
	var few [4]*Thread
	woken, requeued, err := o.futexQueue(t.pr.mm, from).Requeue(few[:0], o.futexQueue(t.pr.mm, to), val, expect, wake, requeue)
	if err != nil {
		o.metrics.Counter("smp.futex.eagain").Inc()
		return 0, 0, err
	}
	resume(woken)
	return len(woken), requeued, nil
}

// Spawn implements osi.Thread.
func (t *Thread) Spawn(kernelHint int, fn osi.ThreadFunc) error {
	return t.pr.Spawn(t.p, kernelHint, fn)
}

// Migrate implements osi.Thread: SMP has one kernel, so kernel-directed
// migration does not exist.
func (t *Thread) Migrate(kernel int) error {
	if kernel == 0 || kernel == osi.AnyKernel {
		return nil
	}
	return osi.ErrUnsupported
}

// Kill implements osi.Thread: within one kernel, delivery is a queue
// append under the (global) task-list lock.
func (t *Thread) Kill(tid int64, sig int) error {
	o := t.pr.os
	t.p.Sleep(o.machine.Cost.SyscallTrap)
	o.lockTasklist(t.p)
	t.p.Sleep(o.machine.LineBounce(o.capSharers(o.tasklist.Waiters()), o.crossNode()))
	t.pr.signals[tid] = append(t.pr.signals[tid], sig)
	w := t.pr.sigWaiters[tid]
	delete(t.pr.sigWaiters, tid)
	o.tasklist.Unlock(t.p)
	if w != nil {
		w.Resume()
	}
	return nil
}

// SigWait implements osi.Thread.
func (t *Thread) SigWait() ([]int, error) {
	o := t.pr.os
	t.p.Sleep(o.machine.Cost.SyscallTrap)
	if len(t.pr.signals[t.tid]) == 0 {
		if _, busy := t.pr.sigWaiters[t.tid]; busy {
			return nil, errors.New("smp: thread already has a signal waiter")
		}
		t.pr.sigWaiters[t.tid] = t.p
		o.sched.Release(t.p)
		t.p.Suspend()
		t.core = o.sched.Acquire(t.p)
	}
	sigs := t.pr.signals[t.tid]
	delete(t.pr.signals, t.tid)
	return sigs, nil
}

// exit runs thread teardown under the global locks.
func (t *Thread) exit() {
	o := t.pr.os
	t.pr.mm.activeThreads--
	o.lockTasklist(t.p)
	t.p.Sleep(o.machine.LineBounce(o.capSharers(o.tasklist.Waiters()), o.crossNode()))
	o.tasklist.Unlock(t.p)
	o.metrics.Counter("smp.exit").Inc()
	o.sched.Release(t.p)
}
