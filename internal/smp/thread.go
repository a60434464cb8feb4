package smp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/futex"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Errors mirroring the replicated kernel's so workloads are portable.
var (
	ErrSegv   = vm.ErrSegv
	ErrAccess = vm.ErrAccess
)

// Thread is a running SMP thread.
type Thread struct {
	pr   *Process
	p    *sim.Proc
	tid  int64
	core int
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
// process's pages — the removed ranges lose their entries, values and
// frames, a protect strips PTE bits — and one TLB shootdown across the
// process's cores if any entry changed.
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
	for _, r := range removed {
		for _, pte := range mm.pt.ClearRange(r.Lo, r.Hi) {
			if pte.Frame != mem.NoFrame {
				o.zones[pte.HomeNode].FreeFrame(t.p, pte.Frame)
				touched++
			}
		}
		for v := r.Lo; v < r.Hi; v++ {
			delete(mm.values, v)
			delete(mm.lastWriter, v)
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
// cache-line transfer costs for cross-core sharing.
func (t *Thread) access(addr mem.Addr, op mem.Op) (int64, error) {
	o := t.pr.os
	mm := t.pr.mm
	vpn := mem.PageOf(addr)
	write := op.Kind != mem.OpLoad
	pte, ok := mm.pt.Lookup(vpn)
	if !ok || !pte.Prot.Readable() || (write && !pte.Prot.Writable()) {
		// Page fault (or protection check through the VMA).
		t.p.Sleep(o.machine.Cost.PageFaultTrap)
		mm.mmapSem.RLock(t.p)
		area, found := mm.layout.Find(vpn)
		if !found {
			mm.mmapSem.RUnlock(t.p)
			return 0, fmt.Errorf("%w: page %#x", ErrSegv, uint64(vpn.Base()))
		}
		if write && !area.Prot.Writable() {
			mm.mmapSem.RUnlock(t.p)
			return 0, fmt.Errorf("%w: write to %v page", ErrAccess, area.Prot)
		}
		if !area.Prot.Readable() {
			mm.mmapSem.RUnlock(t.p)
			return 0, fmt.Errorf("%w: %v page", ErrAccess, area.Prot)
		}
		if !ok {
			frame, home, err := o.zones[o.machine.Topology.NodeOf(t.core)].AllocFrame(t.p)
			if err != nil {
				mm.mmapSem.RUnlock(t.p)
				return 0, fmt.Errorf("%w: %v", vm.ErrNoSpace, err)
			}
			t.p.Sleep(o.machine.Cost.PageCopyLocal + o.machine.Cost.PTESet) // zero-fill
			pte = mem.PTE{Frame: frame, Prot: area.Prot, HomeNode: home}
			mm.pt.Set(vpn, pte)
			o.metrics.Counter("smp.fault").Inc()
		} else {
			// Present but insufficient: refresh protections from the VMA.
			pte.Prot = area.Prot
			mm.pt.Set(vpn, pte)
			t.p.Sleep(o.machine.Cost.PTESet)
		}
		mm.mmapSem.RUnlock(t.p)
	}
	// Hardware coherence: pulling a line another core dirtied costs a
	// transfer; the directory is the cache hierarchy, not software.
	if last, wrote := mm.lastWriter[vpn]; wrote && last != t.core {
		t.p.Sleep(o.machine.LineBounce(1, !o.machine.Topology.SameNode(last, t.core)))
	}
	next, result, wrote := op.Apply(mm.values[vpn])
	if wrote {
		mm.values[vpn] = next
	}
	if write {
		mm.lastWriter[vpn] = t.core
	}
	t.p.Sleep(o.machine.MemAccess(t.core, pte.HomeNode))
	return result, nil
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
	b := o.futexes[int(addr/hw.CacheLineSize)%futexBuckets]
	b.mu.Lock(t.p)
	t.p.Sleep(o.machine.LineBounce(o.capSharers(b.mu.Waiters()), o.crossNode()))
	val, err := t.access(addr, mem.Op{Kind: mem.OpLoad})
	if err != nil {
		b.mu.Unlock(t.p)
		return err
	}
	if val != expect {
		b.mu.Unlock(t.p)
		o.metrics.Counter("smp.futex.eagain").Inc()
		return futex.ErrWouldBlock
	}
	w := &smpWaiter{proc: t.p, mm: t.pr.mm}
	b.waiters[addr] = append(b.waiters[addr], w)
	b.mu.Unlock(t.p)
	o.metrics.Counter("smp.futex.wait").Inc()
	o.sched.Release(t.p)
	if !w.woken {
		t.p.Suspend()
	}
	t.core = o.sched.Acquire(t.p)
	if !w.woken {
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
	b := o.futexes[int(addr/hw.CacheLineSize)%futexBuckets]
	b.mu.Lock(t.p)
	t.p.Sleep(o.machine.LineBounce(o.capSharers(b.mu.Waiters()), o.crossNode()))
	q := b.waiters[addr]
	// Wake only waiters of this process (keys are per-mm in Linux; the
	// bucket is shared, the queue entries carry the mm).
	woken := 0
	remaining := q[:0]
	for _, w := range q {
		if woken < count && w.mm == t.pr.mm {
			w.woken = true
			w.proc.Resume()
			woken++
		} else {
			remaining = append(remaining, w)
		}
	}
	if len(remaining) == 0 {
		delete(b.waiters, addr)
	} else {
		b.waiters[addr] = append([]*smpWaiter(nil), remaining...)
	}
	b.mu.Unlock(t.p)
	o.metrics.Counter("smp.futex.wake").Inc()
	return woken, nil
}

// FutexRequeue implements osi.Thread: both buckets lock in address order,
// the value check and the queue moves are atomic under them.
func (t *Thread) FutexRequeue(from, to mem.Addr, expect int64, wake, requeue int) (int, int, error) {
	o := t.pr.os
	t.p.Sleep(o.machine.Cost.SyscallTrap)
	bFrom := o.futexes[int(from/hw.CacheLineSize)%futexBuckets]
	bTo := o.futexes[int(to/hw.CacheLineSize)%futexBuckets]
	first, second := bFrom, bTo
	if to < from {
		first, second = bTo, bFrom
	}
	first.mu.Lock(t.p)
	if second != first {
		second.mu.Lock(t.p) //popcornvet:allow lockorder the two buckets are always taken in address order (first/second sorted above), so concurrent requeues cannot close a wait cycle
	}
	defer func() {
		if second != first {
			second.mu.Unlock(t.p)
		}
		first.mu.Unlock(t.p)
	}()
	t.p.Sleep(o.machine.LineBounce(o.capSharers(first.mu.Waiters()+second.mu.Waiters()), o.crossNode()))
	val, err := t.access(from, mem.Op{Kind: mem.OpLoad})
	if err != nil {
		return 0, 0, err
	}
	if val != expect {
		o.metrics.Counter("smp.futex.eagain").Inc()
		return 0, 0, futex.ErrWouldBlock
	}
	q := bFrom.waiters[from]
	woken, requeued := 0, 0
	var remaining []*smpWaiter
	for _, w := range q {
		switch {
		case w.mm != t.pr.mm:
			remaining = append(remaining, w)
		case woken < wake:
			w.woken = true
			w.proc.Resume()
			woken++
		case requeued < requeue:
			bTo.waiters[to] = append(bTo.waiters[to], w)
			requeued++
		default:
			remaining = append(remaining, w)
		}
	}
	if len(remaining) == 0 {
		delete(bFrom.waiters, from)
	} else {
		bFrom.waiters[from] = remaining
	}
	return woken, requeued, nil
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
	o.tasklist.Lock(t.p)
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
	o.tasklist.Lock(t.p)
	t.p.Sleep(o.machine.LineBounce(o.capSharers(o.tasklist.Waiters()), o.crossNode()))
	o.tasklist.Unlock(t.p)
	o.metrics.Counter("smp.exit").Inc()
	o.sched.Release(t.p)
}
