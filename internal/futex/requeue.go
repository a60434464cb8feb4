package futex

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Requeue implements FUTEX_CMP_REQUEUE: if the word at from still holds
// expect, wake up to wake waiters of from and move up to requeue of the
// remainder onto to's wait queue (so a condition-variable broadcast doesn't
// stampede the mutex). Both words belong to the same group and therefore
// share a home kernel, where the operation is atomic under the bucket
// locks. Returns (woken, requeued).
func (s *Service) Requeue(p *sim.Proc, gid vm.GID, from, to mem.Addr, expect int64, wake, requeue int) (int, int, error) {
	home, ok := s.resolver.FutexHome(gid)
	if !ok {
		return 0, 0, fmt.Errorf("futex: unknown group %d", gid)
	}
	s.metrics.Counter("futex.requeue").Inc()
	s.checker.SyncOp(p, int64(gid), mem.PageOf(from))
	s.checker.SyncOp(p, int64(gid), mem.PageOf(to))
	r, err := s.atHome(p, home, futexOpReq{
		Op: opRequeue, GID: gid, Addr: from, Addr2: to,
		Expect: expect, Count: wake, Count2: requeue,
	})
	return r.Woken, r.Requeued, err
}

// doRequeue runs at the home kernel. The value check and both queue edits
// happen atomically under the bucket locks; the wakeups themselves go out
// after the locks drop, like doWake, so no lock is held across the fabric.
func (s *Service) doRequeue(p *sim.Proc, gid vm.GID, from, to mem.Addr, expect int64, wake, requeue int) futexOpReply {
	sp, ok := s.resolver.GroupSpace(gid)
	if !ok {
		return futexOpReply{Err: fmt.Errorf("futex: group %d not resident on home kernel %d", gid, s.node)}
	}
	var few [4]waiterRef
	released, moved, err := s.requeueLocked(p, few[:0], sp, gid, from, to, expect, wake, requeue)
	for _, ref := range released {
		s.release(p, ref)
	}
	return futexOpReply{Woken: len(released), Requeued: moved, Err: err}
}

// requeueLocked is the bucket-locked half of doRequeue: re-read the word and
// let from's queue detach its wakers onto out and move its requeued waiters
// onto to's.
func (s *Service) requeueLocked(p *sim.Proc, out []waiterRef, sp *vm.Space, gid vm.GID, from, to mem.Addr, expect int64, wake, requeue int) ([]waiterRef, int, error) {
	bFrom := s.bucket(key{gid: gid, addr: from})
	bTo := s.bucket(key{gid: gid, addr: to})
	// Lock both queues in address order so concurrent requeues between the
	// same pair cannot deadlock.
	first, second := bFrom, bTo
	if to < from {
		first, second = bTo, bFrom
	}
	first.mu.Lock(p)
	if second != first {
		second.mu.Lock(p) //popcornvet:allow lockorder the two buckets are always taken in address order (first/second sorted above), so concurrent requeues cannot close a wait cycle
	}
	defer func() {
		if second != first {
			second.mu.Unlock(p)
		}
		first.mu.Unlock(p)
	}()
	//popcornvet:allow locksend the word re-read must be atomic with the queue edit under the bucket lock (the lost-wakeup guarantee); page-protocol handlers never take futex bucket locks, so no wait cycle can close
	val, err := sp.Load(p, s.homeCore, from)
	if err != nil {
		return out, 0, fmt.Errorf("futex: %w", err)
	}
	out, moved, err := bFrom.q.Requeue(out, &bTo.q, val, expect, wake, requeue)
	if err != nil {
		s.metrics.CounterIn(&s.hot.eagain, "futex.eagain").Inc()
	}
	return out, moved, err
}

// release wakes one waiter reference, locally or via message.
func (s *Service) release(p *sim.Proc, ref waiterRef) {
	if ref.node == s.node {
		s.wakeLocal(ref.token)
		return
	}
	wakeup.Send(p, s.ep, ref.node, &futexWakeup{Token: ref.token})
}
