// Package futex implements the replicated-kernel OS's distributed futex:
// the kernel-side wait/wake primitive POSIX synchronisation is built on.
// Each futex word is homed at its thread group's origin kernel, which keeps
// the wait queue; kernels hosting waiters forward WAIT and WAKE operations
// there over the message fabric. The atomic check-the-value-then-sleep step
// runs at the home under the bucket lock, so no wakeup can be lost — the
// same guarantee Linux's futex gives via the hash-bucket spinlock, but
// without any machine-global shared structure.
package futex

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// ErrWouldBlock is returned by Wait when the futex word no longer holds the
// expected value at queue time (the EAGAIN of FUTEX_WAIT): the caller must
// re-examine the word.
var ErrWouldBlock = errors.New("futex: value changed before sleeping")

// Resolver supplies group-level lookups the futex layer needs: where a
// group's futexes are homed and the local space for value checks. The
// thread-group layer implements it.
type Resolver interface {
	// FutexHome returns the home kernel for a group's futexes (its origin).
	FutexHome(gid vm.GID) (msg.NodeID, bool)
	// GroupSpace returns this kernel's address-space replica for the group.
	GroupSpace(gid vm.GID) (*vm.Space, bool)
}

type key struct {
	gid  vm.GID
	addr mem.Addr
}

type bucket struct {
	mu *sim.Mutex
	q  Queue[waiterRef]
}

type waiterRef struct {
	node  msg.NodeID
	token uint64
}

type localWaiter struct {
	p     *sim.Proc
	woken bool
	// parked is true only while p sits in Wait's futex Suspend. A wakeup can
	// overtake the opWait reply on a faulty fabric, arriving while p is still
	// blocked inside the RPC; resuming it there would corrupt the RPC wait,
	// so an early wakeup only sets woken and lets Wait skip the sleep.
	parked bool
	// home is the kernel whose wait queue holds this waiter; if it dies the
	// degradation path error-wakes the waiter instead of leaving it wedged.
	home msg.NodeID
	// err, when set by an error wake, is returned from Wait.
	err error
}

// Service is the per-kernel futex service.
type Service struct {
	e        sim.Engine
	node     msg.NodeID
	ep       *msg.Endpoint
	resolver Resolver
	metrics  *stats.Registry
	checker  *sanitize.Checker
	// homeCore is the representative core used to charge value-check
	// accesses performed by the home-side handler.
	homeCore int

	buckets   map[key]*bucket
	waiters   map[uint64]*localWaiter
	nextToken uint64
	// lwFree recycles localWaiter records (beginWait/endWait).
	lwFree []*localWaiter
	// hot caches the handles of the per-operation metrics, each filled on
	// first use (stats.Registry.CounterIn) so a run registers exactly the
	// names it always did.
	hot struct{ wait, wake, remote, eagain, queueMax *stats.Counter }
}

// futexOp selects the home-side operation.
type futexOp int

const (
	opWait futexOp = iota + 1
	opWake
	opRequeue
)

// futexOpReq is the wire request for a forwarded WAIT, WAKE or REQUEUE.
type futexOpReq struct {
	Op     futexOp
	GID    vm.GID
	Addr   mem.Addr
	Addr2  mem.Addr
	Expect int64
	Count  int
	Count2 int
	Token  uint64
}

// futexOpReply is the home's response.
type futexOpReply struct {
	// Woken is the number of waiters a WAKE or REQUEUE released.
	Woken int
	// Requeued is the number of waiters a REQUEUE moved.
	Requeued int
	// Err is the home's error: ErrWouldBlock when a WAIT or REQUEUE found
	// the word changed.
	Err error
}

// futexWakeup releases a remotely queued waiter.
type futexWakeup struct {
	Token uint64
}

const reqSize = 64

// The futex protocol: an operation run at the key's home kernel, and the
// wakeup of a waiter parked on another kernel.
var (
	homeOp = msg.Kind[futexOpReq, futexOpReply]{Type: msg.TypeFutexOp, Size: reqSize, ReplySize: reqSize}
	wakeup = msg.Kind[futexWakeup, struct{}]{Type: msg.TypeFutexWakeup, Size: reqSize}
)

// NewService creates the kernel's futex service and registers its handlers.
func NewService(e sim.Engine, fabric *msg.Fabric, node msg.NodeID, homeCore int, resolver Resolver, metrics *stats.Registry) *Service {
	if metrics == nil {
		metrics = stats.NewRegistry()
	}
	s := &Service{
		e:        e,
		node:     node,
		ep:       fabric.Endpoint(node),
		resolver: resolver,
		metrics:  metrics,
		homeCore: homeCore,
		buckets:  make(map[key]*bucket),
		waiters:  make(map[uint64]*localWaiter),
	}
	homeOp.Handle(s.ep, s.do)
	wakeup.Handle(s.ep, s.handleWakeup)
	return s
}

// AttachChecker points the service at a sanitizer. Futex words are
// synchronisation addresses: every Wait/Wake/Requeue marks the word's page
// sync so the race detector treats accesses to it as acquire/release pairs.
func (s *Service) AttachChecker(c *sanitize.Checker) { s.checker = c }

// futexWaitLabel renders the deadlock-report label of a parked waiter, from
// the operands Wait recorded with SetWaitLabel.
func futexWaitLabel(gid, addr, _ uint64) string {
	return fmt.Sprintf("g%d@%#x", vm.GID(gid), addr)
}

// Wait blocks p until a Wake on (gid, addr), provided the word still holds
// expect when the home kernel examines it; otherwise ErrWouldBlock.
func (s *Service) Wait(p *sim.Proc, gid vm.GID, addr mem.Addr, expect int64) error {
	home, ok := s.resolver.FutexHome(gid)
	if !ok {
		return fmt.Errorf("futex: unknown group %d", gid)
	}
	token, lw := s.beginWait(p, home)
	defer s.endWait(token, lw)
	s.metrics.CounterIn(&s.hot.wait, "futex.wait").Inc()
	s.checker.SyncOp(p, int64(gid), mem.PageOf(addr))

	// futex.wait spans the enqueue protocol only — the examine-and-queue
	// round at the home kernel. The block itself (Suspend until a Wake) is
	// application time, not protocol cost, so it stays outside the span.
	waitScope := s.ep.Collector().Begin(p, "futex.wait", int(s.node))
	_, err := s.atHome(p, home, futexOpReq{Op: opWait, GID: gid, Addr: addr, Expect: expect, Token: token})
	waitScope.End()
	if err != nil {
		return err
	}
	if !lw.woken {
		p.SetWaitLabel("futex", futexWaitLabel, uint64(gid), uint64(addr), 0)
		lw.parked = true
		p.Suspend()
		lw.parked = false
	}
	if !lw.woken {
		return errors.New("futex: waiter woken without a wake")
	}
	return lw.err
}

// beginWait registers p as a waiter under a fresh token, on a recycled record.
func (s *Service) beginWait(p *sim.Proc, home msg.NodeID) (uint64, *localWaiter) {
	lw := sim.Take(&s.lwFree)
	if lw == nil {
		lw = &localWaiter{}
	}
	lw.p, lw.home = p, home
	s.nextToken++
	s.waiters[s.nextToken] = lw
	return s.nextToken, lw
}

// endWait runs on every exit path of Wait, kill-unwind included. Only the
// table names a record, so once out of it the record is free.
func (s *Service) endWait(token uint64, lw *localWaiter) {
	delete(s.waiters, token)
	*lw = localWaiter{}
	sim.Give(&s.lwFree, lw)
}

// Reboot resets the service to boot state for a kernel reboot: home-side
// buckets (with their mutexes — a crash can kill a holder mid-critical
// section, and killed holders never unlock) and local waiter records are
// discarded. The wait token counter keeps counting so tokens stay unique
// across incarnations.
func (s *Service) Reboot() {
	s.buckets = make(map[key]*bucket)
	s.waiters = make(map[uint64]*localWaiter)
}

// PeerDied runs this kernel's futex-side degradation after dead is declared
// gone: queued references owned by the dead kernel are reaped from every
// home-side bucket here, and local waiters whose home queue died with the
// peer are error-woken (their wakeup can never arrive) so no thread wedges
// on a dead kernel's futex state.
func (s *Service) PeerDied(p *sim.Proc, dead msg.NodeID) {
	keys := make([]key, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.gid, b.gid), cmp.Compare(a.addr, b.addr))
	})
	for _, k := range keys {
		b := s.buckets[k]
		b.mu.Lock(p)
		kept := slices.DeleteFunc(b.q.ws, func(ref waiterRef) bool { return ref.node == dead })
		if reaped := len(b.q.ws) - len(kept); reaped > 0 {
			s.metrics.Counter("futex.waiter.reaped").Add(uint64(reaped))
		}
		b.q.ws = kept
		b.mu.Unlock(p)
	}
	tokens := make([]uint64, 0, len(s.waiters))
	for tok, lw := range s.waiters {
		if lw.home == dead && !lw.woken {
			tokens = append(tokens, tok)
		}
	}
	slices.Sort(tokens)
	for _, tok := range tokens {
		lw := s.waiters[tok]
		lw.woken = true
		lw.err = fmt.Errorf("futex: home kernel %d died while task waited: %w", dead, msg.ErrDeadPeer)
		s.metrics.Counter("futex.wait.deadhome").Inc()
		if lw.parked {
			lw.p.Resume()
		}
	}
}

// Wake releases up to count waiters on (gid, addr) and returns how many.
func (s *Service) Wake(p *sim.Proc, gid vm.GID, addr mem.Addr, count int) (int, error) {
	home, ok := s.resolver.FutexHome(gid)
	if !ok {
		return 0, fmt.Errorf("futex: unknown group %d", gid)
	}
	s.metrics.CounterIn(&s.hot.wake, "futex.wake").Inc()
	s.checker.SyncOp(p, int64(gid), mem.PageOf(addr))
	// futex.wake spans the whole wake protocol: the home-side dequeue plus,
	// for remote waiters, the FutexWakeup fan-out the home performs.
	wakeScope := s.ep.Collector().Begin(p, "futex.wake", int(s.node))
	defer wakeScope.End()
	r, err := s.atHome(p, home, futexOpReq{Op: opWake, GID: gid, Addr: addr, Count: count})
	return r.Woken, err
}

// atHome runs one operation at the futex's home kernel: in place when that is
// this kernel, else over TypeFutexOp. Both paths run the same do and return
// the error it decided. futex.remote counts the remote calls only.
func (s *Service) atHome(p *sim.Proc, home msg.NodeID, req futexOpReq) (futexOpReply, error) {
	if home == s.node {
		r := s.do(p, s.node, &req)
		return r, r.Err
	}
	s.metrics.CounterIn(&s.hot.remote, "futex.remote").Inc()
	r, err := homeOp.Call(p, s.ep, home, msg.NoRole, &req)
	if err != nil {
		return futexOpReply{}, err
	}
	return r, r.Err
}

// doWait runs the home-side half of FUTEX_WAIT: under the bucket lock,
// re-read the word through the home's address-space replica and enqueue the
// waiter only if it still matches.
func (s *Service) doWait(p *sim.Proc, gid vm.GID, addr mem.Addr, expect int64, from msg.NodeID, token uint64) futexOpReply {
	sp, ok := s.resolver.GroupSpace(gid)
	if !ok {
		return futexOpReply{Err: fmt.Errorf("futex: group %d not resident on home kernel %d", gid, s.node)}
	}
	b := s.bucket(key{gid: gid, addr: addr})
	b.mu.Lock(p)
	defer b.mu.Unlock(p)
	//popcornvet:allow locksend the word re-read must be atomic with the enqueue under the bucket lock (the lost-wakeup guarantee); page-protocol handlers never take futex bucket locks, so no wait cycle can close
	val, err := sp.Load(p, s.homeCore, addr)
	if err != nil {
		return futexOpReply{Err: fmt.Errorf("futex: %w", err)}
	}
	if err := b.q.Wait(waiterRef{node: from, token: token}, val, expect); err != nil {
		s.metrics.CounterIn(&s.hot.eagain, "futex.eagain").Inc()
		return futexOpReply{Err: err}
	}
	if c, d := s.metrics.CounterIn(&s.hot.queueMax, "futex.queue.max"), uint64(len(b.q.ws)); d > c.Value() {
		c.Add(d - c.Value())
	}
	return futexOpReply{}
}

// doWake runs the home-side half of FUTEX_WAKE.
func (s *Service) doWake(p *sim.Proc, gid vm.GID, addr mem.Addr, count int) futexOpReply {
	if count <= 0 {
		return futexOpReply{}
	}
	b := s.bucket(key{gid: gid, addr: addr})
	b.mu.Lock(p)
	// The released few leave the queue before the lock drops (a wake-all of
	// more than the array holds falls back to the heap).
	var few [4]waiterRef
	released := b.q.Wake(few[:0], count)
	b.mu.Unlock(p)
	for _, ref := range released {
		s.release(p, ref)
	}
	return futexOpReply{Woken: len(released)}
}

func (s *Service) bucket(k key) *bucket {
	b, ok := s.buckets[k]
	if !ok {
		b = &bucket{mu: sim.NewMutex(s.e).SetLabel("futex.bucket")}
		s.buckets[k] = b
	}
	return b
}

func (s *Service) wakeLocal(token uint64) {
	lw, ok := s.waiters[token]
	if !ok {
		s.metrics.Counter("futex.wakeup.orphan").Inc()
		return
	}
	lw.woken = true
	if lw.parked {
		lw.p.Resume()
	}
}

// do runs one operation at its home kernel on behalf of kernel from: for a
// local caller, and as the homeOp handler.
func (s *Service) do(p *sim.Proc, from msg.NodeID, req *futexOpReq) futexOpReply {
	switch req.Op {
	case opWait:
		return s.doWait(p, req.GID, req.Addr, req.Expect, from, req.Token)
	case opWake:
		return s.doWake(p, req.GID, req.Addr, req.Count)
	case opRequeue:
		return s.doRequeue(p, req.GID, req.Addr, req.Addr2, req.Expect, req.Count, req.Count2)
	}
	return futexOpReply{Err: fmt.Errorf("futex: unknown futex op %d", req.Op)}
}

func (s *Service) handleWakeup(_ *sim.Proc, _ msg.NodeID, w *futexWakeup) struct{} {
	s.wakeLocal(w.Token)
	return struct{}{}
}
