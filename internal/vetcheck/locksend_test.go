package vetcheck

import (
	"strings"
	"testing"
)

// svcDecl opens a vm fixture file: a service with one sim lock, one real
// lock and its kernel's endpoint.
const svcDecl = `package vm

import (
	"sync"

	"repro/internal/msg"
	"repro/internal/sim"
)

type svc struct {
	mu   sim.Mutex
	real sync.Mutex
	ep   *msg.Endpoint
}
`

func TestLockSendDirectCall(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/svc.go": svcDecl + `
func (s *svc) bad(p *sim.Proc) {
	s.mu.Lock(p)
	defer s.mu.Unlock(p)
	s.ep.Call(p, nil)
}
`,
	}, LockSend{})
	wantRules(t, got, "Call can block on the fabric while s.mu is held")
}

func TestLockSendTransitiveSamePackage(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/svc.go": svcDecl + `
func (s *svc) push(p *sim.Proc) { s.ep.CallEach(p, nil, nil) }

func (s *svc) bad(p *sim.Proc) {
	s.mu.Lock(p)
	s.push(p)
	s.mu.Unlock(p)
}
`,
	}, LockSend{})
	wantRules(t, got, "push can block on the fabric while s.mu is held")
}

func TestLockSendUnlockBeforeSendIsClean(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/svc.go": svcDecl + `
func (s *svc) good(p *sim.Proc) {
	s.mu.Lock(p)
	s.work()
	s.mu.Unlock(p)
	s.ep.Call(p, nil)
}

func (s *svc) work() {}
`,
	}, LockSend{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}
}

func TestLockSendEarlyExitUnlockDoesNotLeak(t *testing.T) {
	// The unlock on the early-return arm must not clear the held state for
	// the fall-through path: the send after the if is still under the lock.
	got := findingsFor(t, map[string]string{
		"internal/vm/svc.go": svcDecl + `
func (s *svc) bad(p *sim.Proc, cond bool) {
	s.mu.Lock(p)
	if cond {
		s.mu.Unlock(p)
		return
	}
	s.ep.Call(p, nil)
	s.mu.Unlock(p)
}
`,
	}, LockSend{})
	wantRules(t, got, "Call can block on the fabric while s.mu is held")
}

func TestLockSendFuncLitAndStdlibSyncIgnored(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/svc.go": svcDecl + `
// gate has the sim primitives' shape — Lock takes the proc — but is not one.
type gate struct{}

func (gate) Lock(p *sim.Proc)   {}
func (gate) Unlock(p *sim.Proc) {}

func (s *svc) good(p *sim.Proc, g gate) {
	// sync.Mutex is not a sim primitive; simtime owns that.
	s.real.Lock()
	s.ep.Call(p, nil)
	s.real.Unlock()

	// Nor is a foreign type whose Lock happens to take a proc: what makes a
	// sim lock is the receiver's type, not the argument count.
	g.Lock(p)
	s.ep.Call(p, nil)
	g.Unlock(p)

	// The closure runs in another proc without this one's locks.
	s.mu.Lock(p)
	s.spawnFn(func() { s.ep.Call(p, nil) })
	s.mu.Unlock(p)
}

func (s *svc) spawnFn(fn func()) {}
`,
	}, LockSend{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}
}

// flushFixture is a vm service whose exported Flush performs an RPC.
const flushFixture = `package vm

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

type Space struct{ ep *msg.Endpoint }

func (s *Space) Flush(p *sim.Proc) { s.ep.Call(p, nil) }
`

func TestLockSendPackageLocalResolutionShadowsForeignName(t *testing.T) {
	// sched declares its own trivial Flush; the vm package's blocking Flush
	// must not poison sched's call sites.
	got := findingsFor(t, map[string]string{
		"internal/vm/flush.go": flushFixture,
		"internal/sched/sched.go": `package sched

import "repro/internal/sim"

type queue struct {
	mu    sim.Mutex
	items []int
}

func (q *queue) Flush() { q.items = nil }

func (q *queue) drain(p *sim.Proc) {
	q.mu.Lock(p)
	q.Flush()
	q.mu.Unlock(p)
}
`,
	}, LockSend{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}

	// A blocking method on another package's type keeps its verdict: futex
	// calling vm's Flush under a lock is flagged.
	got = findingsFor(t, map[string]string{
		"internal/vm/flush.go": flushFixture,
		"internal/futex/futex.go": `package futex

import (
	"repro/internal/sim"
	"repro/internal/vm"
)

type svc struct {
	mu    sim.Mutex
	space *vm.Space
}

func (s *svc) bad(p *sim.Proc) {
	s.mu.Lock(p)
	s.space.Flush(p)
	s.mu.Unlock(p)
}
`,
	}, LockSend{})
	wantRules(t, got, "Flush can block on the fabric while s.mu is held")
}

func TestLockSendDeferredUnlockHoldsToEnd(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/svc.go": svcDecl + `
func (s *svc) bad(p *sim.Proc) {
	s.mu.Lock(p)
	defer s.mu.Unlock(p)
	s.ep.Send(p, nil)
}
`,
	}, LockSend{})
	if len(got) != 1 || !strings.Contains(got[0].Message, "Send can block") {
		t.Fatalf("want one Send finding, got:\n%s", renderFindings(got))
	}
}

func TestLockSendStdlibQualifiedCallNotPoisoned(t *testing.T) {
	// A blocking in-tree function named like a stdlib one (here Join, the
	// shape of core's Process.Join) must not make strings.Join — or any
	// other stdlib-qualified call — look blocking under a held lock.
	got := findingsFor(t, map[string]string{
		"internal/core/join.go": `package core

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

func Join(p *sim.Proc, ep *msg.Endpoint) { ep.Call(p, nil) }
`,
		"internal/kernel/render.go": `package kernel

import (
	"strings"

	"repro/internal/sim"
)

var mu sim.Mutex

func render(p *sim.Proc) string {
	mu.Lock(p)
	defer mu.Unlock(p)
	return strings.Join([]string{"a", "b"}, ", ")
}
`,
	}, LockSend{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}
}

func TestLockSendImportQualifiedInTreeCallStillBlocks(t *testing.T) {
	// Qualified calls into an in-tree package keep their real verdict: a
	// helper package whose exported function performs an RPC poisons its
	// callers even through the package qualifier.
	got := findingsFor(t, map[string]string{
		"internal/proto/proto.go": `package proto

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

func Push(p *sim.Proc, ep *msg.Endpoint) { ep.Call(p, nil) }
`,
		"internal/kernel/use.go": `package kernel

import (
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
)

var mu sim.Mutex

func use(p *sim.Proc, ep *msg.Endpoint) {
	mu.Lock(p)
	proto.Push(p, ep)
	mu.Unlock(p)
}
`,
	}, LockSend{})
	wantRules(t, got, "Push can block on the fabric")
}

// TestLockSendSameNameDifferentReceiver is smp's mprotect: the in-memory
// AreaSet.Protect under mmapSem is fine, the fabric-backed Space.Protect is
// not, and only the receiver's type tells them apart.
func TestLockSendSameNameDifferentReceiver(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/smp/mm.go": `package smp

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

type areaSet struct{ n int }

func (a *areaSet) Protect(lo, hi int) { a.n++ }

type space struct{ ep *msg.Endpoint }

func (s *space) Protect(p *sim.Proc, lo, hi int) { s.ep.Call(p, nil) }

type mm struct {
	mmapSem sim.RWMutex
	vmas    areaSet
	remote  space
}

func (m *mm) mprotect(p *sim.Proc) {
	m.mmapSem.Lock(p)
	m.vmas.Protect(0, 1)
	m.remote.Protect(p, 0, 1)
	m.mmapSem.Unlock(p)
}
`,
	}, LockSend{})
	wantRules(t, got, "Protect can block on the fabric while m.mmapSem is held")
	if got[0].Pos.Line != 25 {
		t.Errorf("flagged line %d, want 25 (the fabric-backed Protect only)", got[0].Pos.Line)
	}
}

// TestLockSendThroughInterface: a call through an interface blocks when an
// in-tree implementation of it does.
func TestLockSendThroughInterface(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/pager.go": svcDecl + `
type pager interface{ fetch(p *sim.Proc) }

type local struct{}

func (local) fetch(p *sim.Proc) {}

type remote struct{ ep *msg.Endpoint }

func (r remote) fetch(p *sim.Proc) { r.ep.Send(p, nil) }

func (s *svc) fault(p *sim.Proc, pg pager) {
	s.mu.Lock(p)
	pg.fetch(p)
	s.mu.Unlock(p)
}
`,
	}, LockSend{})
	wantRules(t, got, "fetch can block on the fabric while s.mu is held")
}

// TestLockSendHistoricalFutexWake re-plants the defect locksend was written
// for (PR 1): a futex wake sent to the waiter's kernel while the bucket lock
// is still held.
func TestLockSendHistoricalFutexWake(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/futex/wake.go": `package futex

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

type bucket struct {
	mu      sim.Mutex
	waiters []msg.NodeID
}

type Service struct{ ep *msg.Endpoint }

func (s *Service) wake(p *sim.Proc, b *bucket) {
	b.mu.Lock(p)
	for _, n := range b.waiters {
		s.ep.Send(p, &msg.Message{Type: msg.TypePing, To: n})
	}
	b.waiters = b.waiters[:0]
	b.mu.Unlock(p)
}
`,
	}, LockSend{})
	wantRules(t, got, "Send can block on the fabric while b.mu is held")
}
