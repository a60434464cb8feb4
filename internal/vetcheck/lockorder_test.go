package vetcheck

import (
	"strings"
	"testing"
)

func TestLockOrderInversion(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/locks.go": `package kernel

import "repro/internal/sim"

type svc struct{ a, b sim.Mutex }

func forward(s *svc, p *sim.Proc) {
	s.a.Lock(p)
	s.b.Lock(p)
	s.b.Unlock(p)
	s.a.Unlock(p)
}

func backward(s *svc, p *sim.Proc) {
	s.b.Lock(p)
	s.a.Lock(p)
	s.a.Unlock(p)
	s.b.Unlock(p)
}
`,
	}, LockOrder{})
	wantRules(t, got,
		"acquiring kernel.b while holding kernel.a",
		"acquiring kernel.a while holding kernel.b",
	)
	for _, f := range got {
		if !strings.Contains(f.Message, "cycle:") {
			t.Errorf("finding %q lacks the cycle path", f.Message)
		}
	}
}

func TestLockOrderSameClassNesting(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/buckets.go": `package kernel

import "repro/internal/sim"

type bucket struct{ mu sim.Mutex }

func both(x, y *bucket, p *sim.Proc) {
	x.mu.Lock(p)
	y.mu.Lock(p)
	y.mu.Unlock(p)
	x.mu.Unlock(p)
}
`,
	}, LockOrder{})
	wantRules(t, got, "nested acquisition of kernel.mu")
}

func TestLockOrderThroughCall(t *testing.T) {
	// The inversion is only visible interprocedurally: outer holds a and
	// calls inner (which takes b); elsewhere b is held around a.
	got := findingsFor(t, map[string]string{
		"internal/kernel/indirect.go": `package kernel

import "repro/internal/sim"

type svc struct{ a, b sim.Mutex }

func inner(s *svc, p *sim.Proc) {
	s.b.Lock(p)
	s.b.Unlock(p)
}

func outer(s *svc, p *sim.Proc) {
	s.a.Lock(p)
	inner(s, p)
	s.a.Unlock(p)
}

func opposite(s *svc, p *sim.Proc) {
	s.b.Lock(p)
	s.a.Lock(p)
	s.a.Unlock(p)
	s.b.Unlock(p)
}
`,
	}, LockOrder{})
	if len(got) != 2 {
		t.Fatalf("want 2 findings, got:\n%s", renderFindings(got))
	}
	var viaInner bool
	for _, f := range got {
		if strings.Contains(f.Message, "via inner") {
			viaInner = true
		}
	}
	if !viaInner {
		t.Errorf("no finding attributes the edge to the inner call:\n%s", renderFindings(got))
	}
}

func TestLockOrderNegatives(t *testing.T) {
	got := findingsFor(t, map[string]string{
		// A consistent hierarchy, release-before-reacquire, and lock use
		// inside a spawned closure (another proc) are all clean.
		"internal/kernel/clean.go": `package kernel

import "repro/internal/sim"

type svc struct{ a, b sim.Mutex }

func hierarchy(s *svc, p *sim.Proc) {
	s.a.Lock(p)
	s.b.Lock(p)
	s.b.Unlock(p)
	s.a.Unlock(p)
}

func handover(s *svc, p *sim.Proc) {
	s.b.Lock(p)
	s.b.Unlock(p)
	s.a.Lock(p)
	s.a.Unlock(p)
}

func spawned(s *svc, p *sim.Proc, run func(func(*sim.Proc))) {
	s.a.Lock(p)
	run(func(q *sim.Proc) {
		s.b.Lock(q)
		s.b.Unlock(q)
	})
	s.a.Unlock(p)
}
`,
	}, LockOrder{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}
}

func TestLockOrderAllowDirective(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/ordered.go": `package kernel

import "repro/internal/sim"

type bucket struct{ mu sim.Mutex }

func both(x, y *bucket, p *sim.Proc) {
	x.mu.Lock(p)
	y.mu.Lock(p) //popcornvet:allow lockorder instances locked in address order
	y.mu.Unlock(p)
	x.mu.Unlock(p)
}
`,
	}, LockOrder{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}
}

// TestLockOrderHistoricalDirEntryInversion plants the defect-shaped case the
// rule exists for: the coherence protocol takes the address-space lock and
// then a directory entry's, and a failure sweep written the other way round
// — entry lock first, asLock inside a helper — compiles, passes every unit
// test, and deadlocks only on the schedule where a fault and the sweep
// overlap.
func TestLockOrderHistoricalDirEntryInversion(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/sweep.go": `package vm

import "repro/internal/sim"

type dirEntry struct{ mu sim.Mutex }

type Space struct {
	asLock sim.RWMutex
	dir    map[int]*dirEntry
}

func (sp *Space) fault(p *sim.Proc, vpn int) {
	sp.asLock.RLock(p)
	de := sp.dir[vpn]
	de.mu.Lock(p)
	de.mu.Unlock(p)
	sp.asLock.RUnlock(p)
}

func (sp *Space) dropSharer(p *sim.Proc) {
	sp.asLock.Lock(p)
	sp.asLock.Unlock(p)
}

func (sp *Space) PeerDied(p *sim.Proc, vpn int) {
	de := sp.dir[vpn]
	de.mu.Lock(p)
	sp.dropSharer(p)
	de.mu.Unlock(p)
}
`,
	}, LockOrder{})
	wantRules(t, got,
		"acquiring vm.mu while holding vm.asLock",
		"acquiring vm.asLock while holding vm.mu (via dropSharer)",
	)
}
