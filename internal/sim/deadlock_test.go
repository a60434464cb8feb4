package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDeadlockReportABBA drives the classic AB-BA inversion and checks the
// engine turns it into a structured wait-for graph with the cycle named.
func TestDeadlockReportABBA(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	muA := NewMutex(e).SetLabel(labelOf("res-A"))
	muB := NewMutex(e).SetLabel(labelOf("res-B"))
	e.Spawn("p-ab", func(p *Proc) {
		muA.Lock(p)
		p.Sleep(time.Millisecond)
		muB.Lock(p)
		muB.Unlock(p)
		muA.Unlock(p)
	})
	e.Spawn("p-ba", func(p *Proc) {
		muB.Lock(p)
		p.Sleep(time.Millisecond)
		muA.Lock(p)
		muA.Unlock(p)
		muB.Unlock(p)
	})

	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %T does not unwrap to *DeadlockError", err)
	}
	if len(de.Waits) != 2 {
		t.Fatalf("Waits = %+v, want 2 entries", de.Waits)
	}
	byName := make(map[string]ProcWait)
	for _, w := range de.Waits {
		byName[w.Name] = w
	}
	ab, ba := byName["p-ab"], byName["p-ba"]
	if ab.Kind != "mutex" || ab.Resource != "res-B" || ab.HolderName != "p-ba" {
		t.Errorf("p-ab wait = %+v, want mutex res-B held by p-ba", ab)
	}
	if ba.Kind != "mutex" || ba.Resource != "res-A" || ba.HolderName != "p-ab" {
		t.Errorf("p-ba wait = %+v, want mutex res-A held by p-ab", ba)
	}
	if len(de.Cycle) != 3 || de.Cycle[0] != de.Cycle[2] {
		t.Errorf("Cycle = %v, want a closed 2-cycle", de.Cycle)
	}
	msg := err.Error()
	for _, want := range []string{"wait-for graph:", `"res-A"`, `"res-B"`, "cycle:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("report missing %q:\n%s", want, msg)
		}
	}
}

// TestDeadlockReportListsEveryLiveProc checks that every live process at
// quiescence appears in the report with what it waits for: a process parked
// in Suspend as a bare "suspend", a process stuck on a lock with the lock's
// holder named.
func TestDeadlockReportListsEveryLiveProc(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mu := NewMutex(e).SetLabel(labelOf("held-forever"))
	e.Spawn("idle", func(p *Proc) {
		p.Suspend() // waiting for work that never comes
	})
	e.Spawn("stuck", func(p *Proc) {
		p.Sleep(time.Millisecond)
		mu.Lock(p)
		mu.Unlock(p)
	})
	e.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Suspend() // never resumed: keeps the lock forever
	})

	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want *DeadlockError", err)
	}
	byName := make(map[string]ProcWait)
	for _, w := range de.Waits {
		byName[w.Name] = w
	}
	if len(de.Waits) != 3 {
		t.Fatalf("Waits = %+v, want idle, stuck and holder", de.Waits)
	}
	if w := byName["idle"]; w.Kind != "suspend" || w.HolderName != "" {
		t.Errorf("idle wait = %+v, want a bare suspend", w)
	}
	if w := byName["stuck"]; w.Kind != "mutex" || w.Resource != "held-forever" || w.HolderName != "holder" {
		t.Errorf("stuck wait = %+v, want mutex held-forever held by holder", w)
	}
	if de.Cycle != nil {
		t.Errorf("Cycle = %v, want none", de.Cycle)
	}
}

// TestInvariantQuiescence: invariants always run when the heap drains, with
// no opt-in needed.
func TestInvariantQuiescence(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	broken := false
	e.Invariant("model-consistent", func() error {
		if broken {
			return errors.New("counter went negative")
		}
		return nil
	})
	e.Spawn("w", func(p *Proc) {
		p.Sleep(time.Millisecond)
		broken = true
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `invariant "model-consistent"`) {
		t.Fatalf("Run = %v, want invariant violation", err)
	}
}

// TestInvariantPeriodic: with an interval configured, a violation that is
// transient in virtual time is caught mid-run; without one, the quiescence
// check alone misses it.
func TestInvariantPeriodic(t *testing.T) {
	transientBreak := func(e Engine) *bool {
		broken := new(bool)
		e.Invariant("transient", func() error {
			if *broken {
				return errors.New("window violation")
			}
			return nil
		})
		e.Spawn("w", func(p *Proc) {
			p.Sleep(5 * time.Millisecond)
			*broken = true
			p.Sleep(45 * time.Millisecond)
			*broken = false
		})
		return broken
	}

	e := NewEngine(WithInvariantInterval(time.Millisecond))
	defer e.Close()
	transientBreak(e)
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), `invariant "transient"`) {
		t.Fatalf("periodic Run = %v, want invariant violation", err)
	}

	// Control: the same scenario passes with only the quiescence check,
	// because the violation heals before the heap drains.
	e2 := NewEngine()
	defer e2.Close()
	transientBreak(e2)
	if err := e2.Run(); err != nil {
		t.Fatalf("quiescence-only Run = %v, want nil (violation healed)", err)
	}
}
