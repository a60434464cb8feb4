package msg

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestCyclicRPCDeadlockReport builds the distributed inversion the runtime
// detector exists for: a proc on each of two kernels takes a local lock and
// then Calls the other kernel, whose handler needs that kernel's lock. Both
// handler processes wedge on locks whose holders are parked on RPC replies
// that can never be produced. The run must terminate by itself (the engine sees
// quiescence-with-blocked-procs — no wall-clock timeout is involved in the
// detection) and name every stuck party in the wait-for graph. The
// wall-clock guard only protects the test suite if the detector regresses.
func TestCyclicRPCDeadlockReport(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	label0, label1 := "k0-resource", "k1-resource"
	mu0 := sim.NewMutex(e).SetLabel(&label0)
	mu1 := sim.NewMutex(e).SetLabel(&label1)
	f.Endpoint(0).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
		mu0.Lock(p)
		defer mu0.Unlock(p)
		return &Message{Size: 64}
	})
	f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
		mu1.Lock(p)
		defer mu1.Unlock(p)
		return &Message{Size: 64}
	})
	e.Spawn("proc-k0", func(p *sim.Proc) {
		mu0.Lock(p)
		defer mu0.Unlock(p)
		if _, err := f.Endpoint(0).Call(p, &Message{Type: TypeUser, To: 1, Size: 64}); err != nil {
			t.Errorf("call k0->k1: %v", err)
		}
	})
	e.Spawn("proc-k1", func(p *sim.Proc) {
		mu1.Lock(p)
		defer mu1.Unlock(p)
		if _, err := f.Endpoint(1).Call(p, &Message{Type: TypeUser, To: 0, Size: 64}); err != nil {
			t.Errorf("call k1->k0: %v", err)
		}
	})

	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("wall-clock timeout: engine did not detect the cyclic-RPC deadlock")
	}

	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %T does not unwrap to *sim.DeadlockError", err)
	}
	waits := make(map[string]sim.ProcWait)
	for _, w := range de.Waits {
		waits[w.Name] = w
	}
	for _, name := range []string{"proc-k0", "proc-k1"} {
		w, ok := waits[name]
		if !ok || w.Kind != "rpc-reply" {
			t.Errorf("%s wait = %+v, want rpc-reply", name, w)
		}
	}
	// Both handler processes must surface as stuck on the user locks, with
	// the holders attributed.
	report := err.Error()
	for _, want := range []string{
		"wait-for graph:",
		`"k0-resource" held by`,
		`"k1-resource" held by`,
		// The label is recorded as operands and rendered for the report.
		`rpc-reply "user from k1 seq=`,
		`rpc-reply "user from k0 seq=`,
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if len(de.Waits) < 4 {
		t.Errorf("report has %d entries, want the 2 callers plus 2 stuck handlers:\n%s", len(de.Waits), report)
	}
}
