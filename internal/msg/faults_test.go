package msg

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// faultFabric is testFabric plus a fault plan; hooks are optional.
func faultFabric(t *testing.T, e sim.Engine, plan *faultinj.Plan) *Fabric {
	t.Helper()
	f := testFabric(t, e)
	f.EnableFaults(plan, FaultConfig{}, FaultHooks{})
	return f
}

// TestRetransmitRecoversDroppedRequest partitions the 0-1 link for the
// first 300µs, long enough to eat the initial request but heal before the
// caller's timeout fires. The retransmission must go through and the call
// complete as if nothing happened.
func TestRetransmitRecoversDroppedRequest(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:       1,
		Partitions: []faultinj.Partition{{A: 0, B: 1, From: 0, Until: 300 * time.Microsecond}},
	}
	f := faultFabric(t, e, plan)
	handled := 0
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		handled++
		return &Message{Size: 8, Payload: m.Payload}
	})
	var reply *Message
	e.Spawn("caller", func(p *sim.Proc) {
		r, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8, Payload: 7})
		if err != nil {
			t.Errorf("Call under partition: %v", err)
			return
		}
		reply = r
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reply == nil || reply.Payload.(int) != 7 {
		t.Fatalf("reply = %+v, want payload 7", reply)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times, want exactly once", handled)
	}
	if f.metrics.Counter("msg.fault.timeout").Value() == 0 {
		t.Error("no RPC timeout recorded despite partitioned first attempt")
	}
	if f.metrics.Counter("msg.fault.retransmit").Value() == 0 {
		t.Error("no retransmission recorded despite partitioned first attempt")
	}
}

// TestDuplicateRequestHandledOnce duplicates every request on the 0->1 link
// and requires at-most-once handler execution: the dup is either suppressed
// while the original is in flight or answered from the reply cache.
func TestDuplicateRequestHandledOnce(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:  1,
		Rules: []faultinj.Rule{{From: 0, To: 1, Type: faultinj.Wildcard, DupP: 1}},
	}
	f := faultFabric(t, e, plan)
	handled := 0
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		handled++
		return &Message{Size: 8, Payload: m.Payload}
	})
	e.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8, Payload: i}); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if handled != 4 {
		t.Fatalf("handler ran %d times for 4 calls, want exactly 4 (at-most-once broken)", handled)
	}
	suppressed := f.metrics.Counter("msg.fault.dupdrop").Value() +
		f.metrics.Counter("msg.fault.replayed").Value()
	if suppressed == 0 {
		t.Error("DupP=1 produced no dedup activity; duplicates are not reaching the receiver")
	}
}

// TestMulticastUnderFaults fans a CallEach out to three peers while the
// fault plan drops one recipient's request (partition, forcing a
// retransmit) and duplicates another's (forcing dedup). All three replies
// must still come back and every handler run exactly once.
func TestMulticastUnderFaults(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:       1,
		Rules:      []faultinj.Rule{{From: 0, To: 2, Type: faultinj.Wildcard, DupP: 1}},
		Partitions: []faultinj.Partition{{A: 0, B: 1, From: 0, Until: 300 * time.Microsecond}},
	}
	f := faultFabric(t, e, plan)
	handled := make(map[NodeID]int)
	for _, n := range []NodeID{1, 2, 3} {
		n := n
		f.Endpoint(n).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			handled[n]++
			return &Message{Size: 8, Payload: int(n)}
		})
	}
	var replies []*Message
	e.Spawn("caller", func(p *sim.Proc) {
		rs, err := f.Endpoint(0).CallEach(p, []NodeID{1, 2, 3}, func(to NodeID) *Message {
			return &Message{Type: TypePing, To: to, Size: 8}
		})
		if err != nil {
			t.Errorf("CallEach: %v", err)
			return
		}
		replies = rs
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(replies) != 3 {
		t.Fatalf("got %d replies, want 3", len(replies))
	}
	for _, n := range []NodeID{1, 2, 3} {
		if handled[n] != 1 {
			t.Errorf("handler on k%d ran %d times, want exactly once", n, handled[n])
		}
	}
	if f.metrics.Counter("msg.fault.retransmit").Value() == 0 {
		t.Error("partitioned recipient never forced a retransmit")
	}
	suppressed := f.metrics.Counter("msg.fault.dupdrop").Value() +
		f.metrics.Counter("msg.fault.replayed").Value()
	if suppressed == 0 {
		t.Error("duplicated recipient never exercised dedup")
	}
}

// TestCallExhaustionReturnsDeadPeer drops every 0->1 message for good: the
// caller must give up with a DeadPeerError after its retry budget, and its
// open-call entry must not leak.
func TestCallExhaustionReturnsDeadPeer(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:  1,
		Rules: []faultinj.Rule{{From: 0, To: 1, Type: faultinj.Wildcard, DropP: 1}},
	}
	f := faultFabric(t, e, plan)
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		t.Error("handler ran despite DropP=1 on the request link")
		return nil
	})
	var callErr error
	e.Spawn("caller", func(p *sim.Proc) {
		_, callErr = f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var dpe *DeadPeerError
	if !errors.As(callErr, &dpe) {
		t.Fatalf("Call error = %v, want DeadPeerError", callErr)
	}
	if !IsDeadPeer(callErr) {
		t.Errorf("IsDeadPeer(%v) = false", callErr)
	}
	if dpe.Peer != 1 || dpe.Attempts == 0 {
		t.Errorf("DeadPeerError = %+v, want peer 1 with nonzero attempts", dpe)
	}
	if got := openCalls(f.Endpoint(0)); got != 0 {
		t.Errorf("%d open calls leaked after the exhausted call", got)
	}
	if f.metrics.Counter("msg.fault.exhausted").Value() == 0 {
		t.Error("exhaustion not counted")
	}
}

// TestFastFailAfterDeclaredDead pins the post-declaration path: once a
// kernel has declared a peer dead, further RPCs to it fail immediately
// without touching the wire.
func TestFastFailAfterDeclaredDead(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{Seed: 1}
	f := faultFabric(t, e, plan)
	f.Endpoint(0).peers[1].declaredDead = true
	e.Spawn("caller", func(p *sim.Proc) {
		_, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8})
		if !IsDeadPeer(err) {
			t.Errorf("Call to declared-dead peer: %v, want DeadPeerError", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f.metrics.Counter("msg.fault.fastfail").Value() != 1 {
		t.Error("fast-fail not counted")
	}
	if f.metrics.Counter("msg.sent").Value() != 0 {
		t.Error("fast-failed RPC still hit the wire")
	}
}

// TestNodeCrashAtIsAbsolute pins NodeCrash.At's documented semantics: it is
// an absolute simulation time, not an offset from when EnableFaults runs.
// Boot work advances the clock to 1ms before faults are enabled; a crash
// planned At=1.5ms must then fire at 1.5ms, not 2.5ms.
func TestNodeCrashAtIsAbsolute(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	e.Spawn("boot", func(p *sim.Proc) { p.Sleep(time.Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatalf("boot Run: %v", err)
	}
	if got := e.Now().Duration(); got != time.Millisecond {
		t.Fatalf("boot advanced clock to %v, want 1ms", got)
	}
	plan := &faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 1, At: 1500 * time.Microsecond}},
	}
	crashedAt := sim.Time(-1)
	f.EnableFaults(plan, FaultConfig{}, FaultHooks{
		NodeCrashed: func(n NodeID) { crashedAt = e.Now() },
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := crashedAt.Duration(); got != 1500*time.Microsecond {
		t.Fatalf("crash fired at %v, want the absolute 1.5ms (relative scheduling would give 2.5ms)", got)
	}
	if !f.Crashed(1) {
		t.Error("kernel 1 not marked crashed")
	}
}

// TestNilPlanKeepsFabricIdentical runs the same traffic with and without a
// zero-fault plan attached and requires identical event counts: the fault
// plane must cost nothing when its rules decide nothing, and must not
// exist at all when no plan is attached.
func TestNilPlanKeepsFabricIdentical(t *testing.T) {
	run := func(plan *faultinj.Plan) uint64 {
		e := sim.NewEngine()
		defer e.Close()
		f := testFabric(t, e)
		if plan != nil {
			f.EnableFaults(plan, FaultConfig{}, FaultHooks{})
		}
		f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			return &Message{Size: 8, Payload: m.Payload}
		})
		e.Spawn("caller", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 64, Payload: i}); err != nil {
					t.Errorf("call %d: %v", i, err)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return f.metrics.Counter("msg.delivered").Value()
	}
	bare := run(nil)
	quiet := run(&faultinj.Plan{Seed: 99})
	if bare != quiet {
		t.Fatalf("zero-fault plan changed delivery count: %d vs %d", bare, quiet)
	}
}

// openCalls counts ep's open RPCs, over every peer's list.
func openCalls(ep *Endpoint) int {
	n := 0
	for i := range ep.peers {
		for c := ep.peers[i].oldest; c != nil; c = c.next {
			n++
		}
	}
	return n
}
