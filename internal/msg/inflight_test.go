package msg

import (
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// A request or reply in its send window is an engine event carrying a pooled
// continuation, not a sleeping process. These tests hold the window to what
// the sleeping sender did: nothing commits for a kernel that died inside it,
// no caller learns an outcome before the commit instant, and the pooled
// objects are reused without a stale event ever reaching the next tenant.

const bigMsg = 1 << 20 // a send window about a millisecond long

// TestCallerCrashWithEventPending kills the caller's kernel while the call
// has an event pending — halfway through the request's send window, then
// (fault mode) after the commit with the reply timeout armed. Either way the
// caller must unwind at the crash instant, a request still in its window must
// never be delivered, and the event left behind must not fire against the
// call object, which is back on the pool by then.
func TestCallerCrashWithEventPending(t *testing.T) {
	for _, tc := range []struct {
		name          string
		afterCommit   bool
		wantDelivered uint64
	}{{"inside the send window", false, 0}, {"awaiting the reply", true, 1}} {
		e := sim.NewEngine()
		f := testFabric(t, e)
		send := f.sendCost(&Message{Type: TypePing, From: 0, To: 1, Size: bigMsg})
		crashAt := send / 2
		if tc.afterCommit {
			crashAt = send + send/2
		}
		f.EnableFaults(&faultinj.Plan{Seed: 1, Crashes: []faultinj.NodeCrash{{Node: 0, At: crashAt}}}, FaultConfig{}, FaultHooks{})
		f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			p.Sleep(time.Second) // never answers in time
			return nil
		})
		returned := false
		var unwoundAt sim.Time
		f.Endpoint(0).spawnTracked("caller", func(p *sim.Proc) {
			defer func() { unwoundAt = p.Now() }()
			_, _ = f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: bigMsg})
			returned = true
		})
		var inFlight *call
		e.Schedule(crashAt-1, func() {
			inFlight = f.Endpoint(0).peers[1].oldest
		})
		// msg.pending-leak runs at quiescence: Run fails if the entry survived.
		if err := e.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		if inFlight == nil {
			t.Fatalf("%s: scenario broken: no call pending at the crash", tc.name)
		}
		if returned || unwoundAt != sim.Time(crashAt) {
			t.Errorf("%s: caller returned=%v, unwound at %v; want killed at the crash instant %v", tc.name, returned, unwoundAt, sim.Time(crashAt))
		}
		if got := f.metrics.Counter("msg.delivered").Value(); got != tc.wantDelivered {
			t.Errorf("%s: msg.delivered = %d, want %d", tc.name, got, tc.wantDelivered)
		}
		if len(f.callFree) != 1 || f.callFree[0] != inFlight {
			t.Fatalf("%s: call object not returned to the pool (%d pooled)", tc.name, len(f.callFree))
		}
		if inFlight.m != nil || inFlight.entry != nil || inFlight.sent || inFlight.timedOut || inFlight.waiter != nil {
			t.Errorf("%s: pooled call was touched after release: %+v", tc.name, inFlight)
		}
		e.Close()
	}
}

// TestHandlerCrashInsideReplySendWindow kills the callee's kernel halfway
// through the reply's send window: the reply must never be delivered and the
// request must stay un-done in the dedup table, as when the handler process
// itself slept out the window and died in it.
func TestHandlerCrashInsideReplySendWindow(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	req := &Message{Type: TypePing, From: 0, To: 1, Size: 64}
	reply := &Message{Type: TypePing, From: 1, To: 0, Size: bigMsg, IsReply: true}
	staged := f.sendCost(req) + f.recvCost(req)
	crashAt := staged + f.sendCost(reply)/2
	f.EnableFaults(&faultinj.Plan{Seed: 1, Crashes: []faultinj.NodeCrash{{Node: 1, At: crashAt}}}, FaultConfig{}, FaultHooks{})
	var repliedAt sim.Time
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		repliedAt = p.Now()
		return &Message{Size: bigMsg}
	})
	var seq uint64
	var err error
	e.Spawn("caller", func(p *sim.Proc) {
		m := &Message{Type: TypePing, To: 1, Size: 64}
		_, err = f.Endpoint(0).Call(p, m)
		seq = m.Seq
	})
	if rerr := e.Run(); rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	if repliedAt != sim.Time(staged) {
		t.Fatalf("scenario broken: handler replied at %v, want %v", repliedAt, sim.Time(staged))
	}
	if !IsDeadPeer(err) {
		t.Errorf("Call = %v, want a dead-peer error: the reply died with its kernel", err)
	}
	if got := f.metrics.Counter("msg.delivered").Value(); got != 1 {
		t.Errorf("msg.delivered = %d, want 1 (the request only)", got)
	}
	de := f.Endpoint(1).seen[dedupKey{from: 0, seq: seq}]
	if de == nil || de.done || de.reply != nil {
		t.Errorf("dedup entry %+v, want present and not done: the reply never went out", de)
	}
	if n := f.wires[f.pair(1, 0)].len(); n != 0 {
		t.Errorf("%d entries on the dead kernel's wire, want it wiped", n)
	}
}

// TestDeadVerdictInsideSendWindow declares the callee dead while the request
// is still in its send window — by the detector, which fails the pending
// call, and by a rejoin sweep's claim on the verdict flag, which does not: the
// caller must get its DeadPeerError at the commit instant — when a caller
// sleeping out the window would have looked — not at the verdict.
func TestDeadVerdictInsideSendWindow(t *testing.T) {
	for name, verdict := range map[string]func(f *Fabric){
		"declared":   func(f *Fabric) { f.declareDead(f.Endpoint(0), 1) },
		"flag alone": func(f *Fabric) { f.Endpoint(0).peers[1].declaredDead = true },
	} {
		e := sim.NewEngine()
		f := faultFabric(t, e, &faultinj.Plan{Seed: 1})
		f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return &Message{Size: 8} })
		send := f.sendCost(&Message{Type: TypePing, From: 0, To: 1, Size: bigMsg})
		e.Schedule(send/2, func() { verdict(f) })
		var err error
		var returnedAt sim.Time
		e.Spawn("caller", func(p *sim.Proc) {
			_, err = f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: bigMsg})
			returnedAt = p.Now()
		})
		if rerr := e.Run(); rerr != nil {
			t.Fatalf("%s: Run: %v", name, rerr)
		}
		if !IsDeadPeer(err) {
			t.Fatalf("%s: Call = %v, want a dead-peer error", name, err)
		}
		if returnedAt != sim.Time(send) {
			t.Errorf("%s: caller resumed at %v, want the commit instant %v (verdict fell at %v)", name, returnedAt, sim.Time(send), sim.Time(send/2))
		}
		if got := f.metrics.Counter("msg.fault.rpcdead").Value(); got != 1 {
			t.Errorf("%s: msg.fault.rpcdead = %d, want 1", name, got)
		}
		e.Close()
	}
}

// TestReplyToFirstCopyInsideRetransmitWindow holds the handler just long
// enough that the caller times out and retransmits, and the reply to the
// first copy lands inside the second copy's send window: the caller must
// resume with that reply at the second copy's commit instant.
func TestReplyToFirstCopyInsideRetransmitWindow(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := faultFabric(t, e, &faultinj.Plan{Seed: 1})
	const size = 64 << 10 // a window long enough to aim at, a receive shorter than the timeout
	req := &Message{Type: TypePing, From: 0, To: 1, Size: size}
	reply := &Message{Type: TypePing, From: 1, To: 0, Size: 8, IsReply: true}
	send, timeout := f.sendCost(req), f.fcfg.RPCTimeout
	// Copy 2's send window is [send+timeout, send+timeout+send]; aim the
	// reply's arrival at its middle.
	landAt := send + timeout + send/2
	hold := landAt - (send + f.recvCost(req) + f.sendCost(reply) + f.recvCost(reply))
	if hold <= 0 {
		t.Fatalf("scenario broken: handler hold %v", hold)
	}
	handled := 0
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		handled++
		p.Sleep(hold)
		return &Message{Size: 8, Payload: "first"}
	})
	var got *Message
	var err error
	var returnedAt sim.Time
	e.Spawn("caller", func(p *sim.Proc) {
		got, err = f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: size})
		returnedAt = p.Now()
	})
	if rerr := e.Run(); rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	if err != nil || got == nil || got.Payload != "first" {
		t.Fatalf("Call = %v, %v; want the first copy's reply", got, err)
	}
	if f.metrics.Counter("msg.fault.retransmit").Value() != 1 || handled != 1 {
		t.Fatalf("scenario broken: %d retransmissions, handler ran %d times", f.metrics.Counter("msg.fault.retransmit").Value(), handled)
	}
	if want := sim.Time(send + timeout + send); returnedAt != want {
		t.Errorf("caller resumed at %v, want copy 2's commit instant %v (the reply landed at %v)", returnedAt, want, sim.Time(landAt))
	}
}

// TestBackToBackCallsReuseContinuations: 10 000 serial RPCs from two callers
// must cycle through as many call records and wire entries as were ever in
// flight at once, not allocate one per round trip.
func TestBackToBackCallsReuseContinuations(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return &Message{Size: 64} })
	const callers, each = 2, 5000
	for i := 0; i < callers; i++ {
		e.Spawn("caller", func(p *sim.Proc) {
			for n := 0; n < each; n++ {
				if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 64}); err != nil {
					t.Errorf("call %d: %v", n, err)
					return
				}
				p.Sleep(time.Microsecond)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := f.metrics.Counter("msg.rpc").Value(); got != callers*each {
		t.Fatalf("msg.rpc = %d, want %d", got, callers*each)
	}
	if n := len(f.callFree); n == 0 || n > callers {
		t.Errorf("%d call objects after %d calls, want at most %d", n, callers*each, callers)
	}
	if n := len(f.entryFree); n == 0 || n > 2*callers {
		t.Errorf("%d wire entries after %d calls, want at most %d", n, callers*each, 2*callers)
	}
}
