package msg

import (
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// The receive pump replaced a dispatcher daemon process per endpoint under
// one rule: the same Schedule calls in the same order. The event counts
// pinned below were read off the daemon implementation (the parent of the
// commit that introduced the pump), so a pump that drops or adds an event
// anywhere — boot, receive, crash, heal — trips here before it moves a
// tie-shuffled table.

// rpcRunEvents runs n back-to-back RPCs 0→1 on a fresh fabric and returns
// how many events the engine processed and how many of them switched into a
// process.
func rpcRunEvents(t *testing.T, n int) (events, handoffs uint64) {
	t.Helper()
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		return &Message{Size: 64}
	})
	e.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 64}); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e.EventsProcessed(), e.Handoffs()
}

func TestPumpEventsPerRPC(t *testing.T) {
	// Four endpoint boots and the caller's spawn, then 8 per RPC: request
	// sent, wake, received, handler start, reply sent, wake, received, caller
	// resumed. Only the caller's spawn, each handler start and each caller
	// resume switch into a process; the two send windows were two more
	// hand-offs per RPC while the sender slept them out.
	const boot, perRPC = 5, 8
	const bootHandoffs, handoffsPerRPC = 1, 2
	for _, n := range []int{1, 100} {
		events, handoffs := rpcRunEvents(t, n)
		if want := uint64(boot + perRPC*n); events != want {
			t.Errorf("%d RPCs processed %d events, want %d", n, events, want)
		}
		if want := uint64(bootHandoffs + handoffsPerRPC*n); handoffs != want {
			t.Errorf("%d RPCs took %d hand-offs, want %d", n, handoffs, want)
		}
	}
}

// crashHealEvents runs an otherwise idle fabric through plan and returns
// the events processed.
func crashHealEvents(t *testing.T, plan *faultinj.Plan) uint64 {
	t.Helper()
	e := sim.NewEngine()
	defer e.Close()
	faultFabric(t, e, plan)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e.EventsProcessed()
}

const (
	pinnedIdleEvents      = 4 // the four endpoint boots
	pinnedCrashEvents     = 185
	pinnedCrashHealEvents = 81 // fewer: the heal lets the detectors settle early
)

// TestPumpCrashAndHealEventCounts pins what a crash of an idle kernel and
// its heal cost in engine events, detectors and rejoin handshake included.
// The idle pump's stop and the new pump's start each account for exactly
// one of them, as the daemon's kill-wake and spawn did.
func TestPumpCrashAndHealEventCounts(t *testing.T) {
	crash := []faultinj.NodeCrash{{Node: 1, At: time.Millisecond}}
	heal := []faultinj.NodeHeal{{Node: 1, At: 1500 * time.Microsecond}}
	if got, want := crashHealEvents(t, &faultinj.Plan{Seed: 1}), uint64(pinnedIdleEvents); got != want {
		t.Errorf("idle fabric processed %d events, want %d", got, want)
	}
	if got, want := crashHealEvents(t, &faultinj.Plan{Seed: 1, Crashes: crash}), uint64(pinnedCrashEvents); got != want {
		t.Errorf("crash of an idle kernel processed %d events, want %d", got, want)
	}
	if got, want := crashHealEvents(t, &faultinj.Plan{Seed: 1, Crashes: crash, Heals: heal}), uint64(pinnedCrashHealEvents); got != want {
		t.Errorf("crash and heal of an idle kernel processed %d events, want %d", got, want)
	}
}

// TestPumpCrashMidReceive crashes a kernel while its pump is charging the
// receive cost of a message, heals it before that receive would have ended,
// and puts a second long receive in flight across the stale event's firing
// time. The first message must vanish, the stale event must not complete
// the second one early, and the second must be handled exactly once.
func TestPumpCrashMidReceive(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	const size, size2 = 1 << 20, 1 << 19
	first := &Message{Type: TypeUser, From: 0, To: 1, Size: size}
	second := &Message{Type: TypeUser, From: 0, To: 1, Size: size2}
	send, recv := f.sendCost(first), f.recvCost(first)
	send2, recv2 := f.sendCost(second), f.recvCost(second)
	crashAt := send + recv/16
	healAt := crashAt + recv/16
	secondAt := send + recv/4 // its receive spans send+recv, the stale event
	f.EnableFaults(&faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 1, At: crashAt}},
		Heals:   []faultinj.NodeHeal{{Node: 1, At: healAt}},
	}, FaultConfig{}, FaultHooks{})
	var handledAt []sim.Time
	var payloads []any
	f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
		handledAt = append(handledAt, p.Now())
		payloads = append(payloads, m.Payload)
		return nil
	})
	e.Spawn("sender", func(p *sim.Proc) {
		f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: size, Payload: "first"})
		p.Sleep(secondAt - p.Now().Duration())
		f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: size2, Payload: "second"})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f.Incarnation(1) != 2 {
		t.Fatalf("Incarnation(1) = %d, want 2", f.Incarnation(1))
	}
	if len(payloads) != 1 || payloads[0] != "second" {
		t.Fatalf("handled %v, want only the message sent after the heal", payloads)
	}
	stale := sim.Time(send + recv)
	earliest := sim.Time(secondAt + send2 + recv2)
	if !(sim.Time(secondAt+send2) < stale && stale < earliest) {
		t.Fatalf("scenario broken: stale event at %v not inside the second receive (%v, %v)", stale, sim.Time(secondAt+send2), earliest)
	}
	if handledAt[0] < earliest {
		t.Fatalf("second message handled at %v, before its receive cost was paid (%v): a stale event of the crashed incarnation drove the new queue", handledAt[0], earliest)
	}
}

// TestPumpResendsCachedReply delivers a duplicate of a completed RPC with
// another request right behind it. The duplicate must put the cached reply
// back on the wire after the reply's send cost — not run the handler again —
// and the queue must stand still meanwhile: the request behind it starts its
// own receive only once the resend has committed.
func TestPumpResendsCachedReply(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := faultFabric(t, e, &faultinj.Plan{Seed: 1})
	pings := 0
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		pings++
		return &Message{Size: 4096}
	})
	var behindAt sim.Time
	f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
		behindAt = p.Now()
		return nil
	})
	var injectedAt sim.Time
	var want time.Duration
	e.Spawn("caller", func(p *sim.Proc) {
		req := &Message{Type: TypePing, To: 1, Size: 64}
		reply, err := f.Endpoint(0).Call(p, req)
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		p.Sleep(time.Millisecond)
		injectedAt = p.Now()
		dup := &Message{Type: TypePing, From: 0, To: 1, Seq: req.Seq, Size: 64, SrcInc: 1, DstInc: 1}
		behind := &Message{Type: TypeUser, From: 0, To: 1, Seq: 9001, Size: 64, SrcInc: 1, DstInc: 1}
		want = f.recvCost(dup) + f.sendCost(reply) + f.recvCost(behind)
		f.deliver(dup)
		f.deliver(behind)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if pings != 1 {
		t.Errorf("ping handler ran %d times, want 1", pings)
	}
	if got := f.metrics.Counter("msg.fault.replayed").Value(); got != 1 {
		t.Errorf("msg.fault.replayed = %d, want 1", got)
	}
	// The caller already has its reply, so the resent copy arrives an orphan.
	if got := f.metrics.Counter("msg.rpc.orphan").Value(); got != 1 {
		t.Errorf("msg.rpc.orphan = %d, want 1: the cached reply never reached the caller's kernel", got)
	}
	if got := behindAt.Sub(injectedAt); got != want {
		t.Errorf("request behind the duplicate handled %v after delivery, want %v (duplicate's receive + reply's send + its own receive)", got, want)
	}
}
