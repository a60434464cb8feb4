package msg

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// A handler process runs on a pooled record (handlerRun) that carries its
// Proc, and a message travels with its payload as one object. These tests
// hold both to what fresh objects did: records are reused only when nothing
// can name them any more, a crash still finds every live process, and a
// payload stays readable for as long as any copy of its header is.

// TestHandlerRecordsAreReused: ten thousand RPCs, one in flight at a time,
// are served on a handful of records.
func TestHandlerRecordsAreReused(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	type pong struct{ N int }
	ping := &Kind[pong, pong]{Type: TypePing, Size: 64, ReplySize: 64}
	ping.Handle(f.Endpoint(1), func(_ *sim.Proc, _ NodeID, req *pong) pong { return pong{N: req.N + 1} })
	const calls = 10000
	e.Spawn("caller", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		for i := 0; i < calls; i++ {
			reply, err := ping.Call(p, ep, 1, NoRole, &pong{N: i})
			if err != nil || reply.N != i+1 {
				t.Errorf("call %d: reply %+v, err %v", i, reply, err)
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := f.metrics.Counter("msg.rpc").Value(); got != calls {
		t.Fatalf("msg.rpc = %d, want %d", got, calls)
	}
	if n := len(f.runFree); n == 0 || n > 4 {
		t.Fatalf("%d handler records pooled after %d RPCs, want 1..4", n, calls)
	}
	if f.Endpoint(1).live != nil {
		t.Fatal("a finished handler is still on its endpoint's live list")
	}
}

// finishOrder is a ProcObserver recording the pids of finishing processes.
type finishOrder struct{ pids []int64 }

func (o *finishOrder) ProcStarted(parent, child *sim.Proc) {}
func (o *finishOrder) ProcWoken(waker, woken *sim.Proc)    {}
func (o *finishOrder) ProcFinished(p *sim.Proc)            { o.pids = append(o.pids, p.ID()) }
func (o *finishOrder) SyncAcquire(p *sim.Proc, key any)    {}
func (o *finishOrder) SyncRelease(p *sim.Proc, key any)    {}

// TestCrashKillsEveryLiveHandlerInPidOrder crashes a kernel with one handler
// parked in a mutex queue, one inside a nested RPC and one started but not
// yet dispatched. All three must halt at the crash instant — the one that never
// ran at the dispatch it already had pending, the parked ones after it in the
// order they were killed, oldest first — and none of their records may return
// to the pool: the mutex queue still names the first one's Proc.
func TestCrashKillsEveryLiveHandlerInPidOrder(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := faultFabric(t, e, &faultinj.Plan{Seed: 1})
	mu := sim.NewMutex(e)
	e.Spawn("holder", func(p *sim.Proc) { mu.Lock(p); p.Sleep(time.Second); mu.Unlock(p) })
	ran := 0
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		ran++
		mu.Lock(p)
		return nil
	})
	f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
		ran++
		_, _ = f.Endpoint(1).Call(p, &Message{Type: TypePing, To: 2, Size: 64})
		return nil
	})
	f.Endpoint(2).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		p.Sleep(time.Second)
		return &Message{Size: 64}
	})
	const crashAt = 50 * time.Microsecond
	last := &Message{Type: TypePing, From: 0, To: 1, Size: 64, Seq: 9003, SrcInc: 1, DstInc: 1}
	e.Spawn("sender", func(p *sim.Proc) {
		f.Endpoint(0).Send(p, &Message{Type: TypePing, To: 1, Size: 64})
		f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 64})
		// The third request's receive completes exactly at the crash instant.
		// Scheduled a tick into that receive, the crash is behind the pump
		// step that ends it in the instant's order, and ahead of the dispatch
		// that step schedules.
		p.Sleep(crashAt - f.recvCost(last) - p.Now().Duration())
		f.deliver(last)
		p.Sleep(1)
		e.Schedule(f.recvCost(last)-1, func() { f.crashNode(1) })
	})
	var before []*handlerRun
	e.Schedule(crashAt-1, func() {
		for r := f.Endpoint(1).live; r != nil; r = r.next {
			before = append(before, r)
		}
	})
	obs := &finishOrder{}
	if err := e.RunUntil(sim.Time(crashAt - 1)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	e.SetProcObserver(obs)
	if err := e.RunUntil(sim.Time(crashAt)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(before) != 2 || ran != 2 {
		t.Fatalf("scenario broken: %d handlers live a tick before the crash, %d ran; want 2 and 2", len(before), ran)
	}
	pids := []int64{before[1].proc.ID(), before[0].proc.ID()} // the list runs youngest first
	if len(obs.pids) != 3 || obs.pids[0] <= pids[1] || obs.pids[1] != pids[0] || obs.pids[2] != pids[1] {
		t.Fatalf("processes finished at the crash instant: pids %v; want the handler that never ran and then %v", obs.pids, pids)
	}
	if ran != 2 {
		t.Fatalf("the handler started at the crash instant ran (%d ran)", ran)
	}
	for _, r := range append(before, f.Endpoint(1).live) {
		if r == nil || !r.proc.Finished() || !r.proc.Killed() {
			t.Fatalf("record %+v: not a finished, killed process", r)
		}
		for _, free := range f.runFree {
			if free == r {
				t.Fatalf("killed handler pid %d went back to the pool", r.proc.ID())
			}
		}
	}
	if mu.Waiters() != 1 {
		t.Fatalf("%d waiters on the mutex, want the dead handler's slot", mu.Waiters())
	}
}

// TestLeakInvariantSeesThroughReusedWaiterStorage leaks a pending call whose
// caller ran on Start storage that now hosts another, unfinished process:
// Finished alone reads false again, so the invariant compares pids.
func TestLeakInvariantSeesThroughReusedWaiterStorage(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	var s sim.Proc
	e.Start(&s, "leaker", func(p *sim.Proc) {
		m := &Message{Type: TypePing, To: 1, Size: 64}
		f.Endpoint(0).prepare(m)
		f.Endpoint(0).newCall(p, m) // and never endCall
	})
	// Same instant, after the leaker has run: no quiescence in between.
	e.Schedule(0, func() { e.Start(&s, "tenant", func(p *sim.Proc) { p.Suspend() }) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `invariant "msg.pending-leak"`) || !strings.Contains(err.Error(), "leaked pending RPC") {
		t.Fatalf("Run = %v, want the msg.pending-leak invariant", err)
	}
}

// TestCoAllocatedReplySurvivesDedupReplay: a duplicate of a completed RPC is
// answered with a copy of the cached reply's header. The cache is the dedup
// table's own copy of the reply, header and body, taken as the reply left —
// the caller's reply is the caller's — so the replayed reply must read the
// same bytes from the table's body, not the caller's.
func TestCoAllocatedReplySurvivesDedupReplay(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := faultFabric(t, e, &faultinj.Plan{Seed: 1})
	type answer struct {
		Text string
		N    [4]uint64
	}
	served := 0
	ask := &Kind[struct{}, answer]{Type: TypePing, Size: 64, ReplySize: 64}
	ask.Handle(f.Endpoint(1), func(*sim.Proc, NodeID, *struct{}) answer {
		served++
		return answer{Text: "forty-two", N: [4]uint64{4, 2, 4, 2}}
	})
	e.Spawn("caller", func(p *sim.Proc) {
		// A raw Call of the kind's pooled request: it hands the pooled reply
		// out as the caller's to keep.
		first, err := f.Endpoint(0).Call(p, ask.request(f.Endpoint(0), 1, &struct{}{}))
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		// The request went back to the pool as its call ended; the reply
		// carries its seq.
		seq, payload := first.Seq, first.Payload.(*answer)
		first = nil
		runtime.GC()
		// A second call under the first one's identity is, to the callee, a
		// retransmission of a request it has already answered.
		again, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 64, Seq: seq})
		if err != nil {
			t.Errorf("replayed call: %v", err)
			return
		}
		got := again.Payload.(*answer)
		if got == payload || got.Text != "forty-two" || got.N != [4]uint64{4, 2, 4, 2} {
			t.Errorf("replayed reply carries %+v at %p, want the original's bytes in the table's own body (the caller's is at %p)", *got, got, payload)
		}
		if !again.IsReply || again.Seq != seq || again.To != 0 {
			t.Errorf("replayed header: %+v", *again)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := f.metrics.Counter("msg.fault.replayed").Value(); served != 1 || got != 1 {
		t.Fatalf("handler ran %d times, msg.fault.replayed = %d; want 1 and 1", served, got)
	}
}
