package msg

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// poolReq and poolAck are the payloads of the pool tests: each request
// carries a number unique to its send, and its reply echoes it doubled.
type poolReq struct{ N int }
type poolAck struct{ N int }

// double is the pool tests' RPC and note their one-way message.
var (
	double = Kind[poolReq, poolAck]{Type: TypePing, Size: 64, ReplySize: 64}
	note   = Kind[poolReq, struct{}]{Type: TypeUser, Size: 64}
)

// pinWatch is an Observer remembering every message it saw already pinned —
// a duplicate, a delayed or redelivered copy, a retransmitted request, a
// replayed reply — to check after the run that none of them went back to a
// free list. It hands every request it sees delivered to check, as its
// handler is about to read it.
type pinWatch struct {
	pinned map[*Message]bool
	check  func(m *Message)
}

func (w *pinWatch) MsgSent(_ *sim.Proc, m *Message) { w.note(m) }
func (w *pinWatch) MsgDelivered(_ *sim.Proc, m *Message) {
	w.note(m)
	if !m.IsReply {
		w.check(m)
	}
}

func (w *pinWatch) note(m *Message) {
	if !m.pooled && m.Type != TypeInvalid {
		w.pinned[m] = true
	}
}

// TestPoolUnderFaultPlane drives RPCs and one-way sends, every message out of
// the pool, through a fault plan that duplicates, delays and drops them —
// so requests are retransmitted and completed RPCs replayed from the dedup
// table — and checks that every handler reads the payload its request was
// sent with (a recycled slot under a live copy would hand it another's), that
// every caller gets its own answer, that no message seen pinned is ever back
// in a free list, and that the pool balances (the msg.pool invariant also
// runs at quiescence).
func TestPoolUnderFaultPlane(t *testing.T) {
	totals := map[string]uint64{}
	for seed := int64(1); seed <= 6; seed++ {
		e := sim.NewEngine(sim.WithSeed(seed))
		plan := &faultinj.Plan{Seed: seed, Rules: []faultinj.Rule{{
			From: faultinj.Wildcard, To: faultinj.Wildcard, Type: faultinj.Wildcard,
			DropP: 0.05, DupP: 0.2, DelayP: 0.2, DelayMax: 300 * time.Microsecond,
		}}}
		f := faultFabric(t, e, plan)
		type key struct {
			from NodeID
			seq  uint64
		}
		sentWith := map[key]int{}
		watch := &pinWatch{pinned: map[*Message]bool{}, check: func(m *Message) {
			k, n := key{m.From, m.Seq}, m.Payload.(*poolReq).N
			if first, ok := sentWith[k]; ok && first != n {
				t.Errorf("seed %d: a copy of k%d seq %d carries %d, the first carried %d", seed, m.From, m.Seq, n, first)
			}
			sentWith[k] = n
		}}
		f.SetObserver(watch)
		for n := 1; n < 4; n++ {
			ep := f.Endpoint(NodeID(n))
			double.Handle(ep, func(p *sim.Proc, _ NodeID, req *poolReq) poolAck {
				p.Sleep(time.Microsecond)
				return poolAck{N: 2 * req.N}
			})
			note.Handle(ep, func(*sim.Proc, NodeID, *poolReq) struct{} { return struct{}{} })
		}
		ep := f.Endpoint(0)
		for c := 0; c < 3; c++ {
			c := c
			e.Spawn("caller", func(p *sim.Proc) {
				for i := 0; i < 40; i++ {
					n := 1000*c + i
					to := NodeID(1 + (c+i)%3)
					ack, err := double.Call(p, ep, to, NoRole, &poolReq{N: n})
					if err != nil {
						t.Errorf("seed %d: call %d: %v", seed, n, err)
						return
					}
					if ack.N != 2*n {
						t.Errorf("seed %d: call %d answered %d", seed, n, ack.N)
					}
					note.Send(p, ep, to, &poolReq{N: -n})
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if err := f.checkPool(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		free := map[*Message]bool{}
		for ty := range f.pool.slots {
			for _, s := range f.pool.slots[ty] {
				for _, m := range s.free {
					free[m] = true
				}
			}
		}
		for m := range watch.pinned {
			if m.pooled || free[m] {
				t.Fatalf("seed %d: a pinned message went back to the pool", seed)
			}
		}
		if made, calls := f.pool.slots[TypePing][0].made, f.metrics.Counter("msg.rpc").Value(); uint64(made) >= calls {
			t.Fatalf("seed %d: %d requests made for %d calls: nothing was recycled", seed, made, calls)
		}
		for _, c := range []string{"msg.fault.dup", "msg.fault.delay", "msg.fault.retransmit", "msg.fault.replayed", "msg.fault.dedup_hits", "msg.fault.redeliver"} {
			totals[c] += f.metrics.Counter(c).Value()
		}
		totals["pinned"] += uint64(len(watch.pinned))
		e.Close()
	}
	for c, n := range totals {
		if n == 0 {
			t.Errorf("%s never happened over the seeds; the plan did not exercise it", c)
		}
	}
}

// TestPoolReleaseTwicePanics: a message released twice is the bug the pool
// cannot absorb — its next two tenants would share one slot.
func TestPoolReleaseTwicePanics(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	m := double.request(f.Endpoint(0), 1, &poolReq{N: 1})
	f.discard(m)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "released twice") {
			t.Fatalf("second release: recovered %v, want the double-release panic", r)
		}
	}()
	f.release(m)
}

// TestPoolSlotHoldsOnePayloadType: a (Type, leg) slot reuses its messages for
// the one payload type its Kind declares. A second kind of the same Type, which
// popcornvet's msgproto rejects, would find the wrong body at reuse.
func TestPoolSlotHoldsOnePayloadType(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	ep := f.Endpoint(0)
	f.discard(double.request(ep, 1, &poolReq{N: 1}))
	if m := double.request(ep, 1, &poolReq{N: 2}); m.Payload.(*poolReq).N != 2 || len(f.pool.slots[TypePing][0].free) != 0 {
		t.Fatalf("the slot did not hand its free message out again: %+v", m.Payload)
	} else {
		f.discard(m)
	}
	defer func() {
		if r, ok := recover().(runtime.Error); !ok || !strings.Contains(r.Error(), "*msg.poolReq") {
			t.Fatalf("recovered %v, want the reused body's type assertion to fail", r)
		}
	}()
	second := Kind[poolAck, poolAck]{Type: TypePing, Size: 64}
	second.request(ep, 1, &poolAck{N: 3})
}

// TestPoolInvariantSeesEarlyRelease: a handler that gives its request back
// while it still runs leaves one message both free and at its handler; the
// msg.pool invariant, checked periodically here, fails the run at the first
// check inside the handler's sleep.
func TestPoolInvariantSeesEarlyRelease(t *testing.T) {
	e := sim.NewEngine(sim.WithInvariantInterval(time.Microsecond))
	defer e.Close()
	f := testFabric(t, e)
	f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
		f.release(m) // the bug: the request's life ends at the handler's return
		p.Sleep(10 * time.Microsecond)
		return nil
	})
	e.Spawn("sender", func(p *sim.Proc) {
		note.Send(p, f.Endpoint(0), 1, &poolReq{N: 1})
	})
	e.Spawn("ticker", func(p *sim.Proc) { // events for the periodic check to follow
		for i := 0; i < 20; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `invariant "msg.pool"`) {
		t.Fatalf("Run = %v, want the msg.pool invariant", err)
	}
}

// TestPoolDedupReplayReadsItsOwnCopy: every request from kernel 0 to kernel 1
// is duplicated, so the dedup table answers copies of completed calls. The
// last call's reply is consumed and goes back to the pool, and a call to
// kernel 2 takes that very message for its own reply; a retransmission of the
// last call is then answered from the table's copy and must read the last
// call's answer, not kernel 2's. Kernel 1 then crashes and reboots holding its
// table, and the pool must balance: a heal that discarded the copies without
// pinning them would lose them from the accounting.
func TestPoolDedupReplayReadsItsOwnCopy(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	const crashAt, healAt = 2 * time.Millisecond, 3 * time.Millisecond
	f := faultFabric(t, e, &faultinj.Plan{
		Seed: 1,
		Rules: []faultinj.Rule{{
			From: 0, To: 1, Type: int(TypePing), DupP: 1, DelayMax: 30 * time.Microsecond,
		}},
		Crashes: []faultinj.NodeCrash{{Node: 1, At: crashAt}},
		Heals:   []faultinj.NodeHeal{{Node: 1, At: healAt}},
	})
	for n := 1; n <= 2; n++ {
		double.Handle(f.Endpoint(NodeID(n)), func(_ *sim.Proc, _ NodeID, req *poolReq) poolAck {
			return poolAck{N: 2 * req.N}
		})
	}
	// The caller's replies, in delivery order.
	watch := &replyWatch{}
	f.SetObserver(watch)
	held := 0
	e.Spawn("caller", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		call := func(to NodeID, n int) {
			if ack, err := double.Call(p, ep, to, NoRole, &poolReq{N: n}); err != nil || ack.N != 2*n {
				t.Errorf("call %d to k%d: %+v, %v", n, to, ack, err)
			}
		}
		for n := 1; n <= 10; n++ {
			call(1, n)
			p.Sleep(50 * time.Microsecond) // the duplicate lands and is replayed
		}
		seq, last := watch.seqs[len(watch.seqs)-1], watch.replies[len(watch.replies)-1]
		call(2, 99)
		if watch.replies[len(watch.replies)-1] != last {
			t.Errorf("scenario broken: kernel 2's reply is not the recycled reply to call 10")
		}
		again, err := ep.Call(p, &Message{Type: TypePing, To: 1, Size: 64, Seq: seq})
		if err != nil || again.Payload.(*poolAck).N != 20 {
			t.Errorf("retransmission of call 10 answered %+v, %v; want N=20", again, err)
		}
		for _, pr := range f.Endpoint(1).peers {
			for _, de := range pr.dedupQ.items[pr.dedupQ.head:] {
				if de.reply != nil && de.reply.pooled {
					held++
				}
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if held == 0 {
		t.Fatal("scenario broken: kernel 1's table held no copy before the crash")
	}
	if got := f.metrics.Counter("msg.fault.replayed").Value(); got < 11 {
		t.Errorf("msg.fault.replayed = %d, want the ten duplicates and the retransmission", got)
	}
	if f.metrics.Counter("msg.fault.heal").Value() != 1 {
		t.Fatal("scenario broken: kernel 1 did not reboot")
	}
	if err := f.checkPool(); err != nil {
		t.Fatal(err)
	}
}

// replyWatch is an Observer recording the replies its callers are handed,
// and their seqs as they land.
type replyWatch struct {
	replies []*Message
	seqs    []uint64
}

func (w *replyWatch) MsgSent(*sim.Proc, *Message) {}
func (w *replyWatch) MsgDelivered(_ *sim.Proc, m *Message) {
	if m.IsReply {
		w.replies = append(w.replies, m)
		w.seqs = append(w.seqs, m.Seq)
	}
}
