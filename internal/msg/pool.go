package msg

import (
	"fmt"

	"repro/internal/sim"
)

// The message pool: Popcorn's rings hand out preallocated slots, and so does
// the fabric. Every protocol message comes from a free list on its Fabric,
// one per (Type, request/reply) slot, and goes back to it where its life ends:
//
//   - a request at the return of its handler (one-way) or at the end of its
//     Call (RPC);
//   - a reply once its caller has copied the payload out (Kind.Call, Kind.Each);
//   - a heartbeat at delivery or at drop, the fabric's own.
//
// A message with a second reference or an abnormal end — a fault-plane
// duplicate or delayed copy, a retransmitted request, a link-layer
// redelivery, a crash wipe, a killed handler or caller — is pinned instead: it
// leaves the pool's accounting and is left to the garbage collector, like
// every message built by hand. One rule, no reference counts.
//
// The dedup table does not share a reply with its caller: it keeps its own
// copy, taken from the reply's slot as the reply leaves (Fabric.keep), and
// releases it at retire. A replayed reply is a bare header sharing that copy's
// body, pinned from birth; retire cannot reach the copy before the caller's
// floor has passed its seq, by when the caller has copied the payload out.
// A heal discards the table and pins its copies.

// msgPool is the fabric's message pool and its accounting: its slots count
// their cold allocations, pinned the pool-born messages left to the
// collector, held those taken out and not yet the fabric's again (a request
// built and not yet sent, a reply handed to its caller), and detached the
// heartbeats still the fabric's but off its structures (riding a fault-plane
// delay, or wiped off their wire inside the sender's send window). The
// msg.pool invariant checks that what was made is free, pinned, held,
// detached or on one of the fabric's own structures.
type msgPool struct {
	slots                  [numTypes][2]msgSlot
	pinned, held, detached int
}

// msgSlot is one (Type, leg) free list: plain LIFO, engine-ordered (sim.Take,
// Give) — never sync.Pool. Every message in it carries a body of one payload
// type, its Kind's for the leg; body zeroes it at release, so a free message
// keeps nothing its last tenant referenced, and copies it for the dedup table.
// made counts the slot's cold allocations.
type msgSlot struct {
	free []*Message
	body slotBody
	made int
}

// slotBody is what a slot does to its payload type's bodies. Its one
// implementation, bodyOf[T], is a zero-size value, so setting a slot's body
// allocates nothing (a generic function value, made inside take, would
// allocate its closure).
type slotBody interface {
	// clear zeroes m's body.
	clear(m *Message)
	// clone takes a message of m's slot carrying a copy of m's body.
	clone(f *Fabric, m *Message) *Message
}

// bodyOf is slotBody for bodies of type T.
type bodyOf[T any] struct{}

func (bodyOf[T]) clear(m *Message) {
	var zero T
	*m.Payload.(*T) = zero
}

func (bodyOf[T]) clone(f *Fabric, m *Message) *Message {
	c, _ := take(f, m.Type, m.IsReply, m.Payload.(*T))
	return c
}

// leg indexes a slot by direction: requests 0, replies 1.
func leg(isReply bool) int {
	if isReply {
		return 1
	}
	return 0
}

// take hands out a message of slot (t, reply), typed t, carrying a copy of
// *payload (by pointer: no frame holds a second copy), and its body: a free
// one, or on a cold miss a new header and body in one allocation. A
// slot's messages all carry one payload type, the one its Type's Kind declares
// for the leg. The message is in its caller's custody (held) until the fabric
// takes it back.
//
//popcornvet:hotpath
func take[T any](f *Fabric, t Type, reply bool, payload *T) (*Message, *T) {
	s := &f.pool.slots[t][leg(reply)]
	f.pool.held++
	m := sim.Take(&s.free)
	if m == nil {
		s.made++
		s.body = bodyOf[T]{}
		b := &struct {
			Message
			body T
		}{Message: Message{pooled: true}}
		b.Payload = &b.body
		m = &b.Message
	}
	m.Type, m.IsReply = t, reply
	body := m.Payload.(*T)
	*body = *payload
	return m, body
}

// keep returns the dedup table's own copy of reply m as it leaves: m's header
// and a copy of its body in a message of m's slot, holding no flow credit.
// m goes on to its caller and back to the pool as ever; the table releases
// the copy at retire. A message built by hand or pinned is the collector's,
// and is kept as it is.
//
//popcornvet:hotpath
func (f *Fabric) keep(m *Message) *Message {
	if !m.pooled {
		return m
	}
	c := f.pool.slots[m.Type][leg(m.IsReply)].body.clone(f, m)
	f.adopt(c)
	body := c.Payload
	*c = *m
	c.Payload, c.flowCredit = body, false
	return c
}

// adopt takes m into the fabric's custody from the code that built it.
//
//popcornvet:hotpath
func (f *Fabric) adopt(m *Message) {
	if m.pooled {
		f.pool.held--
	}
}

// handOut gives m into the custody of code outside the fabric: a reply on its
// way to its caller.
//
//popcornvet:hotpath
func (f *Fabric) handOut(m *Message) {
	if m.pooled {
		f.pool.held++
	}
}

// discard takes back a message its holder is done with unread — a request
// never sent, a reply nobody reads — and returns it to the pool.
//
//popcornvet:hotpath
func (f *Fabric) discard(m *Message) {
	f.adopt(m)
	f.release(m)
}

// release returns m to its slot's free list: body zeroed, header reset. A
// message built by hand or pinned is the collector's, and release leaves it
// alone; releasing a free message panics.
//
//popcornvet:hotpath
func (f *Fabric) release(m *Message) {
	if !m.pooled {
		return
	}
	if m.Type == TypeInvalid {
		doubleRelease(m)
	}
	s := &f.pool.slots[m.Type][leg(m.IsReply)]
	s.body.clear(m)
	m.reset()
	sim.Give(&s.free, m)
}

// doubleRelease reports a message released twice.
//
//popcornvet:coldpath
func doubleRelease(m *Message) {
	panic(fmt.Sprintf("msg: message released twice (payload %T)", m.Payload))
}

// pin takes m out of the pool for good: it has, or may have, a second
// reference, and is left to the collector.
//
//popcornvet:hotpath
func (f *Fabric) pin(m *Message) {
	if m.pooled {
		m.pooled = false
		f.pool.pinned++
	}
}

// end is the fabric-side end of a message that will not be handled — dropped,
// fenced, a suppressed duplicate, an orphan reply: released, unless it is an
// RPC request, which stays its Call's until the Call ends.
//
//popcornvet:hotpath
func (f *Fabric) end(m *Message) {
	if !m.rpc {
		f.release(m)
	}
}

// checkPool is the msg.pool invariant: every message the pool made is free,
// pinned, held, detached, or on the fabric's own structures — a wire, a
// receive lane, a pump, a dedup entry, a handler's record, an open call. An
// RPC request is counted at its call, which owns it for the call's life. A
// double release, a duplicate header released into a slot, a message released
// while a handler or a call still holds it: each breaks the sum.
func (f *Fabric) checkPool() error {
	made, free, flying := 0, 0, 0
	for t := range f.pool.slots {
		for _, s := range f.pool.slots[t] {
			made, free = made+s.made, free+len(s.free)
		}
	}
	count := func(m *Message) {
		if m != nil && m.pooled && !m.rpc {
			flying++
		}
	}
	for _, w := range f.wires {
		for _, e := range w.items[w.head:] {
			count(e.m)
		}
	}
	for _, ep := range f.endpoints {
		for _, lane := range []*fifo[*Message]{&ep.bulk, &ep.ctrl} {
			for _, m := range lane.items[lane.head:] {
				count(m)
			}
		}
		count(ep.pump.m)
		for i := range ep.peers {
			q := &ep.peers[i].dedupQ
			for _, de := range q.items[q.head:] {
				count(de.reply)
			}
		}
		for r := ep.live; r != nil; r = r.next {
			count(r.m)
		}
		for i := range ep.peers {
			for c := ep.peers[i].oldest; c != nil; c = c.next {
				if c.m.pooled {
					flying++
				}
				count(c.reply)
			}
		}
	}
	p := &f.pool
	if made-p.pinned != free+p.held+p.detached+flying {
		return fmt.Errorf("%d messages made, %d pinned: %d free + %d held + %d detached + %d in flight",
			made, p.pinned, free, p.held, p.detached, flying)
	}
	return nil
}
