package msg

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Endpoint is one kernel's attachment to the fabric: an inbound queue
// drained by the receive pump (the kernel's message work queue), a handler
// table, and per peer the open RPCs (peer.oldest).
type Endpoint struct {
	f    *Fabric
	node NodeID

	// bulk is the inbound backlog the pump drains. With the flow plane
	// attached it holds only bulk traffic, whose depth the sender-side credits
	// bound, and ctrl is the priority control lane: replies, rejoin handshakes
	// and invalidations are received ahead of bulk so control traffic is never
	// starved behind data.
	bulk, ctrl fifo[*Message]
	// pump drains the two lanes for the current incarnation.
	pump     *pump
	handlers [numTypes]handler

	// live lists (through handlerRun.prev/next) every process this endpoint
	// started (handlers, multicast workers, failure detection) and has not
	// torn down, so a kernel crash can halt all of them.
	live *handlerRun

	// peers is everything this kernel knows about each other kernel, indexed
	// by NodeID. dead marks this kernel itself crashed; seen is the
	// at-most-once dedup table (fault plane only, nil otherwise).
	peers     []peer
	dead      bool
	detecting bool
	seen      map[dedupKey]*dedupEntry
	sweepDone *sim.Cond
}

// peer is one kernel's own view of one other kernel — the paper's kernels
// share nothing, so every plane's per-peer knowledge lives here, learned by
// message: the failure detector's clock and verdicts and the rejoin admission
// state (fault plane), the gray EWMA, breaker and retry bucket (flow plane).
// A detached plane leaves its fields zero, and a reboot resets the record.
type peer struct {
	lastHeard             sim.Time
	suspect, declaredDead bool
	// knownInc is the highest incarnation of the peer this kernel has
	// completed a rejoin handshake with (i.e. finished reclaiming the
	// previous incarnation's state). Messages stamped with a newer
	// incarnation are dropped at delivery until the handshake lands:
	// serving a fresh kernel while its predecessor's reclamation sweep is
	// still pending would let the sweep wipe state granted to the new one.
	knownInc uint64
	// sweeping: the detector-declared degradation sweep for the peer is still
	// running in its spawned process; a rejoin handshake waits (sweepDone) for
	// it to finish before admitting the new incarnation.
	sweeping bool
	flow     flowPeer

	// This kernel's open calls to the peer, in seq order (call.prev/next): the
	// one record of its RPCs in flight, which replies are matched against and
	// verdicts fail; the oldest's seq is the Floor it stamps. The rest is the
	// at-most-once horizon (fault plane): the highest floor the peer stamped
	// (floor, learned at floorAt) and the highest known longer than the
	// straggler bound (safe); the peer's dedup entries, in arrival order.
	oldest, newest *call
	floor, safe    uint64
	floorAt        sim.Time
	dedupQ         fifo[*dedupEntry]
}

// learnFloor takes a floor the peer stamped: a lower one is a stale copy's,
// and a higher one landing while another ages into safe waits for a later one.
func (pr *peer) learnFloor(floor uint64, now sim.Time, bound time.Duration) {
	if floor > pr.safeFloor(now, bound) && pr.floor == pr.safe {
		pr.floor, pr.floorAt = floor, now
	}
}

// safeFloor is the highest floor known for longer than the straggler bound.
func (pr *peer) safeFloor(now sim.Time, bound time.Duration) uint64 {
	if pr.floor > pr.safe && now.Sub(pr.floorAt) > bound {
		pr.safe = pr.floor
	}
	return pr.safe
}

// call is one RPC in flight and the request's continuation: while the caller
// is parked it carries what each completion needs (the wire entry of the copy
// in its send window, the reply timeout to arm once that copy commits). Pooled
// on Fabric.callFree, sentFn/timerFn bound once. A rejoin handshake fails calls
// whose m.DstInc is an older callee incarnation: fenced, never to be answered.
type call struct {
	ep              *Endpoint
	waiter          *sim.Proc
	waiterPID       int64 // the waiter's storage may outlive it (sim.Engine.Start)
	m, reply        *Message
	entry           *wireEntry
	timeout         time.Duration // this attempt's reply timeout (fault mode)
	sendEv, timerEv sim.EventHandle
	// sent: the latest copy has committed. done/failed: the outcome (a reply;
	// a dead-peer or stale-call verdict). timedOut: the timeout's wake marker.
	sent, done, failed, timedOut bool
	sentFn, timerFn              func()
	prev, next                   *call // the open calls to m.To (peer.oldest)
}

// newCall takes a call off the pool and enters it in its peer's open calls
// (in seq order: prepare has just numbered m), which take m into the fabric's
// custody; endCall, deferred by Call, undoes all three.
//
//popcornvet:hotpath
func (ep *Endpoint) newCall(p *sim.Proc, m *Message) *call {
	f := ep.f
	c := sim.Take(&f.callFree)
	if c == nil {
		c = &call{}
		c.sentFn, c.timerFn = c.onSent, c.onTimeout
	}
	c.ep, c.waiter, c.waiterPID, c.m, c.timeout = ep, p, p.ID(), m, f.fcfg.RPCTimeout
	f.adopt(m)
	pr := &ep.peers[m.To]
	at := &pr.oldest
	if c.prev = pr.newest; c.prev != nil {
		at = &c.prev.next
	}
	*at, pr.newest = c, c
	return c
}

// endCall runs on every exit path of Call, kill-unwind included. Cancelling
// the pending events (a fired one's handle is stale and cancels nothing) lets
// the object be reused, and a sender killed inside the send window never commit.
// The request's life ends here: answered, its one copy has been handled and it
// goes back to the pool; otherwise a copy may still be on a wire or at a
// handler, and it is pinned. A reply nobody took (the caller was killed after
// it landed) goes back too.
//
//popcornvet:hotpath
func (ep *Endpoint) endCall(c *call) {
	c.sendEv.Cancel()
	c.timerEv.Cancel()
	fwd, back := &ep.peers[c.m.To].oldest, &ep.peers[c.m.To].newest
	if c.prev != nil {
		fwd = &c.prev.next
	}
	if c.next != nil {
		back = &c.next.prev
	}
	*fwd, *back = c.next, c.prev
	if c.done {
		ep.f.release(c.m)
	} else {
		ep.f.pin(c.m)
	}
	if c.reply != nil {
		ep.f.release(c.reply)
	}
	*c = call{sentFn: c.sentFn, timerFn: c.timerFn}
	sim.Give(&ep.f.callFree, c)
}

// transmit is the one place an RPC request — first copy or retransmission —
// goes on the wire. The caller has nothing to do until the reply, so the send
// window is an engine event (onSent), not a sleep of the caller's process.
//
//popcornvet:hotpath
func (c *call) transmit() {
	f := c.ep.f
	c.sent = false
	c.entry = f.reserve(c.m)
	c.sendEv = f.e.Schedule(f.sendCost(c.m), c.sentFn)
}

// onSent ends the send window: commit, then arm the reply timeout (fault
// mode) — or, if the outcome was decided inside the window (a reply to an
// earlier copy, a verdict), resume the caller now, when one that slept out
// the send cost itself would have seen it.
//
//popcornvet:hotpath
func (c *call) onSent() {
	f := c.ep.f
	c.sent = true
	f.commit(c.entry)
	if !c.done && c.ep.peers[c.m.To].declaredDead {
		c.failed = true // the verdict on the peer is read here and nowhere else
	}
	switch {
	case c.done || c.failed:
		c.waiter.Resume()
	case f.plan != nil:
		c.timerEv = f.e.Schedule(c.timeout, c.timerFn)
	}
}

// onTimeout is the reply timeout: wake the caller to retransmit.
func (c *call) onTimeout() {
	if !c.done && !c.failed && !c.timedOut {
		c.timedOut = true
		c.waiter.Resume()
	}
}

// wake resumes the caller on an outcome — unless the latest copy is still in
// its send window: onSent does then, so no caller runs before the commit.
func (c *call) wake() {
	if c.sent {
		c.waiter.Resume()
	}
}

// dedupKey identifies a request for at-most-once delivery: the fabric-wide
// Seq is unique per RPC, and From guards against the (impossible today,
// cheap to be safe about) reuse of a Seq by another sender.
type dedupKey struct {
	from NodeID
	seq  uint64
}

// dedupEntry remembers a request this kernel accepted, from its first copy's
// arrival (at) until retire. While the handler runs, duplicates are suppressed
// outright; once done, duplicates of an RPC re-send the cached reply (the
// caller evidently missed it): the entry's own copy (Fabric.keep), released
// at retire. Pooled on Fabric.dedupFree.
type dedupEntry struct {
	seq       uint64
	at        sim.Time
	rpc, done bool
	reply     *Message
	// sent is the reply as it went out, not the entry's: a replay reads the
	// link-layer attempts it has used while it is still that reply. A dropped
	// reply is pinned for its redelivery and stays so; one never dropped has
	// used none, and once back in its slot it no longer carries this seq.
	sent *Message
}

func newEndpoint(f *Fabric, node NodeID) *Endpoint {
	ep := &Endpoint{
		f:     f,
		node:  node,
		peers: make([]peer, len(f.endpoints)),
	}
	ep.pump = newPump(ep)
	return ep
}

// Collector returns the span collector attached to the endpoint's fabric
// (nil when tracing is detached). Protocol services read it here so one
// Fabric.SetCollector covers every layer.
func (ep *Endpoint) Collector() *trace.Collector { return ep.f.collector }

// Ordered reports whether the fabric still guarantees per-pair FIFO
// delivery. A fault plan's delay, duplication and retransmission rules can
// reorder messages on a link, so protocol layers that rely on FIFO to prune
// bookkeeping (e.g. clearing racing-invalidation marks) must keep it when
// this returns false.
func (ep *Endpoint) Ordered() bool { return !ep.f.FaultsEnabled() }

// handler is one Type's entry in an endpoint's handler table: its server and
// the function a Kind's Handle registered.
type handler struct {
	s  server
	fn any
}

// server runs request m's handler fn and returns the reply to stage, or nil:
// a Kind, or a raw Handler. Both are pointer-shaped, as is fn, so registering
// allocates nothing beyond the handler's own closure.
type server interface {
	serve(ep *Endpoint, p *sim.Proc, m *Message, fn any) *Message
}

func (h Handler) serve(_ *Endpoint, p *sim.Proc, m *Message, _ any) *Message { return h(p, m) }

// Handle registers a raw handler, for traffic built by hand; protocol
// services register through Kind.Handle.
func (ep *Endpoint) Handle(t Type, h Handler) { ep.register(t, h, nil) }

// register enters t's handler. Registering twice for the same type panics:
// handler wiring is static kernel configuration, and a silent overwrite would
// hide a wiring bug.
func (ep *Endpoint) register(t Type, s server, fn any) {
	if ep.handlers[t].s != nil {
		panic(fmt.Sprintf("msg: duplicate handler for %v on node %d", t, ep.node))
	}
	ep.handlers[t] = handler{s: s, fn: fn}
}

// Handles reports whether a handler is registered for t. Exhaustiveness
// tests use it to prove every protocol message type is wired.
func (ep *Endpoint) Handles(t Type) bool {
	return t > TypeInvalid && t < numTypes && ep.handlers[t].s != nil
}

// Suspects reports whether this kernel's failure detector is currently
// suspicious of peer n: heartbeat silence has crossed half the DeadAfter
// threshold but no verdict has been reached. Like Fabric.Crashed, this is
// physically-local knowledge — each kernel reads only its own detector —
// and the OS uses it to evacuate threads before a peer is declared dead.
func (ep *Endpoint) Suspects(n NodeID) bool { return ep.peers[n].suspect }

// handlerRun is one endpoint-owned process on storage the fabric pools: the
// Proc itself (sim.Engine.Start) and what its body works on — a request (m,
// with its handle.* span hs), one target of a multicast round (fan, i), or any
// other function (fn). So handling a message allocates no Proc, no closure and
// no registry entry; the record is on its endpoint's live list instead.
type handlerRun struct {
	proc sim.Proc
	ep   *Endpoint
	m    *Message
	hs   trace.Scope
	fan  *fanout
	i    int
	fn   func(p *sim.Proc)
	// run, handle and callOne, bound once per record.
	body, serve, each func(p *sim.Proc)
	prev, next        *handlerRun
}

// startRun starts a process of ep's on a pooled record; the caller then sets
// what its body works on (the process first runs as a later event). Linking at
// the head as the pid is assigned keeps the live list in descending pid order.
//
//popcornvet:hotpath
func (ep *Endpoint) startRun(name string) *handlerRun {
	r := sim.Take(&ep.f.runFree)
	if r == nil {
		r = &handlerRun{}
		r.body, r.serve, r.each = r.run, r.handle, r.callOne
	}
	r.ep = ep
	if r.next = ep.live; r.next != nil {
		r.next.prev = r
	}
	ep.live = r
	ep.f.e.Start(&r.proc, name, r.body)
	return r
}

// run is every record's body.
//
//popcornvet:hotpath
func (r *handlerRun) run(p *sim.Proc) {
	defer r.teardown(p)
	r.fn(p)
}

// teardown runs on every exit path of the body, kill-unwind included: end a
// handle span no reply took over, end the request's life (a one-way one goes
// back to the pool — an RPC's is its Call's — and one a kill cut short is
// pinned), leave the live list, and go back to the pool — unless killed: a
// wait queue may still name the Proc, so the record is retired with its
// process. The Proc is left alone; the engine is finishing it.
//
//popcornvet:hotpath
func (r *handlerRun) teardown(p *sim.Proc) {
	r.hs.End()
	ep := r.ep
	if m := r.m; m != nil {
		if p.Killed() {
			ep.f.pin(m)
		} else {
			ep.f.end(m)
		}
	}
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		ep.live = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	}
	if p.Killed() {
		return
	}
	r.ep, r.m, r.hs, r.fan, r.fn, r.prev, r.next = nil, nil, trace.Scope{}, nil, nil, nil, nil
	sim.Give(&ep.f.runFree, r)
}

// spawnTracked starts fn as an endpoint-owned process, which crashNode halts.
func (ep *Endpoint) spawnTracked(name string, fn func(p *sim.Proc)) {
	ep.startRun(name).fn = fn
}

// beginWireSpan opens the wire-transit span for m's first send and stamps
// its causal parent from the sending process (unless the caller already set
// one). The fabric closes the span at delivery, so its extent is the leg's
// full time on the wire. No-op when detached, for heartbeats, and for
// retransmitted or resent copies that already carry a span — those reuse the
// original leg's identity, like the incarnation stamps.
func (ep *Endpoint) beginWireSpan(p *sim.Proc, m *Message) {
	col := ep.f.collector
	if col == nil || m.Type == TypeHeartbeat || m.Span != 0 {
		return
	}
	if m.SpanParent == 0 {
		m.SpanParent = p.Span()
	}
	name := wireSpanNames[m.Type]
	if m.IsReply {
		name = wireReplySpanNames[m.Type]
	}
	m.Span = uint64(col.StartAt(name, int(ep.node), trace.SpanID(m.SpanParent), p.Now()))
}

// Send transmits m asynchronously (fire-and-forget): the caller is charged
// only the sender-side ring cost, slept out here because, unlike an RPC
// caller, it runs again straight afterwards. m.From is set to this node. A
// pooled m is the fabric's from here on: the sender must not touch it again.
//
// With the flow plane attached, bulk (non-control) sends must hold a link
// credit and block — without bound — until one frees: fire-and-forget
// protocol traffic must not be silently dropped, so overload surfaces as
// sender-side blocking (visible in the flow.credit-wait span and, if the
// system truly wedges, to the deadlock detector) rather than as unbounded
// queue growth. Callers that prefer to shed use TrySend.
//
//popcornvet:hotpath
func (ep *Endpoint) Send(p *sim.Proc, m *Message) {
	entry := ep.stage(p, m)
	p.Sleep(ep.f.sendCost(m))
	ep.f.commit(entry)
}

// stage is a one-way send up to its ring-slot reservation, where the fabric
// takes m into its custody; whoever calls it owes the send cost and then the
// commit.
func (ep *Endpoint) stage(p *sim.Proc, m *Message) *wireEntry {
	ep.checkAddressed(m)
	// wait<0 blocks forever and shed=false never refuses, so the error
	// return is structurally nil here.
	_ = ep.flowAdmit(p, m, -1, false)
	ep.announce(p, m)
	entry := ep.f.reserve(m)
	ep.f.adopt(m)
	return entry
}

// announce is what a message's first send does between admission and the
// ring, one-way or RPC alike: stamp it, open its wire span, count it and tell
// the observer.
func (ep *Endpoint) announce(p *sim.Proc, m *Message) {
	ep.prepare(m)
	ep.beginWireSpan(p, m)
	ep.f.metrics.CounterIn(&ep.f.hot.sent, "msg.sent").Inc()
	if o := ep.f.observer; o != nil {
		o.MsgSent(p, m)
	}
}

// TrySend transmits m like Send but never blocks: if the link's credits are
// exhausted — or the destination is gray-listed as slow — it refuses
// immediately with a BackpressureError. This is the load-shedding entry point
// for advisory traffic (prefetch, bulk user data) whose loss costs only
// performance. Without the flow plane it is identical to Send and always
// returns nil. A refused pooled m goes back to the pool.
func (ep *Endpoint) TrySend(p *sim.Proc, m *Message) error {
	if err := ep.flowAdmit(p, m, 0, true); err != nil {
		ep.f.discard(m)
		return err
	}
	ep.Send(p, m)
	return nil
}

// Call transmits m and blocks p until the destination's handler returns a
// reply. The round trip charges send cost here, receive+handler cost on the
// remote kernel, and the reply's costs symmetrically — all of it time p
// spends parked, once per attempt: the send windows are engine events.
//
// On a reliable fabric a Call waits indefinitely (a lost reply is a protocol
// bug the deadlock detector reports). With a fault plan attached the wait is
// hardened: a sim-time reply timeout, bounded retransmission with exponential
// backoff (the receiver dedups, so handlers still observe at-most-once
// semantics), and a DeadPeerError once the peer is declared dead or retries
// are exhausted. Either way the open-call entry is removed on every exit
// path, including kill-unwind.
//
// A pooled m is the fabric's from the call on. The reply is the caller's to
// keep, left to the collector; Kind.Call hands it out by value instead, and
// the reply goes back to the pool.
func (ep *Endpoint) Call(p *sim.Proc, m *Message) (*Message, error) {
	reply, err := ep.call(p, m, NoRole)
	if reply != nil {
		ep.f.adopt(reply)
		ep.f.pin(reply)
	}
	return reply, err
}

// call is Call up to the reply, which it hands to the caller's custody, for
// a request that is origin-role traffic for kernel role unless role is NoRole.
func (ep *Endpoint) call(p *sim.Proc, m *Message, role NodeID) (*Message, error) {
	ep.f.stampOrigin(m, role)
	if err := ep.admit(p, m); err != nil {
		ep.f.discard(m) // never sent: its life ends here
		return nil, err
	}
	// The RPC round span covers everything between the caller issuing the
	// request and resuming with the reply (or an error): both wire legs, the
	// remote handler, queue waits, and any retransmission backoff. It ends
	// via the deferred Scope on every exit path.
	var rpcSpan trace.Scope
	if col := ep.f.collector; col != nil {
		rpcSpan = col.Begin(p, rpcSpanNames[m.Type], int(ep.node))
	}
	defer rpcSpan.End()
	m.rpc = true
	ep.announce(p, m)
	ep.f.metrics.CounterIn(&ep.f.hot.rpc, "msg.rpc").Inc()
	c := ep.newCall(p, m)
	defer ep.endCall(c)
	start := p.Now()
	c.transmit()
	reply, err := ep.awaitReply(p, c)
	if ep.f.flow != nil && !controlLane(m) {
		// Only genuine RPC outcomes feed the breaker: success (on a reliable
		// fabric too, or a succeeding half-open probe leaves it wedged) and
		// dead-peer/timeout-exhausted failures are evidence about the peer; a
		// backpressure refusal (retry budget) is congestion, not an outage.
		switch {
		case err == nil:
			ep.breakerResult(m.To, false)
		case IsDeadPeer(err):
			ep.breakerResult(m.To, true)
		default:
			ep.breakerAbort(m.To)
		}
	}
	if err == nil {
		rtt := p.Now().Sub(start)
		ep.f.metrics.HistogramIn(&ep.f.hot.rtt, "msg.rpc.rtt").Observe(rtt)
		ep.grayObserve(m.To, rtt)
	}
	return reply, err
}

// admit is Call's gate before anything is sent: misuse, a dead peer or a dead
// self, and the flow plane's breaker and credit.
func (ep *Endpoint) admit(p *sim.Proc, m *Message) error {
	if m.To == ep.node {
		return selfRPCError(ep.node, m.Type)
	}
	ep.checkAddressed(m)
	if ep.peers[m.To].declaredDead {
		ep.f.metrics.Counter("msg.fault.fastfail").Inc()
		return deadPeer(m.To, m.Type, 0)
	}
	if ep.dead {
		// This kernel itself crashed: a straggler issuing RPCs through its
		// endpoint (say, teardown of a process whose origin died) fails fast
		// instead of waiting on wires that no longer exist.
		ep.f.metrics.Counter("msg.fault.fastfail").Inc()
		return deadPeer(ep.node, m.Type, 0)
	}
	// Flow-plane gates: an open circuit breaker fails bulk RPCs fast, and a
	// bulk request must hold a link credit — waiting at most MaxCreditWait
	// before the caller gets a deterministic BackpressureError instead of an
	// unbounded queue. Control-lane RPCs (invalidations, rejoin) bypass both.
	if err := ep.breakerAllow(m); err != nil {
		return err
	}
	if err := ep.flowAdmit(p, m, ep.f.creditWait(), false); err != nil {
		// A credit refusal is local congestion — the receiver is busy, not
		// broken — so it contributes no breaker failure; it only releases a
		// half-open probe slot this caller may have claimed.
		ep.breakerAbort(m.To)
		return err
	}
	return nil
}

// selfRPCError and strayWakeError build Call's two misuse errors; the RPC
// that returns one never happened.
//
//popcornvet:coldpath
func selfRPCError(node NodeID, t Type) error {
	return fmt.Errorf("msg: node %d RPC to itself (type %v)", node, t)
}

//popcornvet:coldpath
func strayWakeError(t Type, to NodeID) error {
	return fmt.Errorf("msg: RPC %v to node %d woken without reply", t, to)
}

// rpcWaitLabel renders the deadlock-report label of a caller parked for a
// reply, from the operands Call recorded with SetWaitLabel. It runs only
// when a report is rendered, never while the caller waits.
//
//popcornvet:coldpath
func rpcWaitLabel(typ, to, seq uint64) string {
	return fmt.Sprintf("%v from k%d seq=%d", Type(typ), NodeID(to), seq)
}

// creditWait is the RPC credit-wait bound (zero when the flow plane is
// detached — flowAdmit no-ops before reading it).
func (f *Fabric) creditWait() time.Duration {
	if f.flow == nil {
		return 0
	}
	return f.flow.cfg.MaxCreditWait
}

// awaitReply is the wait half of Call: park p until the reply lands or, in
// fault mode only, a dead-peer verdict falls or the reply timeout fires —
// then retransmit with exponential backoff until retries run out. The reply
// goes to the caller's custody.
func (ep *Endpoint) awaitReply(p *sim.Proc, c *call) (*Message, error) {
	m, cfg := c.m, ep.f.fcfg
	for attempts := 1; ; attempts++ {
		p.SetWaitLabel("rpc-reply", rpcWaitLabel, uint64(m.Type), uint64(m.To), m.Seq)
		p.Suspend()
		c.timerEv.Cancel()
		switch {
		case c.done:
			reply := c.reply
			c.reply = nil
			ep.f.handOut(reply)
			return reply, nil
		case c.failed:
			ep.f.metrics.Counter("msg.fault.rpcdead").Inc()
			return nil, deadPeer(m.To, m.Type, attempts)
		case !c.timedOut:
			return nil, strayWakeError(m.Type, m.To)
		}
		c.timedOut = false
		ep.f.countLink("msg.fault.timeout", ep.node, m.To)
		// A timeout is also an RTT observation: the peer took at least this
		// long, so silence feeds the gray detector just like a slow reply.
		ep.grayObserve(m.To, c.timeout)
		if attempts > cfg.RPCRetries {
			ep.f.countLink("msg.fault.exhausted", ep.node, m.To)
			return nil, deadPeer(m.To, m.Type, attempts)
		}
		if ep.f.flow != nil && !controlLane(m) && !ep.budgetAllow(m.To) {
			// The per-peer retry budget ran dry: stop contributing to the
			// retransmit storm and surface overload to the caller instead.
			return nil, backpressure(m.To, m.Type, "retry-budget")
		}
		// Exponential backoff with deterministic jitter: without the jitter
		// term, callers that timed out together retransmit in lockstep
		// forever (a synchronized retry storm); the seeded stream keeps the
		// desynchronization replay-identical.
		c.timeout = 2*c.timeout + time.Duration(ep.f.jrng.Int63n(int64(cfg.RPCTimeout)))
		// Retransmit the same Seq through the normal wire path. The
		// observer sees another MsgSent for the same key — a harmless
		// over-approximation that only adds the caller's own clock ticks to
		// the edge the eventual delivery joins.
		ep.f.countLink("msg.fault.retransmit", ep.node, m.To)
		if o := ep.f.observer; o != nil {
			o.MsgSent(p, m)
		}
		ep.f.pin(m) // the first copy may still be on a wire or at the handler
		c.transmit()
	}
}

// checkAddressed panics on a message no kernel could receive — fatal misuse,
// caught at the door, before a plane indexes anything by m.To.
func (ep *Endpoint) checkAddressed(m *Message) {
	if int(m.To) < 0 || int(m.To) >= len(ep.peers) {
		panic(fmt.Sprintf("msg: send to unknown node %d", m.To))
	}
	if m.Type == TypeInvalid {
		panic("msg: send of invalid message type")
	}
}

// prepare stamps From, Seq, and (in fault mode) the incarnation pair and the
// floor. Retransmissions re-enter with SrcInc already set and keep their
// original stamps: a copy prepared before a reboot must stay fenceable, and
// at-most-once dedup holds across incarnations; an old floor only understates.
func (ep *Endpoint) prepare(m *Message) {
	m.From = ep.node
	if m.Seq == 0 {
		ep.f.nextSeq++
		m.Seq = ep.f.nextSeq
	}
	if ep.f.incarnation != nil && m.SrcInc == 0 {
		m.SrcInc = ep.f.incarnation[ep.node]
		m.DstInc = ep.f.incarnation[m.To]
		m.Floor = m.Seq
		if c := ep.peers[m.To].oldest; c != nil {
			m.Floor = c.m.Seq
		}
	}
}

// deliver enqueues m at its destination endpoint. The fence comes first —
// before the last-heard refresh, so a zombie heartbeat cannot feed the failure
// detector — then, in fault mode, every surviving delivery refreshes the
// detector's clock and the sender's floor, and heartbeats are consumed here
// without ever touching the queue or the observer. This IS the fabric's
// delivery step — the one place allowed to touch a peer's queue.
//
//popcornvet:allow kernlocal the fabric's delivery step itself: the message arriving at its destination's queue
//popcornvet:hotpath
func (f *Fabric) deliver(m *Message) {
	dst := f.endpoints[m.To]
	if f.fence(m, dst) {
		return
	}
	if f.plan != nil {
		pr := &dst.peers[m.From]
		pr.lastHeard = f.e.Now()
		pr.learnFloor(m.Floor, pr.lastHeard, f.straggle)
		if m.Type == TypeHeartbeat {
			// The consume point: heartbeats are never queued, duplicated, or
			// retried, so the fabric-owned object goes back to its pool here.
			f.metrics.Counter("msg.heartbeat.recv").Inc()
			f.release(m)
			return
		}
	}
	if f.collector != nil && m.Span != 0 {
		// Close the wire-transit span. Fenced and dropped copies never reach
		// this point, so a message the fault plane ate leaves its span open —
		// which is exactly how a trace shows a lost leg.
		f.collector.EndAt(trace.SpanID(m.Span), f.e.Now())
	}
	f.metrics.CounterIn(&f.hot.delivered, "msg.delivered").Inc()
	lane, gauge, name := &dst.bulk, &f.hot.queueDepth, "msg.queue.maxdepth"
	if f.flow != nil {
		m.enqAt = f.e.Now()
		if controlLane(m) {
			// The priority lane: uncredited (replies and revocations must
			// never deadlock behind the credits their senders hold) but still
			// bounded — replies by the outstanding credited RPCs, rejoin and
			// invalidations by their protocols' own fan-out. Bulk depth is
			// capped by the per-link sender credits.
			lane, gauge, name = &dst.ctrl, &f.hot.ctrlDepth, "msg.ctrlqueue.maxdepth"
		}
	}
	lane.push(m)
	if g, depth := f.metrics.CounterIn(gauge, name), uint64(lane.len()); depth > g.Value() {
		g.Add(depth - g.Value())
	}
	dst.pump.kick()
}

// fence is the one delivery-time admission check, and reports whether it
// dropped m. Every stamp is first-wins at send and compared here: the
// origin-epoch m was prepared under against the failover plane's current one
// (pre-promotion traffic from, or addressed through, a stale origin — the
// promoted successor's state must never see it), then, in fault mode, the
// destination's life, the incarnation pair against the current one (the
// sender rebooted since — a zombie — or the destination did, and the message
// targets state that died with the crash; unstamped messages, sent before
// EnableFaults, pass), and the sender's incarnation against the one the
// destination has admitted: until the rejoin handshake lands the previous
// incarnation's reclamation may still be pending here, and admitting traffic
// now would let that sweep wipe state granted to the fresh kernel — RPC
// retransmits cover the gap.
//
//popcornvet:hotpath
func (f *Fabric) fence(m *Message, dst *Endpoint) bool {
	switch {
	case f.originEpoch != nil && m.OriginEpoch != 0 && m.OriginEpoch < f.originEpoch[m.OriginNode]:
		f.drop(m, "msg.fault.staleorigin")
	case f.plan == nil:
		return false
	case dst.dead:
		f.drop(m, "")
	case m.SrcInc != 0 && (m.SrcInc != f.incarnation[m.From] || m.DstInc != f.incarnation[m.To]):
		f.drop(m, "msg.fault.fenced")
	case m.Type != TypeRejoin && m.SrcInc > dst.peers[m.From].knownInc:
		f.drop(m, "msg.fault.unadmitted")
	default:
		return false
	}
	return true
}

// drop is the one way out for a message that will not be handled — fenced,
// sent over a dead or partitioned link, lost to the plan: count it under why,
// machine-wide and per link ("" where the caller already counted), return the
// flow credit it holds, and end it (an RPC request stays its Call's, to
// retransmit).
//
//popcornvet:hotpath
func (f *Fabric) drop(m *Message, why string) {
	if why != "" {
		f.countLink(why, m.From, m.To)
	}
	f.flowRelease(m)
	f.end(m)
}

// pump is one incarnation of an endpoint's message work queue, run as a
// chain of global-lane events instead of a parked process: the pending event
// is the whole wait state, and what its completion needs rides here. A crash
// stops the pump and a heal starts a new one, so an event the dead
// incarnation left in flight fires against the old pump and does nothing.
type pump struct {
	ep *Endpoint
	// idle: the queues were empty and no event is pending, so the next
	// delivery must schedule one.
	idle, stopped bool
	// m is the message whose receive cost is being charged; resend is a
	// cached reply reserved on the wire and waiting out its send cost.
	m      *Message
	resend *wireEntry
	stepFn func() // step, bound once so scheduling it allocates nothing
}

// newPump starts ep's pump with one event; deliveries that land before it
// fires see a pump that is not idle and leave it be.
func newPump(ep *Endpoint) *pump {
	pu := &pump{ep: ep}
	pu.stepFn = pu.step
	ep.f.e.Schedule(0, pu.stepFn)
	return pu
}

// kick is delivery's "there is work" signal.
func (pu *pump) kick() {
	if pu.idle {
		pu.idle = false
		pu.ep.f.e.Schedule(0, pu.stepFn)
	}
}

// stop halts the pump at a kernel crash. An idle pump still spends one
// event, as the parked daemon it replaced did to unwind: dropping it would
// shift every later seq and, under tie-shuffle, the chooser's draws. The
// message it was receiving dies with the kernel.
func (pu *pump) stop() {
	pu.kick()
	pu.stopped = true
	if m := pu.m; m != nil {
		pu.m = nil
		pu.ep.f.endWiped(m)
	}
}

// step is the pump's one event. It finishes what the previous step started
// — nothing (a wake), a receive, or a cached-reply resend — then starts
// receiving the next message, the control lane strictly ahead of bulk so
// control traffic is never starved behind data, or goes idle. Dequeuing a
// bulk message returns its credit: credits track queue occupancy, which
// keeps the bulk backlog bounded by the senders' credit accounts.
//
//popcornvet:hotpath
func (pu *pump) step() {
	if pu.stopped {
		return
	}
	ep, f := pu.ep, pu.ep.f
	if entry := pu.resend; entry != nil {
		pu.resend = nil
		f.commit(entry)
	} else if m := pu.m; m != nil {
		pu.m = nil
		switch {
		case m.IsReply:
			ep.completeCall(m)
		case ep.seen != nil && ep.dedup(m):
			if pu.resend != nil {
				return // the resend's own step picks the queue up again
			}
		default:
			ep.spawnHandler(m)
		}
	}
	switch {
	case ep.ctrl.len() > 0:
		pu.m = ep.ctrl.pop()
		f.metrics.HistogramIn(&f.hot.ctrlWait, "msg.flow.ctrlwait").Observe(f.e.Now().Sub(pu.m.enqAt))
	case ep.bulk.len() > 0:
		pu.m = ep.bulk.pop()
		if f.flow != nil {
			f.metrics.HistogramIn(&f.hot.bulkWait, "msg.flow.bulkwait").Observe(f.e.Now().Sub(pu.m.enqAt))
			f.flowRelease(pu.m)
		}
	default:
		pu.idle = true
		if ep.seen != nil {
			ep.retire()
		}
		return
	}
	f.e.Schedule(f.recvCost(pu.m), pu.stepFn)
}

// onSent ends the send window of a handler's reply: commit, as the handler
// did after sleeping out the send cost — unless the kernel crashed inside the
// window: a killed handler never committed and left its request un-done.
//
//popcornvet:hotpath
func (e *wireEntry) onSent() {
	pu, de, span, reply := e.pu, e.de, e.span, e.m // commit may recycle e
	f := pu.ep.f
	if !pu.stopped {
		var kept *Message
		if de != nil {
			kept = f.keep(reply) // before commit, which may hand reply on to its end
		}
		f.commit(e)
		if de != nil {
			de.done, de.reply, de.sent = true, kept, reply
		}
	}
	f.collector.EndAt(span, f.e.Now())
}

// spawnHandler runs m's handler in a process of its own (the modeled work
// queue: it may block without stalling delivery), on a pooled record. A type
// nobody registered for fails the run.
//
//popcornvet:hotpath
func (ep *Endpoint) spawnHandler(m *Message) {
	if !ep.Handles(m.Type) {
		ep.f.e.Fail(fmt.Errorf("msg: node %d has no handler for %v", ep.node, m.Type))
		ep.f.end(m)
		return
	}
	r := ep.startRun(handlerProcNames[m.Type])
	r.m, r.fn = m, r.serve
}

// handle is a handler process's body. A reply's send cost is charged to no
// process: the handler stages it and leaves the commit to its wire entry. A
// raw handler must keep neither m nor m.Payload: teardown ends the request.
//
//popcornvet:hotpath
func (r *handlerRun) handle(hp *sim.Proc) {
	ep, m := r.ep, r.m
	if o := ep.f.observer; o != nil {
		o.MsgDelivered(hp, m)
	}
	// The handler span nests under the *sender's* operation span (carried in
	// the message) — that link is what stitches the tree across the kernel
	// boundary. It covers the handler body and, for RPCs, committing the
	// reply: a staged reply takes the span along; teardown ends any other.
	if col := ep.f.collector; col != nil {
		r.hs = col.BeginUnder(hp, handleSpanNames[m.Type], int(ep.node), trace.SpanID(m.SpanParent))
	}
	h := &ep.handlers[m.Type]
	reply := h.s.serve(ep, hp, m, h.fn)
	// Fault plane only (seen is nil otherwise): later duplicates of an RPC are
	// answered from the entry's copy of the reply, made as it is sent.
	de := ep.seen[dedupKey{from: m.From, seq: m.Seq}]
	if reply != nil {
		reply.Type, reply.To, reply.Seq, reply.IsReply = m.Type, m.From, m.Seq, true
		entry := ep.stage(hp, reply)
		entry.pu, entry.de = ep.pump, de
		entry.span, r.hs = r.hs.ID(), trace.Scope{}
		ep.f.e.Schedule(ep.f.sendCost(reply), entry.sentFn)
	} else if de != nil {
		de.done = true
	}
}

// dedup enforces at-most-once request delivery under duplication and
// retransmission. The first arrival of a (from, seq) is recorded and
// handled normally; a duplicate while the handler is still running is
// suppressed; a duplicate of a completed RPC re-sends the cached reply —
// the retransmission means the caller never saw it — reserved on the wire
// here, committed by the pump's next step a send cost later. The resend
// reuses the original reply's identity and skips MsgSent, so the sanitizer
// joins the caller against the handler's original clock, not a phantom
// second reply. A suppressed copy ends here.
func (ep *Endpoint) dedup(m *Message) bool {
	k := dedupKey{from: m.From, seq: m.Seq}
	de, dup := ep.seen[k]
	if !dup {
		if de = sim.Take(&ep.f.dedupFree); de == nil {
			de = &dedupEntry{}
		}
		de.seq, de.at, de.rpc = m.Seq, ep.f.e.Now(), m.rpc
		ep.seen[k] = de
		ep.peers[m.From].dedupQ.push(de)
		return false
	}
	ep.f.countLink("msg.fault.dedup_hits", m.From, ep.node)
	ep.f.end(m)
	if !de.done || de.reply == nil {
		ep.f.countLink("msg.fault.dupdrop", m.From, ep.node)
		return true
	}
	ep.f.countLink("msg.fault.replayed", ep.node, m.From)
	rm := *de.reply
	rm.pooled = false // shares the entry's body, which retire releases
	if sent := de.sent; sent.IsReply && sent.From == ep.node && sent.Seq == de.seq {
		rm.attempts = sent.attempts
	}
	ep.pump.resend = ep.f.reserve(&rm)
	ep.f.e.Schedule(ep.f.sendCost(&rm), ep.pump.stepFn)
	return true
}

// retire runs as the pump goes idle — lanes empty, nothing in receive, so every
// copy that has arrived has been through dedup — and drops from the front of
// each sender's queue every done entry no copy can still hit: an RPC below the
// safe floor (each copy was reserved on the pair wire before the floor's
// message, so it left first, and lands within the straggler bound after), or a
// one-way message older than the bound (its copies left at one dispatch).
//
//popcornvet:hotpath
func (ep *Endpoint) retire() {
	f, now := ep.f, ep.f.e.Now()
	for from := range ep.peers {
		pr := &ep.peers[from]
		safe := pr.safeFloor(now, f.straggle)
		for pr.dedupQ.len() > 0 {
			de := pr.dedupQ.front()
			if !de.done || (de.rpc && de.seq >= safe) || (!de.rpc && now.Sub(de.at) <= f.straggle) {
				break
			}
			pr.dedupQ.pop()
			delete(ep.seen, dedupKey{from: NodeID(from), seq: de.seq})
			if de.reply != nil {
				f.release(de.reply)
			}
			*de = dedupEntry{}
			sim.Give(&f.dedupFree, de)
		}
	}
}

// completeCall matches a reply to its open call — on the list of calls to
// the replying peer, made by this incarnation — and wakes the caller. A reply
// nobody waits for any more ends here.
func (ep *Endpoint) completeCall(m *Message) {
	c := ep.peers[m.From].oldest
	for c != nil && (c.m.Seq != m.Seq || ep.stale(c)) {
		c = c.next
	}
	if c == nil || c.done || c.failed {
		ep.f.metrics.Counter("msg.rpc.orphan").Inc()
		ep.f.end(m)
		return
	}
	c.reply = m
	c.done = true
	if o := ep.f.observer; o != nil {
		o.MsgDelivered(c.waiter, m)
	}
	c.wake()
}

// stale reports whether c was opened by an earlier incarnation of this kernel:
// such a call is on its peer's list only until its dead caller unwinds, and
// no reply or verdict reaches it.
func (ep *Endpoint) stale(c *call) bool {
	return c.m.SrcInc != 0 && c.m.SrcInc != ep.f.incarnation[ep.node]
}
