package msg

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// ErrDeadPeer is the sentinel wrapped by every DeadPeerError, so protocol
// layers can branch on errors.Is without depending on the concrete type.
var ErrDeadPeer = errors.New("msg: peer kernel is dead")

// DeadPeerError reports an RPC abandoned because the destination kernel is
// dead: either the failure detector declared it, or retransmission was
// exhausted without a reply.
type DeadPeerError struct {
	// Peer is the destination kernel the RPC could not reach.
	Peer NodeID
	// Type is the request's message type.
	Type Type
	// Attempts is how many transmissions were made before giving up.
	Attempts int
}

// Error implements the error interface.
func (e *DeadPeerError) Error() string {
	return fmt.Sprintf("msg: RPC %v to dead kernel %d abandoned after %d attempts", e.Type, e.Peer, e.Attempts)
}

// Unwrap yields ErrDeadPeer so errors.Is(err, ErrDeadPeer) matches.
func (e *DeadPeerError) Unwrap() error { return ErrDeadPeer }

// deadPeer builds the error of an RPC abandoned because its peer is dead;
// every exit that returns one has already lost the RPC.
//
//popcornvet:coldpath
func deadPeer(peer NodeID, t Type, attempts int) error {
	return &DeadPeerError{Peer: peer, Type: t, Attempts: attempts}
}

// IsDeadPeer reports whether err means the remote kernel died. Protocol
// degradation paths (group exit, directory revocation) treat this as "the
// peer's state is gone" rather than as a failure. Callers ask with a failed
// RPC's error in hand, so it is off every hot path.
//
//popcornvet:coldpath
func IsDeadPeer(err error) bool { return errors.Is(err, ErrDeadPeer) }

// FaultConfig tunes the hardened transport that EnableFaults switches on.
type FaultConfig struct {
	// RPCTimeout is the first-attempt reply timeout; it doubles on every
	// retransmission, so the total patience is RPCTimeout * (2^RPCRetries-1).
	RPCTimeout time.Duration
	// RPCRetries bounds retransmissions of an unanswered RPC before the
	// caller gives up with a DeadPeerError.
	RPCRetries int
	// SendRetries bounds the transport's link-layer redelivery of a dropped
	// fire-and-forget message (replies included); RPC requests are excluded
	// because the caller's timeout loop already retransmits them.
	SendRetries int
	// SendRetryEvery is the base link-layer redelivery backoff (linear:
	// attempt n waits n * SendRetryEvery).
	SendRetryEvery time.Duration
	// HeartbeatEvery is the failure detector's probe period.
	HeartbeatEvery time.Duration
	// DeadAfter is the silence threshold at which a peer is declared dead.
	// It must comfortably exceed HeartbeatEvery plus any partition window
	// that should heal without a false declaration.
	DeadAfter time.Duration
}

// DefaultFaultConfig returns the tuning the fault sweeps use.
func DefaultFaultConfig() FaultConfig {
	return FaultConfig{
		RPCTimeout:     500 * time.Microsecond,
		RPCRetries:     12,
		SendRetries:    12,
		SendRetryEvery: 3 * time.Microsecond,
		HeartbeatEvery: 200 * time.Microsecond,
		DeadAfter:      2 * time.Millisecond,
	}
}

func (c FaultConfig) withDefaults() FaultConfig {
	d := DefaultFaultConfig()
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = d.RPCTimeout
	}
	if c.RPCRetries <= 0 {
		c.RPCRetries = d.RPCRetries
	}
	if c.SendRetries <= 0 {
		c.SendRetries = d.SendRetries
	}
	if c.SendRetryEvery <= 0 {
		c.SendRetryEvery = d.SendRetryEvery
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = d.HeartbeatEvery
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = d.DeadAfter
	}
	return c
}

// FaultHooks are the OS-level callbacks the fault plane drives. NodeCrashed
// fires in engine context the instant a kernel dies (the OS halts the
// threads it hosted). PeerDead fires in a dedicated degradation process on
// each surviving kernel after its failure detector declares a peer dead;
// it may block on simulator primitives and issue RPCs. NodeRebooted fires
// in engine context the instant a crashed kernel heals, before the rejoin
// handshake runs: the OS must reset the kernel's services to boot state
// (the crash destroyed everything they knew) without blocking.
type FaultHooks struct {
	// NodeCrashed is invoked (engine context, must not block) when n dies.
	NodeCrashed func(n NodeID)
	// PeerDead is invoked on kernel observer when its detector declares
	// dead; it runs in a proc and may block.
	PeerDead func(p *sim.Proc, observer, dead NodeID)
	// NodeRebooted is invoked (engine context, must not block) when n heals.
	NodeRebooted func(n NodeID)
}

// EnableFaults attaches a fault plan to the fabric and switches the
// transport into its hardened mode: RPC timeout/retransmit with dedup,
// link-layer redelivery of dropped sends, and — once a kernel crashes —
// per-survivor heartbeats and failure detectors for the failure window
// (see crashNode). Call it after boot, before the workload runs. With no
// plan attached none of this machinery exists and the fabric's behavior
// (including its draw on the engine's schedule RNG) is byte-identical to
// the reliable transport.
func (f *Fabric) EnableFaults(plan *faultinj.Plan, cfg FaultConfig, hooks FaultHooks) {
	if plan == nil {
		return
	}
	f.plan = plan
	f.fcfg = cfg.withDefaults()
	f.hooks = hooks
	f.straggle = plan.Straggle(f.fcfg.SendRetries, f.fcfg.SendRetryEvery)
	// The retransmit-jitter stream: splitmix64 like the engine's schedule
	// RNG and derived from its seed, but a separate stream, so jitter draws
	// are replayable per seed without shifting the tie chooser's draws.
	f.jrng = sim.NewRNG(f.e.Seed() ^ 0x6a177e5)
	f.plannedCrashes = len(plan.Crashes) + len(plan.TypeCrashes) + len(plan.OriginCrashes)
	f.plannedHeals = len(plan.Heals)
	f.incarnation = make([]uint64, len(f.endpoints))
	now := f.e.Now()
	for n, ep := range f.endpoints {
		f.incarnation[n] = 1
		ep.seen = make(map[dedupKey]*dedupEntry)
		ep.sweepDone = sim.NewCond()
		ep.Handle(TypeRejoin, f.handleRejoin)
		for i := range ep.peers {
			ep.peers[i].lastHeard, ep.peers[i].knownInc = now, 1
		}
	}
	for _, nc := range plan.Crashes {
		// NodeCrash.At is an absolute simulation time; Schedule is relative
		// to Now (and clamps negative delays to 0).
		f.armCrash(NodeID(nc.Node), nc.At-now.Duration())
	}
	for _, nh := range plan.Heals {
		f.e.Schedule(nh.At-now.Duration(), func() {
			f.healsDone++
			f.healNode(NodeID(nh.Node))
		})
	}
	for _, part := range plan.Partitions {
		f.e.Schedule(part.Until-now.Duration(), func() {
			f.partitionClosed(NodeID(part.A), NodeID(part.B))
		})
	}
}

// FaultsEnabled reports whether a fault plan is attached.
func (f *Fabric) FaultsEnabled() bool { return f.plan != nil }

// Incarnation returns kernel n's current incarnation number: 1 from
// EnableFaults, bumped by every reboot, zero when no fault plan is attached.
func (f *Fabric) Incarnation(n NodeID) uint64 {
	if f.incarnation == nil {
		return 0
	}
	return f.incarnation[n]
}

// Crashed reports whether kernel n has died. This is not a failure oracle
// for remote kernels — survivors still learn of deaths through their own
// detectors — it models physically-local knowledge: code asking about the
// kernel it is (or is about to be) running on.
//
//popcornvet:allow kernlocal physically-local knowledge: callers ask about the kernel they run on, and the bit lives on its endpoint
func (f *Fabric) Crashed(n NodeID) bool { return f.endpoints[n].dead }

// linkDown reports whether either end of m's link has crashed: the wire
// between them no longer exists.
//
//popcornvet:allow kernlocal the medium itself: a link is down when the hardware at either end is
func (f *Fabric) linkDown(m *Message) bool { return f.endpoints[m.From].dead || f.endpoints[m.To].dead }

// armCrash schedules kernel n's planned death, a handful of times per run at most.
//
//popcornvet:coldpath
func (f *Fabric) armCrash(n NodeID, after time.Duration) {
	f.e.Schedule(after, func() {
		f.crashesDone++
		f.crashNode(n)
	})
}

// dispatchWire is the fault plane's interception point: every message that
// leaves a wire in commit order passes through here exactly once.
//
//popcornvet:hotpath
func (f *Fabric) dispatchWire(m *Message) {
	if f.plan == nil {
		f.deliver(m)
		return
	}
	for _, tc := range f.plan.RecordCommit(int(m.Type)) {
		f.armCrash(NodeID(tc.Node), tc.After)
	}
	f.route(m)
}

// route applies the plan's probabilistic faults to one message and
// delivers, delays, duplicates, or drops it. Delayed and duplicated copies
// bypass the per-pair FIFO wire — that is the plan's reorder window.
// Link-layer redeliveries of dropped messages re-enter here and re-roll.
// The no-fault fast path (deliver) is allocation-free; injected faults may
// allocate copies and delay closures, which is fine — a fault event is the
// rare case by construction.
func (f *Fabric) route(m *Message) {
	if f.linkDown(m) {
		f.metrics.Counter("msg.fault.dead-link").Inc() // machine-wide only: the link is gone
		f.drop(m, "")
		return
	}
	if f.plan.Partitioned(f.e.Now().Duration(), int(m.From), int(m.To)) {
		f.countLink("msg.fault.partition", m.From, m.To)
		f.dropMsg(m)
		return
	}
	// Gray-failure injection: a slow-link window inflates this delivery's
	// latency without losing anything. It applies to heartbeats too — a
	// sick link slows everything, which is exactly the detector-ambiguous
	// signature a gray failure presents — so plans must keep the inflation
	// under the heartbeat DeadAfter budget unless a false death is the
	// point of the experiment.
	var extra time.Duration
	if len(f.plan.SlowLinks) > 0 {
		extra = f.plan.SlowExtra(f.e.Now().Duration(), int(m.From), int(m.To))
		if extra > 0 {
			f.countLink("msg.fault.slowlink", m.From, m.To)
		}
	}
	if m.Type == TypeHeartbeat {
		// Heartbeats are exempt from probabilistic rules: the detector
		// measures crashes, partitions and gray latency, not link noise.
		f.deliverAfter(m, extra)
		return
	}
	d := f.plan.Decide(int(m.From), int(m.To), int(m.Type))
	if d.Dup {
		f.countLink("msg.fault.dup", m.From, m.To)
		// Both copies share the payload: pinned before the copy, so the
		// copy's header is the collector's too.
		f.pin(m)
		dup := *m
		// The copy never held a credit: a double release would mint one.
		dup.flowCredit = false
		f.e.Schedule(extra+d.DupDelay, func() {
			if !f.linkDown(&dup) {
				f.deliver(&dup)
			}
		})
	}
	if d.Drop {
		f.countLink("msg.fault.drop", m.From, m.To)
		f.dropMsg(m)
		return
	}
	f.deliverAfter(m, extra+d.Delay)
	if d.Delay > 0 {
		f.countLink("msg.fault.delay", m.From, m.To)
	}
}

// deliverAfter delivers m after the fault plane's added latency (slow-link
// inflation, reorder delay), or immediately when there is none. Delayed
// deliveries bypass the per-pair FIFO — that is the reorder window. A delayed
// message rides an event no structure sees: it is pinned, but for a heartbeat,
// which keeps its pool slot (never duplicated or retried, it has no other
// reference) and is counted aside until the event fires.
func (f *Fabric) deliverAfter(m *Message, d time.Duration) {
	if d <= 0 {
		f.deliver(m)
		return
	}
	hb := m.Type == TypeHeartbeat && m.pooled
	if hb {
		f.pool.detached++
	} else {
		f.pin(m)
	}
	f.e.Schedule(d, func() {
		if hb {
			f.pool.detached--
		}
		if f.linkDown(m) {
			f.drop(m, "")
			return
		}
		f.deliver(m)
	})
}

// dropMsg handles a message the plan (or a partition) dropped. Heartbeats
// are lost silently — their loss is the signal. RPC requests (Message.rpc) are
// lost too: the caller's timeout loop owns their recovery, and reuses the
// Message without re-acquiring, so its credit is freed now — the wire
// occupancy it tracked is gone. Everything else (replies, fire-and-forget
// notifications) gets bounded link-layer redelivery, the ring's ack/retry, so
// a single drop cannot wedge a protocol that has no caller-side retry. Runs
// inside the fabric's fault plane, the same engine-context step as delivery.
func (f *Fabric) dropMsg(m *Message) {
	if m.Type == TypeHeartbeat || m.rpc {
		f.drop(m, "")
		return
	}
	m.attempts++
	if m.attempts > f.fcfg.SendRetries {
		f.drop(m, "msg.fault.lost")
		return
	}
	f.countLink("msg.fault.redeliver", m.From, m.To)
	f.pin(m) // the redelivery event holds it
	backoff := f.fcfg.SendRetryEvery * time.Duration(m.attempts)
	f.e.Schedule(backoff, func() { f.route(m) })
}

// crashNode kills kernel n: its endpoint goes dark, queued and in-flight
// messages vanish, its receive pump stops, and every process it hosts
// (handlers, heartbeats, multicast workers) halts; an attached collector
// gets a zero-length fault.crash span on n, so a run's timeline shows the
// death. Runs in engine context — fabric fault-plane code. It fires once per
// injected crash, so it may allocate freely.
//
//popcornvet:allow kernlocal fault-plane kill switch: the injector acting as the hardware, not one kernel reaching into another
//popcornvet:coldpath
func (f *Fabric) crashNode(n NodeID) {
	ep := f.endpoints[int(n)]
	if ep.dead {
		return
	}
	ep.dead = true
	f.metrics.Counter("msg.fault.crash").Inc()
	f.collector.EndAt(f.collector.StartAt("fault.crash", int(n), 0, f.e.Now()), f.e.Now())
	// The wipes destroy the occupancy the credits tracked: refill every
	// account touching the dead kernel and unblock its waiters.
	f.resetFlowLinks(n)
	for _, lane := range []*fifo[*Message]{&ep.bulk, &ep.ctrl} {
		for lane.len() > 0 {
			f.endWiped(lane.pop())
		}
	}
	for peer := range f.endpoints {
		f.wipeWire(n, f.pair(n, NodeID(peer)))
		f.wipeWire(n, f.pair(NodeID(peer), n))
	}
	ep.pump.stop()
	// In pid order: the live list runs from the youngest process to the oldest.
	var live []*sim.Proc
	for r := ep.live; r != nil; r = r.next {
		live = append(live, &r.proc)
	}
	for i := len(live) - 1; i >= 0; i-- {
		live[i].Kill()
	}
	// Tell the sanitizer (if one is attached) so its shadow state forgets
	// the dead kernel's page holdings and in-flight clocks.
	if ck, ok := f.observer.(interface{ NodeCrashed(NodeID) }); ok {
		ck.NodeCrashed(n)
	}
	if f.hooks.NodeCrashed != nil {
		f.hooks.NodeCrashed(n)
	}
	// Spin up the survivors' failure detection for the failure window. The
	// detectors are local — each kernel measures heartbeat silence on its
	// own clock — but the simulation only models them from the instant a
	// kernel dies until every survivor has declared it: an always-on
	// heartbeat loop would keep the discrete-event engine from ever
	// quiescing between workload phases. The last-heard clocks reset at the
	// window's start, so a quiet-but-live peer still gets DeadAfter of
	// grace before any verdict.
	now := f.e.Now()
	for _, sep := range f.endpoints {
		if sep.dead {
			continue
		}
		for i := range sep.peers {
			if !sep.peers[i].declaredDead {
				sep.peers[i].lastHeard = now
			}
		}
		if !sep.detecting {
			sep.detecting = true
			f.startFailureDetection(sep)
		}
	}
}

// wipeWire empties one of crashed kernel n's wires. A committed entry ends
// here; one inside its send window is left to its sender's commit (recycled
// now, the commit would reach its next tenant) — unless the sender is n's
// heartbeat process, which dies in this crash. A message so left is off every
// structure and its sender may die before the commit: pinned now, but for a
// heartbeat, counted aside until its sender's commit ends it.
func (f *Fabric) wipeWire(n NodeID, pair int) {
	for w := &f.wires[pair]; w.len() > 0; {
		e := w.pop()
		if !e.ready && (e.m.Type != TypeHeartbeat || e.m.From != n) {
			e.wiped = true
			if e.m.Type == TypeHeartbeat && e.m.pooled {
				f.pool.detached++
			} else {
				f.pin(e.m)
			}
			continue
		}
		f.endWiped(e.m)
		f.releaseWireEntry(e)
	}
}

// endWiped ends a wiped message, returning no credit (resetFlowLinks has
// refilled the account): a heartbeat goes back to the pool; anything else
// died with a kernel that may hold its other references, and is pinned.
func (f *Fabric) endWiped(m *Message) {
	m.flowCredit = false
	if m.Type == TypeHeartbeat {
		f.release(m)
	} else {
		f.pin(m)
	}
}

// healNode reboots crashed kernel n: the kernel returns empty — every
// pre-crash structure is gone — under a bumped incarnation, reattaches to
// the fabric, and runs the rejoin handshake with the survivors (a zero-length
// fault.heal span on n marks the reboot). Runs in engine context — fabric
// fault-plane code.
//
//popcornvet:allow kernlocal fault-plane reboot: the injector acting as the hardware, not one kernel reaching into another
func (f *Fabric) healNode(n NodeID) {
	ep := f.endpoints[int(n)]
	if !ep.dead {
		return
	}
	f.incarnation[n]++
	ep.dead = false
	f.metrics.Counter("msg.fault.heal").Inc()
	f.collector.EndAt(f.collector.StartAt("fault.heal", int(n), 0, f.e.Now()), f.e.Now())
	// Fresh transport state. The dedup table belonged to the previous
	// incarnation (its inbound lanes were wiped at the crash and fenced
	// since), and so did the stopped pump: an event of its still in flight
	// fires against that pump, not the new one.
	ep.seen = make(map[dedupKey]*dedupEntry)
	ep.sweepDone = sim.NewCond()
	// So did everything it knew about its peers. Suspicions and sweeps are
	// gone; breaker trips, gray verdicts and spent retry budgets described a
	// view that no longer exists (peers keep their own view of this kernel —
	// their breakers reopen via half-open probes). The fresh incarnation owes
	// no peer a reclamation sweep (it has no pre-crash state to reconcile), so
	// it admits every peer at its current incarnation immediately. And it
	// boots with the service processor's knowledge of who is down right now
	// already declared, so it neither burns RPC retries rediscovering them
	// nor holds up settling; its own detector takes over for future crashes.
	// Dedup queues and floors go too; the open-call lists stay for the old
	// incarnation's calls to unlink as they unwind (meanwhile a lower floor;
	// no reply or verdict reaches them: Endpoint.stale).
	now := f.e.Now()
	for i := range ep.peers {
		pr := &ep.peers[i]
		*pr = peer{
			lastHeard:    now,
			declaredDead: f.endpoints[i].dead,
			knownInc:     f.incarnation[i],
			eachName:     pr.eachName,
			oldest:       pr.oldest,
			newest:       pr.newest,
		}
	}
	ep.pump = newPump(ep)
	// Tell the sanitizer (mirroring crashNode) that this kernel is live
	// again, so grants to the fresh incarnation are tracked normally.
	if ck, ok := f.observer.(interface{ NodeHealed(NodeID) }); ok {
		ck.NodeHealed(n)
	}
	if f.hooks.NodeRebooted != nil {
		f.hooks.NodeRebooted(n)
	}
	if !f.settled() {
		// A failure window is open: the rejoined kernel must heartbeat so
		// the running detectors keep trusting it, and must watch its peers
		// for the crashes still to come.
		ep.detecting = true
		f.startFailureDetection(ep)
	}
	inc := f.incarnation[n]
	ep.spawnTracked(fmt.Sprintf("msg-rejoin-%d", n), func(p *sim.Proc) {
		targets := make([]NodeID, 0, len(f.endpoints))
		for peer := range f.endpoints {
			pn := NodeID(peer)
			if pn == n || ep.peers[pn].declaredDead {
				continue
			}
			targets = append(targets, pn)
		}
		errs := make([]error, len(targets))
		ep.CallEachErr(p, targets, func(to NodeID) *Message {
			return NewWith(ep, TypeRejoin, to, 64, rejoinReq{Node: n, Incarnation: inc})
		}, nil, errs)
		for _, err := range errs {
			if err != nil && !IsDeadPeer(err) {
				panic(fmt.Sprintf("msg: rejoin handshake from kernel %d failed: %v", n, err))
			}
		}
	})
}

// rejoinReq announces a rebooted kernel's new incarnation to one survivor.
type rejoinReq struct {
	Node        NodeID
	Incarnation uint64
}

// handleRejoin runs on a surviving kernel when a rebooted peer announces
// itself. The survivor cuts loose any RPC still waiting on the previous
// incarnation, settles the reclamation it owes that incarnation's state
// (running it now if its own detector never reached a verdict), and then
// forgets the death verdict so traffic with the rejoiner resumes. The
// endpoint it touches is m.To — the surviving kernel the handler runs on,
// its own local state.
//
//popcornvet:allow kernlocal resolves the handler's own kernel endpoint (m.To), not a peer's
func (f *Fabric) handleRejoin(p *sim.Proc, m *Message) *Message {
	req := m.Payload.(*rejoinReq)
	ep := f.endpoints[m.To]
	node := req.Node
	// Requests to the previous incarnation (and their retransmissions, which
	// keep the original stamps) are fenced at the rejoined kernel: waiting out
	// the retry schedule would only delay the inevitable DeadPeerError.
	f.failCalls(ep, node, req.Incarnation, "msg.fault.stalecall")
	pr := &ep.peers[node]
	for pr.sweeping {
		// A detector declaration's degradation sweep for the previous
		// incarnation is still running in its own process. Reclamation
		// must complete before the new incarnation is admitted, or the
		// sweep would wipe state the fresh kernel had already been
		// granted.
		ep.sweepDone.Wait(p)
	}
	if !pr.declaredDead {
		// Fast heal: the kernel rebooted before this survivor's detector
		// reached a verdict, but the old incarnation's state is just as
		// dead. Run the degradation sweep the declaration would have run.
		// The verdict flag is claimed for the sweep's duration so a
		// concurrent detector declaration cannot double-sweep and new RPCs
		// to the rejoiner fast-fail until reclamation is done.
		pr.declaredDead = true
		f.countLink("msg.fault.rejoin-sweep", ep.node, node)
		if f.hooks.PeerDead != nil {
			f.hooks.PeerDead(p, ep.node, node)
		}
	}
	pr.declaredDead, pr.suspect, pr.lastHeard = false, false, p.Now()
	// Reclamation is settled: admit the new incarnation's traffic.
	pr.knownInc = req.Incarnation
	f.countLink("msg.fault.rejoined", ep.node, node)
	return Reply(ep, m, 16, struct{}{})
}

// failCalls fails every open RPC ep has to an incarnation of peer older than
// inc, in seq order (the peer's open-call list), counting each under counter
// ("" for none).
func (f *Fabric) failCalls(ep *Endpoint, peer NodeID, inc uint64, counter string) {
	for c := ep.peers[peer].oldest; c != nil; c = c.next {
		if c.m.DstInc < inc && !c.done && !c.failed && !ep.stale(c) {
			c.failed = true
			if counter != "" {
				f.countLink(counter, ep.node, peer)
			}
			c.wake()
		}
	}
}

// partitionClosed resets the failure detectors' silence clocks on both ends
// of a healed link. The misses accumulated during the window were the
// partition's fault, not the peer's: without the reset, a detector that was
// part-way to a verdict when the window closed would go on to declare a
// healed peer dead from pre-heal silence.
func (f *Fabric) partitionClosed(a, b NodeID) {
	if f.incarnation == nil {
		return
	}
	now := f.e.Now()
	f.resetSilence(a, b, now)
	f.resetSilence(b, a, now)
}

// resetSilence refreshes one kernel's failure detector after a partition
// closes. Fault-plane code: runs in engine context.
//
//popcornvet:allow kernlocal fault-plane detector reset when the injector closes a partition; no kernel's handler path
func (f *Fabric) resetSilence(at, peer NodeID, now sim.Time) {
	ep := f.endpoints[at]
	pr := &ep.peers[peer]
	if ep.dead || pr.declaredDead {
		return
	}
	pr.lastHeard = now
	if pr.suspect {
		pr.suspect = false
		f.countLink("msg.fault.unsuspected", ep.node, peer)
	}
}

// declareDead is one kernel's local verdict that a peer died: fail every
// pending RPC aimed at it and run the OS degradation hook in a dedicated
// process. Each surviving kernel reaches its own declaration from its own
// detector — there is no global failure oracle, matching the paper's
// share-nothing design. It fires once per (survivor, dead peer) pair, so it
// may allocate freely.
//
//popcornvet:coldpath
func (f *Fabric) declareDead(ep *Endpoint, dead NodeID) {
	pr := &ep.peers[dead]
	if pr.declaredDead {
		return
	}
	pr.declaredDead, pr.suspect = true, false
	f.countLink("msg.fault.declared", ep.node, dead)
	f.failCalls(ep, dead, math.MaxUint64, "") // whatever incarnation they were aimed at
	if f.hooks.PeerDead != nil {
		// Track the sweep so a rejoin handshake racing it can wait for
		// reclamation to finish before re-admitting the peer.
		pr.sweeping = true
		ep.spawnTracked(fmt.Sprintf("msg-degrade-%d-%d", ep.node, dead), func(p *sim.Proc) {
			f.hooks.PeerDead(p, ep.node, dead)
			pr.sweeping = false
			ep.sweepDone.Broadcast()
		})
	}
}

// startFailureDetection spawns kernel ep's heartbeat sender and failure
// detector. Both are ordinary processes that exit once the plan's crashes
// have all happened and every survivor has declared them, so a fault run
// still quiesces. It runs once per kernel lifetime (boot and
// each reboot), so the spawn-time allocations are off the hot path; the
// probe loop inside stays clean because the sends go through the pooled
// NewWith/reserve/commit hot functions.
//
//popcornvet:coldpath
func (f *Fabric) startFailureDetection(ep *Endpoint) {
	cfg := f.fcfg
	ep.spawnTracked(fmt.Sprintf("msg-heartbeat-%d", ep.node), func(p *sim.Proc) {
		for !f.settled() {
			for n := range f.endpoints {
				to := NodeID(n)
				// Skip only peers this kernel has itself declared dead: a
				// survivor has no oracle for who crashed, so its heartbeats
				// to a dead peer go into the void until its own detector
				// gives a verdict.
				if to == ep.node || ep.dead || ep.peers[to].declaredDead {
					continue
				}
				// Heartbeats are fabric-owned and pooled: deliver releases
				// them at its consume point and drop wherever the fault plane
				// eats one (partition, dead link, fence), so the probe traffic
				// of a failure window recycles a handful of objects.
				hb := NewWith(ep, TypeHeartbeat, to, 16, struct{}{})
				ep.prepare(hb)
				f.metrics.Counter("msg.heartbeat.sent").Inc()
				entry := f.reserve(hb)
				f.adopt(hb)
				p.Sleep(f.sendCost(hb))
				f.commit(entry)
			}
			p.Sleep(cfg.HeartbeatEvery)
		}
	})
	ep.spawnTracked(fmt.Sprintf("msg-detector-%d", ep.node), func(p *sim.Proc) {
		// Clearing the flag on every exit path (settling, the kernel's own
		// death, kill-unwind at a crash) is what lets detection restart for
		// a later failure window — a healed kernel can crash again.
		defer func() { ep.detecting = false }()
		for !f.settled() {
			p.Sleep(cfg.DeadAfter / 4)
			if ep.dead {
				return
			}
			now := p.Now()
			for n := range ep.peers {
				peer, pr := NodeID(n), &ep.peers[n]
				if peer == ep.node || pr.declaredDead {
					continue
				}
				// Suspicion at half the declaration threshold: the OS reads
				// it (Endpoint.Suspects) to evacuate threads off a
				// possibly-partitioned kernel before any verdict falls.
				silence := now.Sub(pr.lastHeard)
				switch suspect := silence > cfg.DeadAfter/2; {
				case silence > cfg.DeadAfter:
					f.declareDead(ep, peer)
				case suspect && !pr.suspect:
					pr.suspect = true
					f.countLink("msg.fault.suspected", ep.node, peer)
				case !suspect && pr.suspect:
					pr.suspect = false
					f.countLink("msg.fault.unsuspected", ep.node, peer)
				}
			}
		}
	})
}

// settled reports whether every planned crash and heal has fired and every
// survivor has declared every currently-crashed kernel dead — the point
// where the failure detectors have nothing left to detect and may exit.
// Pending heals keep the detectors alive: a rejoined kernel both sends and
// expects heartbeats for as long as a window can still be open.
func (f *Fabric) settled() bool {
	if f.crashesDone < f.plannedCrashes || f.healsDone < f.plannedHeals {
		return false
	}
	for n, crashed := range f.endpoints {
		if !crashed.dead {
			continue
		}
		for _, ep := range f.endpoints {
			if !ep.dead && !ep.peers[n].declaredDead {
				return false
			}
		}
	}
	return true
}

// linkKey identifies one per-link metric: a counter family name qualified by
// the directed kernel pair.
type linkKey struct {
	name     string
	from, to NodeID
}

// countLink bumps a fault-plane counter both machine-wide and per directed
// link. The per-link counter is derived (with Sprintf) only on its first
// occurrence and cached after, so fault-heavy runs don't format a metric key
// per event.
//
//popcornvet:hotpath
func (f *Fabric) countLink(name string, from, to NodeID) {
	f.metrics.Counter(name).Inc()
	k := linkKey{name: name, from: from, to: to}
	c, ok := f.linkCounters[k]
	if !ok {
		c = f.metrics.Counter(fmt.Sprintf("%s.k%d-k%d", name, from, to))
		f.linkCounters[k] = c
	}
	c.Inc()
}
