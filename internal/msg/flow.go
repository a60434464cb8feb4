package msg

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrBackpressure is the sentinel wrapped by every BackpressureError, so
// callers can branch on errors.Is without depending on the concrete type.
// It means the fabric deliberately refused (or timed out) a send because the
// destination cannot absorb more load right now — shed, retry later, or
// degrade, but do not treat the peer as dead.
var ErrBackpressure = errors.New("msg: fabric backpressure")

// BackpressureError reports a send or RPC the flow-control layer refused:
// credits exhausted past the configured wait, the peer's circuit breaker is
// open, the retry budget ran dry, or bulk traffic was shed toward a slow
// peer.
type BackpressureError struct {
	// Peer is the destination kernel the traffic was aimed at.
	Peer NodeID
	// Type is the message type that was refused.
	Type Type
	// Reason is a short machine-stable cause ("credits", "circuit-open",
	// "retry-budget", "slow-shed").
	Reason string
}

// Error implements the error interface.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("msg: %v to kernel %d refused under backpressure (%s)", e.Type, e.Peer, e.Reason)
}

// Unwrap yields ErrBackpressure so errors.Is(err, ErrBackpressure) matches.
func (e *BackpressureError) Unwrap() error { return ErrBackpressure }

// backpressure builds the error of a request the flow plane refused;
// refusal is the overload slow path, never a per-message cost.
//
//popcornvet:coldpath
func backpressure(peer NodeID, t Type, reason string) error {
	return &BackpressureError{Peer: peer, Type: t, Reason: reason}
}

// IsBackpressure reports whether err means the fabric refused load under
// overload. Protocol layers treat this as "slow down or shed" — the peer is
// alive and its state intact, unlike IsDeadPeer.
func IsBackpressure(err error) bool { return errors.Is(err, ErrBackpressure) }

// PeerHealth is one kernel's local classification of a peer, combining the
// binary failure detector (dead) with the gray-failure detector (slow).
type PeerHealth int

const (
	// PeerHealthy means the peer answers within its usual RTT envelope.
	PeerHealthy PeerHealth = iota
	// PeerSlow means the gray-failure detector's RTT EWMA crossed SlowAfter:
	// the peer is alive but degraded, so bulk traffic toward it is shed while
	// control traffic proceeds.
	PeerSlow
	// PeerDead means this kernel's failure detector declared the peer dead.
	PeerDead
)

// String returns the health state's name for traces and tables.
func (h PeerHealth) String() string {
	switch h {
	case PeerHealthy:
		return "healthy"
	case PeerSlow:
		return "slow"
	case PeerDead:
		return "dead"
	}
	return fmt.Sprintf("msg.PeerHealth(%d)", int(h))
}

// FlowConfig tunes the credit-based flow control, circuit breaker, retry
// budget, and gray-failure detector that EnableFlow switches on.
type FlowConfig struct {
	// CreditsPerLink bounds how many bulk (non-control) messages one kernel
	// may have queued toward one peer: a sender must hold a credit per
	// message, returned when the receiver's pump dequeues it. The
	// receive queue's bulk depth is therefore bounded by CreditsPerLink times
	// the number of inbound links.
	CreditsPerLink int
	// MaxCreditWait bounds how long an RPC (Call) blocks waiting for a
	// credit before failing with a BackpressureError. Send blocks without
	// bound — fire-and-forget protocol traffic must not be silently lost —
	// and TrySend never waits at all.
	MaxCreditWait time.Duration
	// SlowAfter is the RTT-EWMA threshold above which the gray-failure
	// detector classifies a peer as slow; half of it is the hysteresis
	// floor the EWMA must fall back under to be healthy again, so an EWMA
	// wobbling at the threshold cannot flap the state.
	SlowAfter time.Duration
	// BreakerCooldown is how long an open breaker waits before letting a
	// single half-open probe through.
	BreakerCooldown time.Duration
}

// The flow plane's fixed tuning.
const (
	// minRTTSamples is how many RTT observations a peer needs before the gray
	// detector will classify it at all — a single cold-start outlier must not
	// mark a link slow.
	minRTTSamples = 8
	// breakerFailures is how many consecutive RPC failures toward one peer
	// trip its circuit breaker open.
	breakerFailures = 3
	// retryBudget caps RPC retransmissions toward one peer inside each
	// retryBudgetWindow: a token bucket refilled at budget/window, so a retry
	// storm degrades into a paced trickle instead of a synchronized
	// thundering herd.
	retryBudget       = 8
	retryBudgetWindow = time.Millisecond
)

// DefaultFlowConfig returns the tuning the overload sweeps use.
func DefaultFlowConfig() FlowConfig {
	return FlowConfig{
		CreditsPerLink:  16,
		MaxCreditWait:   2 * time.Millisecond,
		SlowAfter:       time.Millisecond,
		BreakerCooldown: 4 * time.Millisecond,
	}
}

func (c FlowConfig) withDefaults() FlowConfig {
	d := DefaultFlowConfig()
	if c.CreditsPerLink <= 0 {
		c.CreditsPerLink = d.CreditsPerLink
	}
	if c.MaxCreditWait <= 0 {
		c.MaxCreditWait = d.MaxCreditWait
	}
	if c.SlowAfter <= 0 {
		c.SlowAfter = d.SlowAfter
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = d.BreakerCooldown
	}
	return c
}

// flowState is the fabric-wide flow-control plane, allocated by EnableFlow
// and nil otherwise; a detached fabric pays one pointer check per message.
type flowState struct {
	cfg FlowConfig
	// links holds the per-directed-pair credit accounts, indexed like the
	// wires they mirror (Fabric.pair).
	links []flowLink
}

// flowLink is one directed pair's credit account and the FIFO of processes
// blocked on it while exhausted — one waiter per blocked sender process, so
// the process population bounds the queue.
type flowLink struct {
	credits int
	waiters fifo[*creditWaiter]
}

// creditWaiter is one process blocked in acquireCredit. granted marks a
// handoff from a release; timedOut marks waiters that gave up (or whose
// process was killed mid-wait) so a later release skips them.
type creditWaiter struct {
	p        *sim.Proc
	granted  bool
	timedOut bool
}

// breaker states for one endpoint's view of one peer.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// flowPeer is one endpoint's flow-plane state for one peer (peer.flow): the
// gray detector's RTT EWMA, the circuit breaker, and the retry-budget bucket.
type flowPeer struct {
	// met: the flow plane has had contact with the peer, which is when the
	// retry bucket fills and its refill clock starts.
	met bool

	// ewma is the integer RTT estimate (alpha = 1/8, the classic SRTT
	// weighting); samples counts observations toward minRTTSamples.
	ewma    time.Duration
	samples int
	slow    bool

	breaker  int
	fails    int
	openedAt sim.Time
	probing  bool

	tokens     int
	lastRefill sim.Time
}

// EnableFlow attaches credit-based flow control, the priority control lane,
// per-peer circuit breakers, retry budgets, and the gray-failure detector to
// the fabric. Call it after boot, before the workload runs. With no flow
// plane attached none of this machinery exists and the fabric's behavior is
// byte-identical to the unbounded transport.
func (f *Fabric) EnableFlow(cfg FlowConfig) {
	f.flow = &flowState{
		cfg:   cfg.withDefaults(),
		links: make([]flowLink, len(f.endpoints)*len(f.endpoints)),
	}
	for i := range f.flow.links {
		f.flow.links[i].credits = f.flow.cfg.CreditsPerLink
	}
}

// RetryBackoff is the pacing a protocol retry loop must apply after a
// backpressure fast-fail before asking again. An open breaker rejects in
// zero virtual time, so an unpaced `continue` would spin forever at one
// instant; sleeping the breaker cooldown lets the half-open probe run
// before the next attempt. Zero when the flow plane is detached (the only
// retriable errors then — timeouts — already consume virtual time).
func (ep *Endpoint) RetryBackoff() time.Duration {
	if ep.f.flow == nil {
		return 0
	}
	return ep.f.flow.cfg.BreakerCooldown
}

// controlLane reports whether m travels the priority control lane: RPC
// replies (an unanswered reply wedges a caller holding resources),
// heartbeats and rejoin handshakes (the failure plane must outrun the very
// overload it is diagnosing), page invalidations (coherence revocation
// stalls writers machine-wide), and the failover plane's replication and
// handover traffic (a successor's mirror that lags behind bulk load is
// stale exactly when a crash is most likely to need it). Control traffic
// bypasses credits and is dispatched ahead of bulk.
func controlLane(m *Message) bool {
	return m.IsReply || m.Type == TypeHeartbeat || m.Type == TypeRejoin || m.Type == TypePageInvalidate ||
		m.Type == TypeDirReplicate || m.Type == TypeGroupReplicate || m.Type == TypeOriginHandover
}

// creditLink resolves the credit account for one directed pair.
func (f *Fabric) creditLink(from, to NodeID) *flowLink { return &f.flow.links[f.pair(from, to)] }

// tryTakeCredit claims a credit immediately if the account has one free and
// no earlier sender is queued ahead (FIFO fairness: a late TrySend must not
// overtake blocked waiters).
func (lk *flowLink) tryTakeCredit() bool {
	if lk.credits <= 0 || lk.waiters.len() > 0 {
		return false
	}
	lk.credits--
	return true
}

// grantNext hands a credit to the account's first live waiter and reports
// whether there was one; waiters that gave up are discarded on the way.
func (lk *flowLink) grantNext() bool {
	for lk.waiters.len() > 0 {
		if w := lk.waiters.pop(); !w.timedOut {
			w.granted = true
			w.p.Resume()
			return true
		}
	}
	return false
}

// grantCredit hands one freed credit to the first live waiter, or banks it
// (clamped at the configured limit, so fault-plane resets that refill an
// account cannot overflow it).
func (fl *flowState) grantCredit(lk *flowLink) {
	if !lk.grantNext() && lk.credits < fl.cfg.CreditsPerLink {
		lk.credits++
	}
}

// acquireCredit blocks p until the (ep.node -> to) account yields a credit,
// up to wait (0 = fail immediately, <0 = wait forever). On success the
// credit is held by the caller's message until flowRelease. The time spent
// blocked is recorded in the msg.flow.creditwait histogram and under a
// flow.credit-wait span, so overload shows up in traces as queueing, not
// mystery latency.
//
//popcornvet:hotpath
func (ep *Endpoint) acquireCredit(p *sim.Proc, m *Message, wait time.Duration) error {
	lk := ep.f.creditLink(ep.node, m.To)
	if lk.tryTakeCredit() {
		return nil
	}
	return ep.acquireCreditSlow(p, m, lk, wait)
}

// acquireCreditSlow is the exhausted-account half of acquireCredit: refuse
// immediately (wait 0) or park the caller in the link's FIFO until a
// release hands it a credit or the wait expires. It only runs under
// overload, where blocking or refusing IS the product — its allocations
// (waiter record, timer closure, error) are the price of an overload event,
// not a per-message cost.
//
//popcornvet:coldpath
func (ep *Endpoint) acquireCreditSlow(p *sim.Proc, m *Message, lk *flowLink, wait time.Duration) error {
	if wait == 0 {
		ep.f.countLink("msg.flow.backpressure", ep.node, m.To)
		return backpressure(m.To, m.Type, "credits")
	}
	ep.f.countLink("msg.flow.creditblock", ep.node, m.To)
	var ws trace.Scope
	if col := ep.f.collector; col != nil {
		ws = col.Begin(p, "flow.credit-wait", int(ep.node))
	}
	start := p.Now()
	w := &creditWaiter{p: p}
	lk.waiters.push(w)
	// Kill-unwind safety: a waiter whose process dies mid-wait (kernel
	// crash) marks itself timed out so grantCredit skips the corpse; if the
	// grant already happened, the credit is re-granted so it is not lost.
	finished := false
	defer func() {
		if finished {
			return
		}
		if w.granted {
			ep.f.flow.grantCredit(lk)
		} else {
			w.timedOut = true
		}
	}()
	var h sim.EventHandle
	if wait > 0 {
		h = ep.f.e.Schedule(wait, func() {
			if w.granted || w.timedOut {
				return
			}
			w.timedOut = true
			p.Resume()
		})
	}
	p.SetWaitLabel("flow-credit", creditWaitLabel, uint64(m.Type), uint64(m.To), 0)
	p.Suspend()
	if wait > 0 {
		h.Cancel()
	}
	finished = true
	blocked := p.Now().Sub(start)
	ep.f.metrics.Histogram("msg.flow.creditwait").Observe(blocked)
	ws.End()
	if !w.granted {
		ep.f.countLink("msg.flow.backpressure", ep.node, m.To)
		return backpressure(m.To, m.Type, "credits")
	}
	return nil
}

// creditWaitLabel renders the deadlock-report label of a sender parked for a
// link credit, from the operands recorded with SetWaitLabel.
func creditWaitLabel(typ, to, _ uint64) string {
	return fmt.Sprintf("%v to k%d", Type(typ), NodeID(to))
}

// flowAdmit is the send-side gate for one outbound message: control-lane
// traffic passes untouched; bulk traffic toward a shed-marked slow peer
// fails fast when the caller opted in (shed true); otherwise a credit is
// acquired under the caller's wait policy and the message marked as holding
// it. No-op when the flow plane is detached.
//
//popcornvet:hotpath
func (ep *Endpoint) flowAdmit(p *sim.Proc, m *Message, wait time.Duration, shed bool) error {
	fl := ep.f.flow
	if fl == nil || m.flowCredit || controlLane(m) {
		return nil
	}
	if shed && ep.peers[m.To].flow.slow {
		// Advisory bulk traffic sheds instead of piling onto a link the
		// gray detector marked slow.
		ep.f.countLink("msg.flow.shed", ep.node, m.To)
		return backpressure(m.To, m.Type, "slow-shed")
	}
	if err := ep.acquireCredit(p, m, wait); err != nil {
		return err
	}
	m.flowCredit = true
	return nil
}

// flowRelease returns the credit m holds (if any) to its account, waking the
// first blocked sender. It has two callers, the two ends a queued or
// in-flight message can come to: the receive pump's dequeue, and drop.
// Clearing the flag makes release idempotent — retransmitted copies share the
// Message and must not double-release.
//
//popcornvet:hotpath
func (f *Fabric) flowRelease(m *Message) {
	fl := f.flow
	if fl == nil || !m.flowCredit {
		return
	}
	m.flowCredit = false
	fl.grantCredit(f.creditLink(m.From, m.To))
}

// resetFlowLinks refills every credit account touching crashed kernel n and
// releases its blocked senders: the wipe that destroyed the queued messages
// destroyed the occupancy the credits were tracking. Waiters are granted —
// their sends will be eaten at the dead-link check, which releases the
// credit again — so no process stays wedged on a dead peer's account.
// Fault-plane code: runs in engine context.
func (f *Fabric) resetFlowLinks(n NodeID) {
	fl := f.flow
	if fl == nil {
		return
	}
	// Iterate links in node order, not map order: the resumes below are
	// event-visible, so their sequence must be a pure function of the
	// schedule.
	for peer := range f.endpoints {
		pn := NodeID(peer)
		f.resetFlowLink(f.creditLink(n, pn))
		f.resetFlowLink(f.creditLink(pn, n))
	}
}

// resetFlowLink refills one account and unblocks its waiters; see
// resetFlowLinks.
func (f *Fabric) resetFlowLink(lk *flowLink) {
	lk.credits = f.flow.cfg.CreditsPerLink
	for lk.grantNext() {
	}
}

// flowPeer resolves this endpoint's flow state for one peer, filling the
// retry bucket at first contact.
func (ep *Endpoint) flowPeer(n NodeID) *flowPeer {
	st := &ep.peers[n].flow
	if !st.met {
		st.met, st.tokens, st.lastRefill = true, retryBudget, ep.f.e.Now()
	}
	return st
}

// PeerHealth returns this kernel's current classification of peer n:
// dead per the failure detector, slow per the gray detector, else healthy.
// Like Suspects, this is physically-local knowledge — each kernel reads only
// its own detectors.
func (ep *Endpoint) PeerHealth(n NodeID) PeerHealth {
	if ep.peers[n].declaredDead {
		return PeerDead
	}
	if ep.peers[n].flow.slow {
		return PeerSlow
	}
	return PeerHealthy
}

// grayObserve feeds one RTT sample (a completed RPC round, or a timeout's
// elapsed patience — silence is also evidence of slowness) into the gray
// detector's EWMA and applies the suspicion hysteresis: above SlowAfter the
// peer turns slow, and it must fall back below half of it to recover, so
// a link hovering at the threshold cannot flap.
//
//popcornvet:hotpath
func (ep *Endpoint) grayObserve(peer NodeID, rtt time.Duration) {
	fl := ep.f.flow
	if fl == nil {
		return
	}
	st := ep.flowPeer(peer)
	if st.samples == 0 {
		st.ewma = rtt
	} else {
		st.ewma += (rtt - st.ewma) / 8
	}
	st.samples++
	if st.samples < minRTTSamples {
		return
	}
	switch {
	case !st.slow && st.ewma > fl.cfg.SlowAfter:
		st.slow = true
		ep.f.countLink("msg.gray.slow", ep.node, peer)
	case st.slow && st.ewma < fl.cfg.SlowAfter/2:
		st.slow = false
		ep.f.countLink("msg.gray.healthy", ep.node, peer)
	}
}

// breakerAllow is the pre-flight check for one bulk RPC: closed passes,
// open fails fast until the cooldown elapses, then exactly one caller is
// let through as the half-open probe while the rest keep failing fast. The
// probe's outcome (breakerResult) decides between re-opening and closing.
func (ep *Endpoint) breakerAllow(m *Message) error {
	fl := ep.f.flow
	if fl == nil || controlLane(m) {
		return nil
	}
	st := ep.flowPeer(m.To)
	switch st.breaker {
	case breakerClosed:
		return nil
	case breakerOpen:
		if ep.f.e.Now().Sub(st.openedAt) >= fl.cfg.BreakerCooldown && !st.probing {
			st.breaker = breakerHalfOpen
			st.probing = true
			ep.f.countLink("msg.flow.breaker_halfopen", ep.node, m.To)
			return nil
		}
	case breakerHalfOpen:
		if !st.probing {
			// The previous probe's verdict landed between this caller's
			// check and its send; treat the lane as open until the state
			// machine settles.
			st.probing = true
			return nil
		}
	}
	ep.f.countLink("msg.flow.breaker_fastfail", ep.node, m.To)
	return backpressure(m.To, m.Type, "circuit-open")
}

// breakerResult records one bulk RPC's outcome: failures accumulate toward
// tripping the breaker open (or re-open a half-open probe); success resets
// the count and closes a half-open breaker.
func (ep *Endpoint) breakerResult(peer NodeID, failed bool) {
	fl := ep.f.flow
	if fl == nil {
		return
	}
	st := ep.flowPeer(peer)
	if failed {
		st.fails++
		if st.breaker == breakerHalfOpen || (st.breaker == breakerClosed && st.fails >= breakerFailures) {
			st.breaker = breakerOpen
			st.openedAt = ep.f.e.Now()
			st.probing = false
			ep.f.countLink("msg.flow.breaker_open", ep.node, peer)
		}
		return
	}
	st.fails = 0
	if st.breaker != breakerClosed {
		st.breaker = breakerClosed
		st.probing = false
		ep.f.countLink("msg.flow.breaker_close", ep.node, peer)
	}
}

// breakerAbort resolves a bulk RPC attempt that ended in a congestion
// refusal (credit wait expired, retry budget dry) instead of a genuine
// outcome. Local backpressure says nothing about the peer's health, so no
// failure is counted — but if the attempt held the half-open probe slot, the
// breaker re-arms to open with a fresh cooldown rather than staying wedged
// in probing, so a later caller gets to run the probe for real.
func (ep *Endpoint) breakerAbort(peer NodeID) {
	fl := ep.f.flow
	if fl == nil {
		return
	}
	st := ep.flowPeer(peer)
	if st.breaker == breakerHalfOpen {
		st.breaker = breakerOpen
		st.openedAt = ep.f.e.Now()
		st.probing = false
	}
}

// budgetAllow spends one retransmission token toward peer n, refilling the
// bucket at retryBudget per retryBudgetWindow of sim time. An empty bucket
// means the caller must stop retransmitting — under a retry storm this is
// what converts N synchronized retransmit schedules into a paced trickle.
func (ep *Endpoint) budgetAllow(n NodeID) bool {
	fl := ep.f.flow
	if fl == nil {
		return true
	}
	st := ep.flowPeer(n)
	const interval = retryBudgetWindow / retryBudget
	if elapsed := ep.f.e.Now().Sub(st.lastRefill); elapsed >= interval {
		refill := int(elapsed / interval)
		st.tokens = min(st.tokens+refill, retryBudget)
		st.lastRefill = st.lastRefill.Add(time.Duration(refill) * interval)
	}
	if st.tokens <= 0 {
		ep.f.countLink("msg.flow.budget_exhausted", ep.node, n)
		return false
	}
	st.tokens--
	return true
}
