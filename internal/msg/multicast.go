package msg

import (
	"fmt"

	"repro/internal/sim"
)

// CallEach performs one RPC to every target in parallel and blocks p until
// all replies arrive. build constructs the per-target request. Replies are
// returned indexed like targets, the caller's to keep (as Call's are). The
// paper's address-space consistency protocol uses this shape for VMA-update
// acks and page invalidations; the protocol services use CallEachErr, which
// allocates nothing.
func (ep *Endpoint) CallEach(p *sim.Proc, targets []NodeID, build func(to NodeID) *Message) ([]*Message, error) {
	replies := make([]*Message, len(targets))
	errs := make([]error, len(targets))
	ep.CallEachErr(p, targets, build, replies, errs)
	for _, r := range replies {
		if r != nil {
			ep.f.adopt(r)
			ep.f.pin(r)
		}
	}
	for _, err := range errs {
		if err != nil {
			return replies, err
		}
	}
	return replies, nil
}

// CallEachErr is CallEach with per-target verdicts, into the caller's storage:
// errs[i] is target i's failure (nil on success), so degradation paths can
// tolerate dead peers in a fan-out while still surfacing real protocol errors
// from the survivors. With replies non-nil, replies[i] is target i's reply,
// the caller's until it reads it with Consume; with replies nil every reply
// goes back to the pool unread. errs, and replies unless nil, have one entry
// per target.
func (ep *Endpoint) CallEachErr(p *sim.Proc, targets []NodeID, build func(to NodeID) *Message, replies []*Message, errs []error) {
	for i, to := range targets {
		if to == ep.node {
			errs[i] = fmt.Errorf("msg: CallEach target includes self (node %d)", ep.node)
			return
		}
	}
	if len(targets) == 0 {
		return
	}
	fo := sim.Take(&ep.f.fanFree)
	if fo == nil {
		fo = &fanout{}
	}
	// The worker processes inherit the caller's causal span, so the parallel
	// RPC rounds stay children of the operation that fanned them out.
	fo.targets, fo.build, fo.replies, fo.errs, fo.span = targets, build, replies, errs, p.Span()
	fo.wg.Add(len(targets))
	for i, to := range targets {
		r := ep.startRun(ep.peers[to].eachName)
		r.fan, r.i, r.fn = fo, i, r.each
	}
	fo.wg.Wait(p)
	*fo = fanout{} // every worker is done with it (a caller killed in the wait never gets here)
	sim.Give(&ep.f.fanFree, fo)
}

// fanout is what the workers of one CallEachErr round (handlerRun.fan, one per
// target) share: the caller's storage included. Pooled on Fabric.fanFree.
type fanout struct {
	wg      sim.WaitGroup
	targets []NodeID
	build   func(to NodeID) *Message
	replies []*Message
	errs    []error
	span    uint64
}

// callOne is a multicast worker's body: one RPC, its outcome in the round's slot.
func (r *handlerRun) callOne(cp *sim.Proc) {
	fo, i := r.fan, r.i
	defer fo.wg.Done()
	cp.SetSpan(fo.span)
	reply, err := r.ep.call(cp, fo.build(fo.targets[i]))
	fo.errs[i] = err
	switch {
	case reply == nil:
	case fo.replies != nil:
		fo.replies[i] = reply
	default:
		r.ep.f.discard(reply)
	}
}
