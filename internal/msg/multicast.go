package msg

import (
	"fmt"

	"repro/internal/sim"
)

// CallEach performs one RPC to every target in parallel and blocks p until
// all replies arrive. build constructs the per-target request. Replies are
// returned indexed like targets. The paper's address-space consistency
// protocol uses this shape for VMA-update acks and page invalidations.
func (ep *Endpoint) CallEach(p *sim.Proc, targets []NodeID, build func(to NodeID) *Message) ([]*Message, error) {
	replies, errs := ep.CallEachErr(p, targets, build)
	for _, err := range errs {
		if err != nil {
			return replies, err
		}
	}
	return replies, nil
}

// CallEachErr is CallEach with per-target verdicts: errs[i] is target i's
// failure (nil on success), so degradation paths can tolerate dead peers in
// a fan-out while still surfacing real protocol errors from the survivors.
func (ep *Endpoint) CallEachErr(p *sim.Proc, targets []NodeID, build func(to NodeID) *Message) ([]*Message, []error) {
	replies := make([]*Message, len(targets))
	errs := make([]error, len(targets))
	if len(targets) == 0 {
		return replies, errs
	}
	for i, to := range targets {
		if to == ep.node {
			errs[i] = fmt.Errorf("msg: CallEach target includes self (node %d)", ep.node)
			return replies, errs
		}
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
	return replies, errs
}

// fanout is what the workers of one CallEachErr round (handlerRun.fan, one per
// target) share. Pooled on Fabric.fanFree.
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
	fo.replies[i], fo.errs[i] = r.ep.Call(cp, fo.build(fo.targets[i]))
}
