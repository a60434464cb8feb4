package msg

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// CallEach performs one RPC to every target in parallel and blocks p until
// all replies arrive. build constructs the per-target request. Replies are
// returned indexed like targets, the caller's to keep (as Call's are), with
// the first failure. Kind.Each is the same round, typed.
func (ep *Endpoint) CallEach(p *sim.Proc, targets []NodeID, build func(to NodeID) *Message) ([]*Message, error) {
	replies := make([]*Message, len(targets))
	var first error
	ep.round(p, targets, NoRole, build, func(i int, r *Message, err error) {
		if replies[i] = r; r != nil {
			ep.f.adopt(r)
			ep.f.pin(r)
		} else if first == nil {
			first = err
		}
	})
	return replies, first
}

// round is one parallel RPC round as traffic for role: build makes every
// request before the first is sent, each from a worker process of its own
// with p's causal span, p blocks until all have answered, and visit then gets
// each target's reply, its to keep or discard, or nil and its failure.
func (ep *Endpoint) round(p *sim.Proc, targets []NodeID, role NodeID, build func(to NodeID) *Message, visit func(i int, r *Message, err error)) {
	fo := ep.newFanout(targets, visit)
	if fo == nil {
		return
	}
	for i, to := range targets {
		fo.msgs[i] = build(to)
	}
	fo.role, fo.span = role, p.Span()
	fo.wg.Add(len(targets))
	for i, m := range fo.msgs {
		r := ep.startRun(eachProcNames[m.Type])
		r.fan, r.i, r.fn = fo, i, r.each
	}
	fo.wg.Wait(p) // a caller killed here leaves fo to the collector
	for i, r := range fo.msgs {
		visit(i, r, fo.errs[i])
	}
	ep.f.freeFanout(fo)
}

// newFanout takes a round for targets off the pool, or fails every target
// through visit and returns nil if they name ep's own kernel.
func (ep *Endpoint) newFanout(targets []NodeID, visit func(i int, r *Message, err error)) *fanout {
	if slices.Contains(targets, ep.node) {
		err := fmt.Errorf("msg: CallEach target includes self (node %d)", ep.node)
		for i := range targets {
			visit(i, nil, err)
		}
		return nil
	}
	fo := sim.Take(&ep.f.fanFree)
	if fo == nil {
		fo = &fanout{}
	}
	if n := len(targets); cap(fo.msgs) < n {
		fo.msgs, fo.errs = make([]*Message, n), make([]error, n)
	}
	fo.msgs, fo.errs = fo.msgs[:len(targets)], fo.errs[:len(targets)]
	return fo
}

// freeFanout returns a round whose replies its caller has taken. Not inlined:
// round's frame stays on the stack of every process parked in a fan-out.
//
//go:noinline
func (f *Fabric) freeFanout(fo *fanout) {
	clear(fo.msgs)
	clear(fo.errs)
	*fo = fanout{msgs: fo.msgs[:0], errs: fo.errs[:0]}
	sim.Give(&f.fanFree, fo)
}

// fanout is one parallel RPC round, shared by its workers (handlerRun.fan, one
// per target): per target its request, which its worker replaces with the
// reply, or its failure. Pooled on Fabric.fanFree.
type fanout struct {
	wg   sim.WaitGroup
	msgs []*Message
	errs []error
	role NodeID
	span uint64
}

// callOne is a multicast worker's body: one RPC, its outcome in the round's slot.
func (r *handlerRun) callOne(cp *sim.Proc) {
	fo, i := r.fan, r.i
	defer fo.wg.Done()
	cp.SetSpan(fo.span)
	m := fo.msgs[i]
	fo.msgs[i] = nil
	fo.msgs[i], fo.errs[i] = r.ep.call(cp, m, fo.role)
}
