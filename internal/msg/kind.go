package msg

import (
	"fmt"

	"repro/internal/sim"
)

// Kind declares one protocol message, once, as a package-level value: its
// Type, its request and reply payloads, each leg's wire size (Size, or SizeOf
// the payload when set) and which replies to a one-way request go out, to be
// dropped on arrival (those OneWayReply accepts; none when it is unset).
// Services send and handle only through kinds, so the compiler checks the
// protocol and no service holds a Message; no Type has two (popcornvet's
// msgproto), so a pool slot carries one payload type.
// Sends take the request by pointer: a sender's frame stays on its stack for
// the whole RPC, and a migration's request is 700 B.
type Kind[Req, Rep any] struct {
	Type            Type
	Size, ReplySize int
	SizeOf          func(*Req) int
	ReplySizeOf     func(*Rep) int
	OneWayReply     func(*Rep) bool
}

// NoRole is the role of traffic that serves no kernel's origin role.
const NoRole NodeID = -1

// Call sends *req to kernel to and parks p until the reply, which it returns
// by value (Endpoint.Call's costs and failure semantics). Unless role is
// NoRole, the request carries role's origin-epoch (Fabric.stampOrigin).
//
//popcornvet:hotpath
func (k *Kind[Req, Rep]) Call(p *sim.Proc, ep *Endpoint, to, role NodeID, req *Req) (rep Rep, err error) {
	reply, err := ep.call(p, k.request(ep, to, req), role)
	if err != nil {
		return rep, err
	}
	rep = *reply.Payload.(*Rep)
	ep.f.discard(reply)
	return rep, nil
}

// Send sends *req to kernel to one-way (Endpoint.Send); its handler's reply
// goes out only if OneWayReply says so.
//
//popcornvet:hotpath
func (k *Kind[Req, Rep]) Send(p *sim.Proc, ep *Endpoint, to NodeID, req *Req) {
	ep.Send(p, k.request(ep, to, req))
}

// Each calls every target with *req in parallel, parks p until all have
// answered, and then calls visit once per target in order, with its reply
// or, if it failed, nil and its failure. A round naming ep's own kernel sends
// nothing, and every target fails. role is Call's; rep is the pool's, which
// visit must not keep.
func (k *Kind[Req, Rep]) Each(p *sim.Proc, ep *Endpoint, targets []NodeID, role NodeID, req *Req, visit func(i int, rep *Rep, err error)) {
	ep.round(p, targets, role, func(to NodeID) *Message { return k.request(ep, to, req) }, func(i int, r *Message, err error) {
		if r == nil {
			visit(i, nil, err)
			return
		}
		visit(i, r.Payload.(*Rep), nil)
		ep.f.discard(r)
	})
}

// Replicate is Call for a record of role's replication stream to its
// successor, on the control lane past credits and breakers: the one failure
// is a dead successor, reported as false (the caller counts the skip);
// anything else panics.
func (k *Kind[Req, Rep]) Replicate(p *sim.Proc, ep *Endpoint, to, role NodeID, req *Req) bool {
	_, err := k.Call(p, ep, to, role, req)
	if err != nil && !IsDeadPeer(err) {
		panic(fmt.Sprintf("msg: %v to successor kernel %d failed: %v", k.Type, to, err))
	}
	return err == nil
}

// Handle registers h as ep's handler for k: it runs in a process of its own
// per request, and what it returns is the reply if the request was called
// (or OneWayReply accepts it). req is the pool's: h must not keep it.
func (k *Kind[Req, Rep]) Handle(ep *Endpoint, h func(p *sim.Proc, from NodeID, req *Req) Rep) {
	ep.register(k.Type, k, h)
}

// serve runs h, registered by Handle, on m and returns the reply, or nil.
//
//popcornvet:hotpath
func (k *Kind[Req, Rep]) serve(ep *Endpoint, p *sim.Proc, m *Message, h any) *Message {
	rep := h.(func(*sim.Proc, NodeID, *Req) Rep)(p, m.From, m.Payload.(*Req))
	if !m.rpc && k.OneWayReply == nil {
		return nil
	}
	r, body := take(ep.f, k.Type, true, &rep)
	if !m.rpc && !k.OneWayReply(body) {
		ep.f.discard(r)
		return nil
	}
	r.Size = k.ReplySize
	if k.ReplySizeOf != nil {
		r.Size = k.ReplySizeOf(body)
	}
	return r
}

// request takes a request for kernel to carrying a copy of *req off the pool.
//
//popcornvet:hotpath
func (k *Kind[Req, Rep]) request(ep *Endpoint, to NodeID, req *Req) *Message {
	m, body := take(ep.f, k.Type, false, req)
	m.To, m.Size = to, k.Size
	if k.SizeOf != nil {
		m.Size = k.SizeOf(body)
	}
	return m
}
