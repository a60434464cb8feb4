package threadgroup

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
)

// Distributed signals: the SSI must deliver a signal addressed to a thread
// regardless of which kernel currently hosts it, including mid-migration.
// Routing: a kernel holding the live task delivers locally; the origin
// routes by its member table; a kernel holding only the shadow forwards
// along the migration chain; a signal that beats its target's migration to
// the destination parks in an orphan queue and is merged when the context
// arrives.

// Signal numbers (the subset the simulation distinguishes; semantics are
// queue-and-consume, termination policy is the application's).
const (
	SigUsr1 = 10
	SigUsr2 = 12
	SigTerm = 15
)

// signalReq is the wire form of a routed signal.
type signalReq struct {
	GID    vm.GID
	TaskID task.ID
	Sig    int
	// Hops guards against routing loops while a migration is in flight.
	Hops int
	// Routed marks a request the origin (or a shadow chain) directed at a
	// specific kernel; only those may be parked as orphans.
	Routed bool
}

// maxSignalHops bounds forwarding along migration chains.
const maxSignalHops = 16

// Signal delivers sig to thread (gid, id), wherever it runs. The call
// returns once the signal is queued at the hosting kernel.
func (s *Service) Signal(p *sim.Proc, gid vm.GID, id task.ID, sig int) error {
	s.metrics.Counter("tg.signal.sent").Inc()
	return s.routeSignal(p, &signalReq{GID: gid, TaskID: id, Sig: sig})
}

// routeSignal delivers locally or forwards toward the target.
func (s *Service) routeSignal(p *sim.Proc, req *signalReq) error {
	if req.Hops > maxSignalHops {
		return fmt.Errorf("threadgroup: signal to task %d looped (migration storm)", req.TaskID)
	}
	g, ok := s.groups[req.GID]
	if !ok {
		return fmt.Errorf("%w: group %d on kernel %d", errNoGroup, req.GID, s.node)
	}
	// Local live task: deliver.
	if t, ok := g.local[req.TaskID]; ok {
		s.deliverLocal(g, t, req.Sig)
		return nil
	}
	// Shadow: the thread moved on; follow it.
	if sh, ok := g.shadows[req.TaskID]; ok {
		routed := *req
		routed.Routed = true
		return s.forwardSignal(p, &routed, msg.NodeID(sh.MigratedTo))
	}
	if g.isOrigin {
		m, ok := g.members[req.TaskID]
		dst := m.node
		if !ok {
			return fmt.Errorf("threadgroup: signal to unknown task %d in group %d", req.TaskID, req.GID)
		}
		if dst == s.node {
			// Member table says here but the task is gone: it is mid
			// migration toward this kernel; park for the arriving context.
			s.orphanSignals[req.TaskID] = append(s.orphanSignals[req.TaskID], req.Sig)
			s.metrics.Counter("tg.signal.orphaned").Inc()
			return nil
		}
		routed := *req
		routed.Routed = true
		routed.Hops++
		return s.forwardSignal(p, &routed, dst)
	}
	if req.Routed {
		// The origin (or a shadow chain) believes the task is arriving
		// here: park it; the migrating context merges it on install.
		s.orphanSignals[req.TaskID] = append(s.orphanSignals[req.TaskID], req.Sig)
		s.metrics.Counter("tg.signal.orphaned").Inc()
		return nil
	}
	// A replica without the task routes through the origin.
	return s.forwardSignal(p, req, g.origin)
}

func (s *Service) forwardSignal(p *sim.Proc, req *signalReq, to msg.NodeID) error {
	fwd := *req
	fwd.Hops++
	s.metrics.Counter("tg.signal.forwarded").Inc()
	if to == s.node {
		return s.routeSignal(p, &fwd)
	}
	r, err := signal.Call(p, s.ep, to, msg.NoRole, &fwd)
	if err != nil {
		return err
	}
	if r.Err != nil {
		return fmt.Errorf("threadgroup: signal forward: %w", r.Err)
	}
	return nil
}

// deliverLocal queues the signal on the task and wakes any WaitSignal.
func (s *Service) deliverLocal(g *group, t *task.Task, sig int) {
	t.PendingSignals = append(t.PendingSignals, sig)
	s.metrics.Counter("tg.signal.delivered").Inc()
	if w, ok := s.sigWaiters[t.ID]; ok {
		delete(s.sigWaiters, t.ID)
		w.Resume()
	}
}

// WaitSignal blocks the calling process until the local task has at least
// one pending signal, then consumes and returns them (sigwait semantics).
func (s *Service) WaitSignal(p *sim.Proc, gid vm.GID, id task.ID) ([]int, error) {
	g, ok := s.groups[gid]
	if !ok {
		return nil, errNoGroup
	}
	t, ok := g.local[id]
	if !ok {
		return nil, fmt.Errorf("threadgroup: task %d not live on kernel %d", id, s.node)
	}
	if len(t.PendingSignals) == 0 {
		if _, busy := s.sigWaiters[id]; busy {
			return nil, fmt.Errorf("threadgroup: task %d already has a signal waiter", id)
		}
		s.sigWaiters[id] = p
		p.Suspend()
	}
	sigs := t.PendingSignals
	t.PendingSignals = nil
	return sigs, nil
}

// handleSignal serves routed signals.
func (s *Service) handleSignal(p *sim.Proc, _ msg.NodeID, req *signalReq) errReply {
	return errReply{Err: s.routeSignal(p, req)}
}

// adoptOrphanSignals merges signals that arrived ahead of a migrating
// context. Called by handleMigrate after installing the task.
func (s *Service) adoptOrphanSignals(g *group, t *task.Task) {
	if sigs, ok := s.orphanSignals[t.ID]; ok {
		delete(s.orphanSignals, t.ID)
		for _, sig := range sigs {
			s.deliverLocal(g, t, sig)
		}
	}
}
