package threadgroup

import (
	"fmt"
	"slices"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
)

// Exit terminates the live thread (gid, id) hosted on this kernel: the
// task leaves the local table, shadows on former hop kernels are reaped,
// the origin updates group membership, and the last exit tears the whole
// distributed group down on every kernel.
func (s *Service) Exit(p *sim.Proc, gid vm.GID, id task.ID) error {
	g, ok := s.groups[gid]
	if !ok {
		if s.fabric.Failover() {
			// With failover on, a promoted origin reaps the members a crash
			// took, and the last reap tears the group down before the
			// process-level Close arrives here. Exiting an already-settled
			// group is idempotent success.
			s.metrics.Counter("tg.exit.settled").Inc()
			return nil
		}
		return fmt.Errorf("%w: group %d on kernel %d", errNoGroup, gid, s.node)
	}
	t, ok := g.local[id]
	if !ok {
		if _, member := g.members[id]; s.fabric.Failover() && g.isOrigin && !member {
			// Same settled case before the group's last member leaves: this
			// member died with its crashed kernel and the promotion sweep
			// already reaped it.
			s.metrics.Counter("tg.exit.settled").Inc()
			return nil
		}
		return fmt.Errorf("threadgroup: exit of task %d which is not live on kernel %d", id, s.node)
	}
	s.tasklist.Lock(p)
	p.Sleep(s.machine.LineBounce(s.tasklist.Waiters(), s.vmsvc.LocalCores(), false))
	delete(g.local, id)
	t.State = task.StateExited
	s.tasklist.Unlock(p)
	if sp, ok := s.vmsvc.Space(gid); ok {
		sp.ThreadLeft()
	}
	s.metrics.Counter("tg.exit").Inc()
	s.checker.ThreadExited(p, int64(gid), int64(id), s.node)

	// Reap the shadows this thread left along its migration path.
	for _, hop := range t.Hops {
		if hop == int(s.node) {
			continue
		}
		exitNotify.Send(p, s.ep, msg.NodeID(hop), &exitReq{GID: gid, TaskID: id, Reap: true})
	}

	if g.isOrigin {
		return s.originMemberExited(p, g, id)
	}
	return s.notifyExit(p, g, id)
}

// originMemberExited updates the origin's member table and tears the group
// down when the last member leaves. Every membership drop broadcasts to
// emptyWaiters: WaitMembers callers watch intermediate counts, not just
// empty.
func (s *Service) originMemberExited(p *sim.Proc, g *group, id task.ID) error {
	delete(g.members, id)
	g.emptyWaiters.Broadcast()
	if len(g.members) > 0 {
		s.shipGroup(p, g)
		return nil
	}
	if g.exited {
		return nil
	}
	g.exited = true
	// The final snapshot: the successor drops its mirror rather than keep a
	// promotable copy of a group that no longer exists.
	s.shipGroup(p, g)
	s.metrics.Counter("tg.groupexit").Inc()
	// Tear down every replica, then the origin's own state.
	targets := make([]msg.NodeID, 0, len(g.replicas))
	for n := range g.replicas {
		if n != s.node {
			targets = append(targets, n)
		}
	}
	slices.Sort(targets)
	if len(targets) > 0 {
		// A replica that died (or dies while we notify it) has no state left
		// to tear down; only a live replica's refusal is a real error.
		var failed error
		groupExit.Each(p, s.ep, targets, msg.NoRole, &groupExitReq{GID: g.gid}, func(_ int, _ *errReply, err error) {
			if err != nil && !msg.IsDeadPeer(err) && failed == nil {
				failed = err
			}
		})
		if failed != nil {
			return failed
		}
	}
	s.teardownLocal(p, g)
	g.emptyWaiters.Broadcast()
	return nil
}

// teardownLocal drops this kernel's group state and address-space replica.
func (s *Service) teardownLocal(p *sim.Proc, g *group) {
	s.vmsvc.Drop(p, g.gid)
	delete(s.groups, g.gid)
}

// handleExitNotify handles both shadow reaping (on hop kernels, one-way)
// and member exit registration (at the origin).
func (s *Service) handleExitNotify(p *sim.Proc, _ msg.NodeID, req *exitReq) errReply {
	g, ok := s.groups[req.GID]
	if !ok {
		if req.Reap {
			return errReply{} // group already torn down; nothing to reap
		}
		return errReply{Err: fmt.Errorf("group %d not resident on kernel %d", req.GID, s.node)}
	}
	if req.Reap {
		if sh, ok := g.shadows[req.TaskID]; ok {
			delete(g.shadows, req.TaskID)
			sh.State = task.StateExited
			s.metrics.Counter("tg.shadow.reaped").Inc()
		}
		return errReply{}
	}
	if req.Ghost {
		if t, ok := g.local[req.TaskID]; ok {
			delete(g.local, req.TaskID)
			t.State = task.StateLost
			if sp, ok := s.vmsvc.Space(req.GID); ok {
				sp.ThreadLeft()
			}
			s.metrics.Counter("tg.migrate.ghostdrop").Inc()
		}
		return errReply{}
	}
	if !g.isOrigin {
		return errReply{Err: fmt.Errorf("kernel %d is not origin of group %d", s.node, req.GID)}
	}
	return errReply{Err: s.originMemberExited(p, g, req.TaskID)}
}

// handleGroupExit tears down a replica kernel's state for an exited group.
func (s *Service) handleGroupExit(p *sim.Proc, _ msg.NodeID, req *groupExitReq) errReply {
	g, ok := s.groups[req.GID]
	if ok {
		//popcornvet:allow detorder every shadow gets the same state store, delete and counter bump; nothing leaves the loop in its order
		for id, sh := range g.shadows {
			sh.State = task.StateExited
			delete(g.shadows, id)
			s.metrics.Counter("tg.shadow.reaped").Inc()
		}
		s.teardownLocal(p, g)
	}
	return errReply{}
}
