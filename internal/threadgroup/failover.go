package threadgroup

// Origin failover for the thread-group layer (DESIGN.md §14). With the
// failover plane on, every origin-side group mutation — membership changes,
// move-epoch bumps, checkpoint refreshes, replica registrations — ships a
// full snapshot of the group's origin state to the fabric's ring successor
// over TypeGroupReplicate (control lane). When the failure detector
// declares the origin dead, the successor promotes the mirrored groups into
// authoritative origin state — the address space in the same call — bumps
// the origin-epoch (the fabric then fences stale-epoch traffic from the old
// origin), restarts or reaps the members the crash took, and announces
// TypeOriginHandover cluster-wide so every kernel re-points its replicas.
// Member exits then propagate to WaitMembers waiters through the promoted
// origin instead of completing orphaned.

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
)

// tgFailoverRetryMax bounds origin-RPC retries while a failover is in
// flight; paced by msg.FailoverRetryDelay, they span well past the
// detection-plus-promotion window, after which the orphaned-exit
// degradation applies as if failover were off.
const tgFailoverRetryMax = 64

// groupRepl is the full origin-state snapshot of one group, shipped to the
// replication successor after every origin-side mutation: copies of the
// origin's own three tables, which a promotion installs as they are (the
// simulation passes pointers; the message's Size is what the wire charges).
// Replicas is the only replicated copy of the group's replica set. Snapshots
// carry a monotonic per-group version so a fault-plan duplicate can never
// roll the mirror backwards.
type groupRepl struct {
	GID         vm.GID
	Origin      msg.NodeID
	SnapVersion uint64
	Members     map[task.ID]member
	Replicas    map[msg.NodeID]struct{}
	// Exited marks the group's final snapshot: the last member left and the
	// group tore down, so the successor drops its mirror instead of keeping
	// a promotable copy of a dead group.
	Exited bool
}

// originHandover announces a completed promotion cluster-wide: Holder now
// serves the groups listed in GIDs, and receivers re-point their replicas.
// The epoch table is already written: the promoting successor's
// msg.Fabric.Promote is its only writer.
type handoverReq struct {
	Holder msg.NodeID
	GIDs   []vm.GID
}

// shipGroup mirrors g's full origin state to the replication successor.
// Synchronous: the mutation that triggered it is not acknowledged to its
// requester until the successor has logged the snapshot. A dead successor
// skips the ship (counted) and the origin keeps running unreplicated.
func (s *Service) shipGroup(p *sim.Proc, g *group) {
	if !s.fabric.Failover() || !g.isOrigin {
		return
	}
	g.snapVersion++
	rep := groupRepl{
		GID: g.gid, Origin: s.node, SnapVersion: g.snapVersion, Exited: g.exited,
	}
	if !g.exited {
		rep.Members = maps.Clone(g.members)
		rep.Replicas = maps.Clone(g.replicas)
	}
	s.metrics.Counter("tg.failover.replicated").Inc()
	if !groupReplicate.Replicate(p, s.ep, s.fabric.Successor(s.node), vm.OriginKernelOf(g.gid), &rep) {
		s.metrics.Counter("tg.failover.skipped").Inc()
	}
}

// groupReplSize is a snapshot's size on the wire: 64 B, each recoverable
// member's checkpointed context, and 16 B per member, per moved member's
// epoch and per replica.
func groupReplSize(rep *groupRepl) int {
	size := 64
	for _, m := range rep.Members {
		if m.epoch > 0 {
			size += 16
		}
		if m.recoverable {
			size += task.ContextBytes
		}
	}
	return size + 16*(len(rep.Members)+len(rep.Replicas))
}

// handleGroupReplicate stores a group snapshot into this kernel's mirror
// table. Pure state installation — no locks, no outbound messages — so the
// origin's synchronous ship can never deadlock against it.
func (s *Service) handleGroupReplicate(_ *sim.Proc, _ msg.NodeID, rep *groupRepl) struct{} {
	if rep.Exited {
		delete(s.gmirrors, rep.GID)
		s.vmsvc.DropMirror(rep.GID)
	} else if old, ok := s.gmirrors[rep.GID]; !ok || rep.SnapVersion > old.SnapVersion {
		mirror := *rep // the request's payload goes back to the pool
		s.gmirrors[rep.GID] = &mirror
	}
	s.metrics.Counter("tg.failover.applied").Inc()
	return struct{}{}
}

// promoteGroups rebuilds, from this kernel's mirrors, authoritative origin
// state for every group whose origin was `dead` — provided this kernel is
// the designated successor and failover is on — bumps each promoted group's
// origin-epoch and announces the handover cluster-wide. Called at the top
// of PeerDied, so the ordinary origin sweep that follows restarts or reaps
// the promoted groups' members the crash took, releasing joiners exactly as
// it would had this kernel been the origin all along.
func (s *Service) promoteGroups(p *sim.Proc, dead msg.NodeID) {
	if !s.fabric.Failover() || s.fabric.Successor(dead) != s.node {
		return
	}
	gids := make([]vm.GID, 0, len(s.gmirrors))
	for gid, rep := range s.gmirrors {
		if rep.Origin == dead {
			gids = append(gids, gid)
		}
	}
	slices.Sort(gids)
	if len(gids) == 0 {
		return
	}
	for _, gid := range gids {
		rep := s.gmirrors[gid]
		delete(s.gmirrors, gid)
		s.promoteGroup(rep, dead)
		s.fabric.Promote(vm.OriginKernelOf(gid), s.node)
		s.metrics.Counter("tg.failover.promoted").Inc()
	}
	// Announce the handover to every other kernel: replicas re-point at the
	// promoted holder. A dead peer has nothing to re-point (a later rejoin
	// starts from scratch and learns locations on demand).
	targets := make([]msg.NodeID, 0, s.fabric.Nodes()-2)
	for n := 0; n < s.fabric.Nodes(); n++ {
		if nid := msg.NodeID(n); nid != s.node && nid != dead {
			targets = append(targets, nid)
		}
	}
	if len(targets) > 0 {
		s.metrics.Counter("tg.handover.sent").Inc()
		originHandover.Each(p, s.ep, targets, msg.NoRole, &handoverReq{Holder: s.node, GIDs: gids}, func(_ int, _ *struct{}, err error) {
			if err != nil && !msg.IsDeadPeer(err) {
				panic(fmt.Sprintf("threadgroup: handover announcement failed: %v", err))
			}
		})
	}
}

// promoteGroup converts this kernel's replica of one group (or creates
// fresh state, if no member ever ran here) into the authoritative origin
// copy from its mirrored snapshot, address space included. Pure state
// rebuild — no blocking.
func (s *Service) promoteGroup(rep *groupRepl, dead msg.NodeID) {
	g, ok := s.groups[rep.GID]
	if !ok {
		g = &group{
			gid:     rep.GID,
			local:   make(map[task.ID]*task.Task),
			shadows: make(map[task.ID]*task.Task),
		}
		s.groups[rep.GID] = g
	}
	g.origin = s.node
	g.isOrigin = true
	g.originDead = false
	g.exited = rep.Exited
	g.snapVersion = rep.SnapVersion
	if g.emptyWaiters == nil {
		g.emptyWaiters = sim.NewCond()
	}
	// The mirror's tables are copies nobody else holds (shipGroup), so the
	// promoted origin takes them as its own.
	g.members = rep.Members
	g.replicas = rep.Replicas
	delete(g.replicas, s.node)
	delete(g.replicas, dead)
	// The address space is promoted in the same call, and the snapshot's
	// replica set registered into it so layout pushes from the promoted
	// origin reach every member kernel.
	s.vmsvc.Promote(rep.GID, dead)
	for _, n := range slices.Sorted(maps.Keys(g.replicas)) {
		_ = s.vmsvc.RegisterReplica(rep.GID, n)
	}
}

// handleOriginHandover applies a promotion announcement: re-point this
// kernel's replicas of the promoted groups at the new holder.
func (s *Service) handleOriginHandover(_ *sim.Proc, _ msg.NodeID, req *handoverReq) struct{} {
	for _, gid := range req.GIDs {
		if g, ok := s.groups[gid]; ok && !g.isOrigin {
			g.origin = req.Holder
			g.originDead = false
		}
		s.vmsvc.Retarget(gid, req.Holder)
	}
	s.metrics.Counter("tg.handover.applied").Inc()
	return struct{}{}
}

// notifyExit reports a member exit to the group's origin. With failover on,
// a dead origin is retried (paced) against the current holder from the
// fabric's handover table, so exits during and after a failover propagate
// to WaitMembers waiters at the promoted origin instead of completing
// orphaned; only when no live holder emerges within the retry budget does
// the orphaned-exit degradation apply.
func (s *Service) notifyExit(p *sim.Proc, g *group, id task.ID) error {
	role, failover := vm.OriginKernelOf(g.gid), s.fabric.Failover()
	for attempt := 0; attempt < tgFailoverRetryMax; attempt++ {
		if g.isOrigin {
			// A promotion re-homed the group onto this kernel mid-exit.
			return s.originMemberExited(p, g, id)
		}
		if failover {
			if holder := s.fabric.OriginHolder(role); holder != g.origin && holder != s.node {
				g.origin = holder
				g.originDead = false
				s.metrics.Counter("tg.exit.rerouted").Inc()
			}
		}
		if g.originDead && !failover {
			// The origin is gone and nothing will replace it; local cleanup
			// is all the exit can do. The survivors' own PeerDied reaping
			// settles the group accounting.
			s.metrics.Counter("tg.exit.orphaned").Inc()
			return nil
		}
		r, err := exitNotify.Call(p, s.ep, g.origin, role, &exitReq{GID: g.gid, TaskID: id})
		if err != nil {
			if msg.IsDeadPeer(err) {
				if failover {
					// Wait out the detection-plus-promotion window, then
					// re-resolve the holder and try again.
					s.metrics.Counter("tg.exit.failover_retry").Inc()
					p.Sleep(msg.FailoverRetryDelay)
					continue
				}
				g.originDead = true
				s.metrics.Counter("tg.exit.orphaned").Inc()
				return nil
			}
			return err
		}
		if r.Err != nil {
			if failover {
				// The holder answered before finishing (or beginning) its
				// promotion; paced retry until the group is origin there.
				s.metrics.Counter("tg.exit.failover_retry").Inc()
				p.Sleep(msg.FailoverRetryDelay)
				continue
			}
			return fmt.Errorf("threadgroup: exit notify: %w", r.Err)
		}
		return nil
	}
	// Retry budget exhausted with no live holder: orphaned degradation.
	g.originDead = true
	s.metrics.Counter("tg.exit.orphaned").Inc()
	return nil
}
