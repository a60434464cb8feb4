package threadgroup

import (
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
)

// This file is the thread-group half of the recovery layer: checkpointed
// restart of members lost to a kernel crash, and the service-wide reset a
// kernel reboot performs before it rejoins the cluster.
//
// The checkpoint is the thread's last migration payload. Migrations already
// serialise the full user context; for a recoverable member the origin is
// sent the most recent copy (piggybacked on the move registration), so when
// the hosting kernel dies the origin can rebuild the task locally instead of
// reaping it. A context is modelled by its size alone (task.ContextBytes),
// so the member's recoverable flag is all the origin keeps. Restart is at-most-once per member:
// the restarted set is consulted under the same sweep that reaps, and the
// incarnation fencing in msg guarantees no zombie message from the dead
// hosting kernel can resurrect state behind the restart's back.

// RestartHook re-executes a recovered task on this kernel. It runs inside
// the degradation sweep's process and must not block before handing the
// re-execution to its own process. Returning false means the OS cannot
// re-execute the thread (no registered entry point); the member is then
// reaped as lost like any other.
type RestartHook func(p *sim.Proc, t *task.Task) bool

// SetRestartHook installs the OS callback that re-executes recovered
// threads on this kernel. Only origin kernels invoke it.
func (s *Service) SetRestartHook(fn RestartHook) { s.restart = fn }

// restartMember rebuilds lost member id from its checkpoint on this (the
// origin) kernel and hands it to the OS restart hook. The member never
// leaves the members table — joiners keep waiting for the replacement, so
// the detection gap between the crash and this sweep cannot release a join
// early. Returns false (with all local state undone) if the hook declines.
func (s *Service) restartMember(p *sim.Proc, g *group, id task.ID) bool {
	// tg.restart covers rebuilding the task from its checkpoint up to the
	// hand-off to the OS restart hook.
	restartScope := s.ep.Collector().Begin(p, "tg.restart", int(s.node))
	defer restartScope.End()
	s.tasklist.Lock(p)
	p.Sleep(s.machine.LineBounce(s.tasklist.Waiters(), s.vmsvc.LocalCores(), false))
	p.Sleep(s.machine.Cost.ThreadSetup)
	t := task.New(id, task.ID(g.gid), int(s.node))
	t.State = task.StateRecovered
	t.Recoverable = true
	// Sequence the restart past the lost incarnation: a late move
	// registration or rollback claim from the old copy carries an epoch at
	// or below the one we store here, so the origin rejects it and exactly
	// one incarnation of the member survives.
	m := g.members[id]
	t.Migrations = m.epoch + 1
	m.node, m.epoch = s.node, t.Migrations
	g.members[id] = m
	ghost, hadGhost := g.local[id]
	if hadGhost {
		// A dead source's migration into this (the origin) kernel landed
		// its import here before the source could register the move: the
		// executor died with the source, leaving the context ownerless.
		// The restart replaces it; the space's thread count already
		// includes it, so no second arrival.
		ghost.State = task.StateLost
	}
	g.local[id] = t
	s.tasklist.Unlock(p)
	if !hadGhost {
		if sp, ok := s.vmsvc.Space(g.gid); ok {
			sp.ThreadArrived()
		}
	}
	if !s.restart(p, t) {
		delete(g.local, id)
		if sp, ok := s.vmsvc.Space(g.gid); ok {
			sp.ThreadLeft()
		}
		return false
	}
	s.shipGroup(p, g)
	return true
}

// WaitMembers blocks p (at the origin) until at most n members of gid
// remain. Unlike a plain WaitGroup counter, the member table counts a lost
// member until it is either reaped or restarted, so a process join driven
// through here waits out the crash-detection gap instead of returning while
// a restart is still owed.
func (s *Service) WaitMembers(p *sim.Proc, gid vm.GID, n int) error {
	g, ok := s.groups[gid]
	if !ok {
		if s.fabric.Failover() {
			// With failover on, the promoted origin reaps crash-lost members
			// and the last reap tears the group down — possibly before a
			// holder-routed Join arrives here. A gone group is a drained
			// member table: exactly the condition this waits for.
			return nil
		}
		return errNoGroup
	}
	if !g.isOrigin {
		return errNotOrigin
	}
	for len(g.members) > n {
		g.emptyWaiters.Wait(p)
	}
	return nil
}

// Reboot resets the service to boot state, the one NewService ends with: on
// a kernel reboot every group, pending replica setup, orphaned signal, and
// signal waiter died with the crash. The tasklist mutex is replaced — the
// crash can have killed a thread while it held the lock, and a killed holder
// never unlocks. The PID/GID counters keep counting so IDs stay unique across
// incarnations.
func (s *Service) Reboot() {
	s.groups = make(map[vm.GID]*group)
	s.tasklist = sim.NewMutex(s.e).SetLabel(&s.tasklistLabel)
	s.dummies = s.cfg.DummyPool
	s.setupPending = make(map[vm.GID]*sim.Cond)
	s.orphanSignals = make(map[task.ID][]int)
	s.sigWaiters = make(map[task.ID]*sim.Proc)
	s.gmirrors = make(map[vm.GID]*groupRepl)
}
