package threadgroup

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
)

// Migrate moves the live thread (gid, id) from this kernel to dst: the
// paper's thread context migration protocol. The source checkpoints the
// user context and downgrades its task to a shadow; the destination
// instantiates (or revives) a task, imports the context, and registers the
// new location with the origin. The returned task is the destination-side
// descriptor the runtime resumes.
func (s *Service) Migrate(p *sim.Proc, gid vm.GID, id task.ID, dst msg.NodeID) (*task.Task, error) {
	g, ok := s.groups[gid]
	if !ok {
		return nil, fmt.Errorf("%w: group %d on kernel %d", errNoGroup, gid, s.node)
	}
	t, ok := g.local[id]
	if !ok {
		return nil, fmt.Errorf("%w: task %d not live on kernel %d", errBadMigration, id, s.node)
	}
	if dst == s.node {
		return nil, fmt.Errorf("%w: task %d already on kernel %d", errBadMigration, id, dst)
	}
	totalStart := p.Now()

	// Phase 1 — claim the task: downgrade it to a shadow *before* any
	// blocking work, so a racing migration or exit observes a consistent
	// not-live-here state instead of double-claiming the thread.
	delete(g.local, id)
	t.State = task.StateShadow
	t.MigratedTo = int(dst)
	g.shadows[id] = t
	if sp, ok := s.vmsvc.Space(gid); ok {
		sp.ThreadLeft()
	}

	// Phase 2 — checkpoint: save the register file, FPU state and TLS into
	// the migration payload. The tg.checkpoint span covers phases 1+2 (the
	// claim is instantaneous in virtual time), matching the histogram.
	ckptScope := s.ep.Collector().Begin(p, "tg.checkpoint", int(s.node))
	p.Sleep(s.machine.Cost.ContextSwitch)
	ckptScope.End()
	s.metrics.HistogramIn(&s.hot.checkpoint, "tg.migrate.checkpoint").Observe(p.Now().Sub(totalStart))

	// Phase 3 — ship the context and wait for the destination to resume.
	rpcStart := p.Now()
	r, err := s.shipContext(p, g, t, dst)
	if err != nil {
		// Transport failure (the destination died or never answered): the
		// thread never resumed there, so revive the source task and surface
		// the error. A dead destination that had imported the context loses
		// that execution with the kernel; resuming from the checkpoint here
		// is the degradation the shadow exists for. But the revival must be
		// claimed from the origin first: if the import registered there
		// before the destination died, the recovery sweep may already have
		// restarted the member from its checkpoint, and reviving the shadow
		// too would fork the thread into two live incarnations.
		if !s.claimRollback(p, g, t, id) {
			return nil, fmt.Errorf("%w: task %d", ErrSuperseded, id)
		}
		s.rollbackMigration(g, t, id)
		s.metrics.Counter("tg.migrate.rollback").Inc()
		return nil, err
	}
	if r.Err != nil {
		// Roll back: revive the source task — under the same origin claim
		// as the transport-failure path, because a refused import can mean
		// a duplicate of this very migration already ran there.
		if !s.claimRollback(p, g, t, id) {
			return nil, fmt.Errorf("%w: task %d", ErrSuperseded, id)
		}
		s.rollbackMigration(g, t, id)
		return nil, fmt.Errorf("threadgroup: migrate to kernel %d: %w", dst, r.Err)
	}
	s.metrics.HistogramIn(&s.hot.rpc, "tg.migrate.rpc").Observe(p.Now().Sub(rpcStart))

	// The SOURCE registers the new location, after the import reply is in
	// hand: the origin must not learn of the move before the thread's
	// executor is known to have survived the handoff. If this kernel dies
	// while the import is in flight, the executing proc dies with it; the
	// member then stays registered here, so the origin's recovery sweep
	// restarts or reaps it instead of pointing joiners at an executor-less
	// ghost on the destination.
	regScope := s.ep.Collector().Begin(p, "tg.register", int(s.node))
	err = s.registerMove(p, g, r.Task, dst)
	regScope.End()
	if err != nil {
		// The origin refused the location: a checkpointed restart (or a
		// newer registration) owns this thread's identity. The imported
		// copy must never run — reap it and lose this execution.
		exitNotify.Send(p, s.ep, dst, &exitReq{GID: gid, TaskID: id, Ghost: true})
		s.dropSupersededShadow(g, t, id)
		return nil, err
	}
	s.metrics.HistogramIn(&s.hot.total, "tg.migrate.total").Observe(p.Now().Sub(totalStart))
	s.metrics.CounterIn(&s.hot.migrate, "tg.migrate").Inc()
	s.checker.ThreadMigrated(p)
	return r.Task, nil
}

// shipContext sends t's checkpoint to dst, taking t's pending signals along.
// On its own so that the request it builds lives in a frame that exists only
// for the round trip, not for the rest of Migrate's RPCs.
func (s *Service) shipContext(p *sim.Proc, g *group, t *task.Task, dst msg.NodeID) (migrateReply, error) {
	pending := append([]int(nil), t.PendingSignals...)
	t.PendingSignals = nil
	return migrate.Call(p, s.ep, dst, msg.NoRole, &migrateReq{
		GID:         g.gid,
		Origin:      g.origin,
		TaskID:      t.ID,
		Hops:        t.Hops,
		Source:      int(s.node),
		Migrations:  t.Migrations + 1,
		Pending:     pending,
		Recoverable: t.Recoverable,
	})
}

// handleMigrate is the destination half of the migration protocol.
func (s *Service) handleMigrate(p *sim.Proc, _ msg.NodeID, req *migrateReq) migrateReply {
	g, err := s.ensureReplica(p, req.GID, req.Origin)
	if err != nil {
		return migrateReply{Err: err}
	}
	if _, live := g.local[req.TaskID]; live {
		// A duplicate import: the first execution of this request already
		// landed and the dedup window that would normally replay its reply
		// died with a reboot. Re-importing would fork the thread.
		s.metrics.Counter("tg.migrate.dupimport").Inc()
		return migrateReply{Err: fmt.Errorf("task %d already live on kernel %d", req.TaskID, s.node)}
	}

	var t *task.Task
	if shadow, ok := g.shadows[req.TaskID]; ok {
		// Back-migration: revive the shadow left here on the way out.
		delete(g.shadows, req.TaskID)
		t = shadow
		s.metrics.CounterIn(&s.hot.revive, "tg.migrate.revive").Inc()
	} else {
		setupStart := p.Now()
		// tg.setup covers acquiring a destination task: the tasklist lock,
		// then either a dummy-pool hit or a full thread setup.
		setupScope := s.ep.Collector().Begin(p, "tg.setup", int(s.node))
		s.tasklist.Lock(p)
		p.Sleep(s.machine.LineBounce(s.tasklist.Waiters(), s.vmsvc.LocalCores(), false))
		if s.dummies > 0 {
			// A pre-created dummy thread absorbs the task-setup cost.
			s.dummies--
			s.metrics.CounterIn(&s.hot.dummyHit, "tg.migrate.dummyhit").Inc()
			s.refillDummy()
		} else {
			p.Sleep(s.machine.Cost.ThreadSetup)
			s.metrics.CounterIn(&s.hot.dummyMiss, "tg.migrate.dummymiss").Inc()
		}
		s.tasklist.Unlock(p)
		t = task.New(req.TaskID, task.ID(req.GID), int(s.node))
		setupScope.End()
		s.metrics.HistogramIn(&s.hot.setup, "tg.migrate.setup").Observe(p.Now().Sub(setupStart))
	}

	// Import the context into the (dummy) task and make it runnable.
	importStart := p.Now()
	importScope := s.ep.Collector().Begin(p, "tg.import", int(s.node))
	t.Kernel = int(s.node)
	t.State = task.StateRunnable
	t.Migrations = req.Migrations
	t.Recoverable = req.Recoverable
	s.importHops(t, req)
	p.Sleep(s.machine.Cost.ContextSwitch / 2)
	t.PendingSignals = append(t.PendingSignals, req.Pending...)
	g.local[req.TaskID] = t
	if sp, ok := s.vmsvc.Space(req.GID); ok {
		sp.ThreadArrived()
	}
	s.adoptOrphanSignals(g, t)
	importScope.End()
	s.metrics.HistogramIn(&s.hot.importCtx, "tg.migrate.import").Observe(p.Now().Sub(importStart))

	// Deliberately NO origin registration here: the source registers the
	// move after it receives this reply (see Migrate). Committing the new
	// location from the destination would let a source crash strand the
	// member — registered here while the only executor died over there.
	return migrateReply{Task: t}
}

// claimRollback asks the origin whether the source of a failed migration
// may revive task id from its pre-migration shadow. Granted only while the
// origin still has the member registered at this kernel under the same
// move epoch — no newer location accepted, no checkpointed restart, no
// reap. A grant bumps the epoch so any later registration from the failed
// destination is rejected as stale. Denial means another incarnation owns
// the thread's identity and the shadow must be discarded. An unreachable
// origin grants by default: that is the orphaned-group degradation, with
// no authority left to race against.
func (s *Service) claimRollback(p *sim.Proc, g *group, t *task.Task, id task.ID) bool {
	r := s.askOrigin(p, g, groupSetupReq{GID: g.gid, Node: s.node, ClaimMember: id, MoveEpoch: t.Migrations}, "tg.claim")
	if r.Denied {
		s.dropSupersededShadow(g, t, id)
		return false
	}
	if r.Err == nil {
		t.Migrations++
	}
	return true
}

// dropSupersededShadow discards the phase-1 shadow of a migration whose
// rollback the origin denied. The thread's identity now belongs to the
// restarted (or already-reaped) incarnation; nothing here may keep
// running under it.
func (s *Service) dropSupersededShadow(g *group, t *task.Task, id task.ID) {
	delete(g.shadows, id)
	t.State = task.StateLost
	s.metrics.Counter("tg.migrate.superseded").Inc()
}

// rollbackMigration undoes Migrate's phase-1 claim: the shadow becomes the
// live local task again and the space's thread count is restored.
func (s *Service) rollbackMigration(g *group, t *task.Task, id task.ID) {
	delete(g.shadows, id)
	t.State = task.StateRunnable
	t.MigratedTo = 0
	g.local[id] = t
	if sp, ok := s.vmsvc.Space(g.gid); ok {
		sp.ThreadArrived()
	}
}

// importHops rebuilds t's hop list in t's own array (sized to the kernel
// count on first use) from the source's: its hops without this kernel — a
// revived shadow means the thread no longer owes a reap here — then the
// source, which left a shadow behind.
func (s *Service) importHops(t *task.Task, req *migrateReq) {
	if t.Hops == nil {
		t.Hops = make([]int, 0, s.fabric.Nodes())
	}
	t.Hops = t.Hops[:0]
	for _, h := range req.Hops {
		if h != int(s.node) {
			t.Hops = append(t.Hops, h)
		}
	}
	t.Hops = append(t.Hops, req.Source)
}

// refillDummy asynchronously rebuilds the dummy pool, the way Popcorn's
// worker pre-creates dummy threads off the migration critical path. The
// refill's process runs on a pooled record (sim.Engine.Start), so once a
// kernel has made its first record a dummy hit allocates nothing.
func (s *Service) refillDummy() {
	if s.refillName == "" {
		s.refillName = fmt.Sprintf("tg-dummy-refill-%d", s.node)
	}
	r := sim.Take(&s.refillFree)
	if r == nil {
		r = &refillRun{s: s}
		// A literal, not the method value r.run: this runs under the
		// tasklist lock that run takes, and a method value reads as a call.
		r.body = func(p *sim.Proc) { r.run(p) }
	}
	s.e.Start(&r.proc, s.refillName, r.body)
}

// refillRun is one dummy refill's process, on storage its service pools.
type refillRun struct {
	proc sim.Proc
	s    *Service
	body func(p *sim.Proc) // run, bound once per record
}

// run builds one dummy thread under the tasklist lock and gives the record
// back. A refill killed on the way never gets there: a wait queue may still
// name its Proc, so the record is retired with its process.
func (r *refillRun) run(p *sim.Proc) {
	s := r.s
	s.tasklist.Lock(p)
	p.Sleep(s.machine.Cost.ThreadSetup)
	s.dummies++
	s.tasklist.Unlock(p)
	sim.Give(&s.refillFree, r)
}

// ensureReplica makes sure this kernel hosts group state and an
// address-space replica for gid, registering with the origin on first use.
// Concurrent setups for the same group (two inbound migrations, say)
// serialise: the first does the work, the rest wait and reuse it.
func (s *Service) ensureReplica(p *sim.Proc, gid vm.GID, origin msg.NodeID) (*group, error) {
	for {
		if g, ok := s.groups[gid]; ok {
			return g, nil
		}
		cond, busy := s.setupPending[gid]
		if !busy {
			break
		}
		cond.Wait(p)
	}
	if origin == s.node {
		return nil, fmt.Errorf("threadgroup: group %d claims origin %d but is not resident", gid, origin)
	}
	cond := sim.NewCond()
	s.setupPending[gid] = cond
	defer func() {
		delete(s.setupPending, gid)
		cond.Broadcast()
	}()
	// Register with the origin first so layout updates reach this kernel
	// before any state is cached here.
	r, err := groupSetup.Call(p, s.ep, origin, msg.NoRole, &groupSetupReq{GID: gid, Node: s.node})
	if err != nil {
		return nil, err
	}
	if r.Err != nil {
		return nil, fmt.Errorf("threadgroup: replica setup: %w", r.Err)
	}
	if _, err := s.vmsvc.Attach(gid, origin); err != nil {
		return nil, err
	}
	g := &group{
		gid:     gid,
		origin:  origin,
		local:   make(map[task.ID]*task.Task),
		shadows: make(map[task.ID]*task.Task),
	}
	s.groups[gid] = g
	s.metrics.Counter("tg.replica.setup").Inc()
	return g, nil
}

// handleThreadCreate serves a remote clone on the destination kernel.
func (s *Service) handleThreadCreate(p *sim.Proc, from msg.NodeID, req *threadCreateReq) threadCreateReply {
	g, err := s.ensureReplica(p, req.GID, req.Origin)
	if err != nil {
		return threadCreateReply{Err: err}
	}
	t, err := s.spawnLocal(p, g, req.Recoverable)
	if err != nil {
		return threadCreateReply{Err: err}
	}
	// The origin records membership when its Spawn call returns (it
	// initiated this create) or via the GroupSetup ack for third-party
	// creates.
	if !g.isOrigin && from != g.origin {
		if err := s.notifyOriginSpawn(p, g, t.ID); err != nil {
			return threadCreateReply{Err: err}
		}
	}
	return threadCreateReply{TaskID: t.ID}
}

// registerMove commits a completed migration's new location with the
// origin. Called by the migration's SOURCE once the destination's import
// reply is in hand — see Migrate for why the destination must not do this.
// For recoverable threads the shipped context rides along so the origin's
// restart checkpoint tracks the thread's latest state. Transport failures
// retry until the origin answers or is declared dead (orphaned-group
// degradation: proceed unregistered; there is no authority left to
// contradict the move). Denial means a restart or a newer registration
// owns the thread's identity; the returned error wraps ErrSuperseded.
func (s *Service) registerMove(p *sim.Proc, g *group, moved *task.Task, dst msg.NodeID) error {
	req := groupSetupReq{GID: g.gid, Node: dst, MovedMember: moved.ID, MoveEpoch: moved.Migrations, Checkpoint: moved.Recoverable}
	r := s.askOrigin(p, g, req, "tg.move")
	if r.Denied {
		return fmt.Errorf("%w: move registration for task %d", ErrSuperseded, moved.ID)
	}
	if r.Err != nil {
		s.metrics.Counter("tg.move.orphaned").Inc()
	}
	return nil
}

// askOrigin puts one origin decision — a move registration or a rollback
// claim — to g's origin and returns its verdict: decided in place when this
// kernel is the origin, else over TypeGroupSetup. Transport failures retry
// until the origin answers or is declared dead: guessing either way risks a
// fork or an unnecessary kill. Backpressure fast-fails consume no virtual
// time, so those retries are paced or the loop would spin at one instant.
// A dead origin, or one that rebooted and lost the group, orphans the group:
// the reply then carries Err, and there is no authority left to race
// against. name prefixes the retry and backpressure counters.
func (s *Service) askOrigin(p *sim.Proc, g *group, req groupSetupReq, name string) groupSetupReply {
	if g.isOrigin {
		return s.originSetup(p, g, &req)
	}
	for {
		r, err := groupSetup.Call(p, s.ep, g.origin, msg.NoRole, &req)
		if err == nil {
			if r.Err != nil {
				g.originDead = true
			}
			return r
		}
		if msg.IsDeadPeer(err) {
			g.originDead = true
			return groupSetupReply{Err: err}
		}
		s.metrics.Counter(name + ".retry").Inc()
		if msg.IsBackpressure(err) {
			s.metrics.Counter(name + ".backpressure").Inc()
			p.Sleep(s.ep.RetryBackoff())
		}
	}
}

// handleGroupSetup runs at the origin: the wire half of askOrigin, and the
// registration of new replicas and members.
func (s *Service) handleGroupSetup(p *sim.Proc, _ msg.NodeID, req *groupSetupReq) groupSetupReply {
	g, ok := s.groups[req.GID]
	if !ok || !g.isOrigin {
		return groupSetupReply{Err: fmt.Errorf("kernel %d is not origin of group %d", s.node, req.GID)}
	}
	return s.originSetup(p, g, req)
}

// originSetup is the origin's one decision on a group-setup request, made in
// place for requests from the origin itself and by the handler for the rest:
// register a replica kernel, record a new member, accept or deny a moved
// member's registration, and grant or deny a rollback claim.
func (s *Service) originSetup(p *sim.Proc, g *group, req *groupSetupReq) groupSetupReply {
	if _, have := g.replicas[req.Node]; !have && req.Node != s.node {
		g.replicas[req.Node] = struct{}{}
		if err := s.vmsvc.RegisterReplica(req.GID, req.Node); err != nil {
			return groupSetupReply{Err: err}
		}
	}
	if req.NewMember != task.NoTask {
		m := g.members[req.NewMember]
		m.node = req.Node
		g.members[req.NewMember] = m
	}
	if id := req.MovedMember; id != task.NoTask {
		m, ok := g.members[id]
		switch {
		case ok && m.node == req.Node && m.epoch == req.MoveEpoch:
			// Already applied: a fresh Call retrying a registration whose
			// reply was lost. Idempotent success.
		case !ok || req.MoveEpoch <= m.epoch:
			// Stale: the member was reaped, restarted from its checkpoint,
			// or re-registered under a newer epoch. The source must discard
			// the imported copy instead of letting it run.
			return groupSetupReply{Denied: true}
		default:
			m.node, m.epoch = req.Node, req.MoveEpoch
			g.members[id] = m
		}
	}
	if id := req.ClaimMember; id != task.NoTask {
		m, ok := g.members[id]
		granted := ok && m.node == req.Node && m.epoch == req.MoveEpoch
		replayed := ok && m.node == req.Node && m.epoch == req.MoveEpoch+1
		if !granted && !replayed {
			return groupSetupReply{Denied: true}
		}
		// Granted: sequence the revival so any late registration for the
		// failed migration arrives stale. (replayed = a retried claim this
		// origin already granted but whose reply was lost; only a grant to
		// this same kernel leaves the member here at epoch+1, so answering
		// success again is safe.)
		m.epoch = req.MoveEpoch + 1
		g.members[id] = m
	}
	// Replicate before acking: the requester must not act on a mutation the
	// failover successor has not logged.
	s.shipGroup(p, g)
	return groupSetupReply{}
}
