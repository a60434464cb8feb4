// Package threadgroup implements the paper's primary contribution: thread
// groups whose member threads execute on different kernel instances while
// presenting single-process semantics. It provides distributed thread-group
// creation (remote clone with on-demand replica setup), thread context
// migration (checkpoint, transfer, dummy-thread resume, shadow tasks and
// back-migration), and group-wide exit, all over the inter-kernel message
// fabric.
package threadgroup

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/hw"
	"repro/internal/msg"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/vm"
)

// Errors reported by group operations.
var (
	// errNoGroup is returned for operations on groups this kernel does not
	// host.
	errNoGroup = errors.New("threadgroup: group not resident on this kernel")
	// errNotOrigin is returned when an origin-only operation runs elsewhere.
	errNotOrigin = errors.New("threadgroup: kernel is not the group origin")
	// errBadMigration is returned for invalid migration requests.
	errBadMigration = errors.New("threadgroup: invalid migration")

	// ErrSuperseded is returned when a failed migration's rollback loses
	// the race against the origin's recovery: the member was already
	// restarted from its checkpoint (or reaped as lost), so the source must
	// not revive a second incarnation of the thread.
	ErrSuperseded = errors.New("threadgroup: rollback superseded by origin recovery")
)

// group is one kernel's view of a distributed thread group.
type group struct {
	gid    vm.GID
	origin msg.NodeID
	// local holds the live member tasks hosted on this kernel.
	local map[task.ID]*task.Task
	// shadows holds husks of threads that migrated away from this kernel.
	shadows map[task.ID]*task.Task

	// Origin-only state.
	isOrigin bool
	// members holds the origin's record of every live member.
	members map[task.ID]member
	// replicas is the set of kernels hosting (or having hosted) members.
	replicas map[msg.NodeID]struct{}
	// emptyWaiters are processes blocked in WaitMembers.
	emptyWaiters *sim.Cond
	exited       bool

	// originDead marks a replica whose origin kernel was declared dead:
	// exits complete locally without the origin round trip.
	originDead bool

	// snapVersion is the monotonically increasing version of the last
	// replication snapshot shipped to the failover successor; mirrors use
	// it to discard stale or duplicated snapshots.
	snapVersion uint64
}

// member is the origin's record of one live member; it leaves the table
// whole when the member exits or is reaped.
type member struct {
	// node is the kernel the member currently runs on.
	node msg.NodeID
	// epoch is the sequence number of the last location change the origin
	// accepted (the task's Migrations counter at that move; zero until the
	// first migration). It makes the origin the single arbiter of a
	// thread's identity when a migration fails: the source's rollback claim,
	// the destination's (possibly retransmitted) move registration, and the
	// recovery sweep's checkpointed restart all race for the same member,
	// and whichever the origin sequences first wins — every later arrival
	// carries a stale epoch and is denied, so exactly one incarnation of the
	// thread survives.
	epoch int
	// recoverable marks a member eligible for checkpointed restart if its
	// hosting kernel crashes. It also stands for the checkpoint itself, the
	// last migration payload the origin saw: a context is modelled by its
	// size alone (task.ContextBytes), so there is no content to keep.
	recoverable bool
	// restarted records that the member was restarted once already; restart
	// is at-most-once, so a second hosting-kernel crash reaps it as lost.
	restarted bool
}

// Config tunes the thread-group service.
type Config struct {
	// DummyPool pre-creates this many dummy threads per kernel; migrations
	// that hit the pool skip the task-setup cost (the paper's dummy-thread
	// optimisation). Zero disables the pool (the D2 ablation).
	DummyPool int
}

// Service is the per-kernel thread-group service.
type Service struct {
	e       sim.Engine
	machine *hw.Machine
	node    msg.NodeID
	ep      *msg.Endpoint
	fabric  *msg.Fabric
	vmsvc   *vm.Service
	metrics *stats.Registry
	// hot caches the handles of the per-migration metrics, each filled on
	// first use (stats.Registry.CounterIn) so a run registers exactly the
	// names it always did.
	hot struct {
		migrate, revive, dummyHit, dummyMiss     *stats.Counter
		checkpoint, rpc, total, setup, importCtx *stats.Histogram
	}
	checker *sanitize.Checker
	cfg     Config

	groups map[vm.GID]*group
	// tasklist serialises task creation/teardown on this kernel — the
	// per-kernel analogue of SMP Linux's global tasklist_lock.
	tasklist *sim.Mutex
	// tasklistLabel is the tasklist mutex's name, which it holds by
	// reference; a reboot's new mutex points at the same string.
	tasklistLabel string
	nextPID       int64
	nextGID       int64
	// dummies is the current dummy-thread pool depth.
	dummies int
	// refillName names every dummy-refill process, formatted at the first
	// refill: a kernel that never takes a dummy never formats it.
	refillName string
	// refillFree holds the records of finished refills (refillDummy).
	refillFree []*refillRun
	// setupPending serialises concurrent replica setups for one group
	// (two inbound migrations racing to attach would otherwise collide).
	setupPending map[vm.GID]*sim.Cond
	// orphanSignals parks signals that arrive ahead of their target's
	// in-flight migration.
	orphanSignals map[task.ID][]int
	// sigWaiters holds tasks blocked in WaitSignal.
	sigWaiters map[task.ID]*sim.Proc
	// restart, when set, re-executes recovered tasks on this kernel (the
	// degradation sweep invokes it at the origin for restartable members).
	restart RestartHook

	// gmirrors holds the latest group snapshot received from each origin
	// this kernel is the replication successor for.
	gmirrors map[vm.GID]*groupRepl
}

// NewService creates the kernel's thread-group service and registers its
// message handlers.
func NewService(e sim.Engine, machine *hw.Machine, fabric *msg.Fabric, node msg.NodeID, vmsvc *vm.Service, cfg Config, metrics *stats.Registry) *Service {
	if metrics == nil {
		metrics = stats.NewRegistry()
	}
	s := &Service{
		e:             e,
		machine:       machine,
		node:          node,
		ep:            fabric.Endpoint(node),
		fabric:        fabric,
		vmsvc:         vmsvc,
		metrics:       metrics,
		cfg:           cfg,
		groups:        make(map[vm.GID]*group),
		tasklistLabel: fmt.Sprintf("tg.tasklist.k%d", node),
		dummies:       cfg.DummyPool,
		setupPending:  make(map[vm.GID]*sim.Cond),
		orphanSignals: make(map[task.ID][]int),
		sigWaiters:    make(map[task.ID]*sim.Proc),
		gmirrors:      make(map[vm.GID]*groupRepl),
	}
	s.tasklist = sim.NewMutex(e).SetLabel(&s.tasklistLabel)
	threadCreate.Handle(s.ep, s.handleThreadCreate)
	groupReplicate.Handle(s.ep, s.handleGroupReplicate)
	originHandover.Handle(s.ep, s.handleOriginHandover)
	groupSetup.Handle(s.ep, s.handleGroupSetup)
	migrate.Handle(s.ep, s.handleMigrate)
	exitNotify.Handle(s.ep, s.handleExitNotify)
	groupExit.Handle(s.ep, s.handleGroupExit)
	signal.Handle(s.ep, s.handleSignal)
	return s
}

// AttachChecker points the service at a sanitizer: migrations and exits
// create happens-before edges between the thread's old and new kernels.
func (s *Service) AttachChecker(c *sanitize.Checker) { s.checker = c }

// FutexHome implements futex.Resolver: a group's futexes are homed at its
// origin kernel.
func (s *Service) FutexHome(gid vm.GID) (msg.NodeID, bool) {
	g, ok := s.groups[gid]
	if !ok {
		return 0, false
	}
	return g.origin, true
}

// GroupSpace implements futex.Resolver.
func (s *Service) GroupSpace(gid vm.GID) (*vm.Space, bool) {
	return s.vmsvc.Space(gid)
}

// capSharers bounds a lock's bounce term by this kernel's core count.
func (s *Service) capSharers(waiters int) int {
	max := s.vmsvc.LocalCores() - 1
	if max < 0 {
		max = 0
	}
	if waiters > max {
		return max
	}
	return waiters
}

// allocPID returns a machine-unique task ID from this kernel's partition of
// the ID space, the one group IDs come from (vm.NewGID).
func (s *Service) allocPID() task.ID {
	s.nextPID++
	return task.ID(vm.NewGID(s.node, s.nextPID))
}

// CreateGroup starts a new thread group (process) with this kernel as
// origin and returns the group ID and its initial (main) thread.
func (s *Service) CreateGroup(p *sim.Proc) (vm.GID, *task.Task, error) {
	s.nextGID++
	gid := vm.NewGID(s.node, s.nextGID)
	if _, err := s.vmsvc.Create(gid); err != nil {
		return 0, nil, err
	}
	g := &group{
		gid:          gid,
		origin:       s.node,
		isOrigin:     true,
		local:        make(map[task.ID]*task.Task),
		shadows:      make(map[task.ID]*task.Task),
		members:      make(map[task.ID]member),
		replicas:     make(map[msg.NodeID]struct{}),
		emptyWaiters: sim.NewCond(),
	}
	s.groups[gid] = g
	main, err := s.spawnLocal(p, g)
	if err != nil {
		return 0, nil, err
	}
	return gid, main, nil
}

// spawnLocal creates a member task on this kernel under the tasklist lock.
func (s *Service) spawnLocal(p *sim.Proc, g *group) (*task.Task, error) {
	s.tasklist.Lock(p)
	p.Sleep(s.machine.LineBounce(s.capSharers(s.tasklist.Waiters()), false))
	p.Sleep(s.machine.Cost.ThreadSetup)
	t := task.New(s.allocPID(), task.ID(g.gid), int(s.node))
	t.State = task.StateRunnable
	g.local[t.ID] = t
	s.tasklist.Unlock(p)
	if sp, ok := s.vmsvc.Space(g.gid); ok {
		sp.ThreadArrived()
	}
	s.metrics.Counter("tg.spawn.local").Inc()
	if g.isOrigin {
		g.members[t.ID] = member{node: s.node}
		s.shipGroup(p, g)
	} else {
		// Remote member: the origin learns via the create/migrate path
		// that invoked us.
		s.metrics.Counter("tg.spawn.replica").Inc()
	}
	return t, nil
}

// Spawn clones a new member thread of gid onto the dst kernel. Local
// spawns touch only this kernel's structures; remote spawns run the
// distributed-thread-group creation protocol (replica setup on first use,
// then remote task creation).
func (s *Service) Spawn(p *sim.Proc, gid vm.GID, dst msg.NodeID) (*task.Task, error) {
	g, ok := s.groups[gid]
	if !ok {
		return nil, fmt.Errorf("%w: group %d on kernel %d", errNoGroup, gid, s.node)
	}
	if dst == s.node {
		t, err := s.spawnLocal(p, g)
		if err != nil {
			return nil, err
		}
		if !g.isOrigin {
			// Register the member with the origin.
			if err := s.notifyOriginSpawn(p, g, t.ID); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	start := p.Now()
	r, err := threadCreate.Call(p, s.ep, dst, msg.NoRole, &threadCreateReq{GID: gid, Origin: g.origin})
	if err != nil {
		return nil, err
	}
	if r.Err != nil {
		return nil, fmt.Errorf("threadgroup: remote clone on kernel %d: %w", dst, r.Err)
	}
	s.metrics.Counter("tg.spawn.remote").Inc()
	s.metrics.Histogram("tg.spawn.remote.latency").Observe(p.Now().Sub(start))
	t := task.New(r.TaskID, task.ID(gid), int(dst))
	t.State = task.StateRunnable
	if g.isOrigin {
		g.members[t.ID] = member{node: dst}
		g.replicas[dst] = struct{}{}
		s.shipGroup(p, g)
	}
	return t, nil
}

// notifyOriginSpawn tells the origin a member was created on this kernel.
func (s *Service) notifyOriginSpawn(p *sim.Proc, g *group, id task.ID) error {
	r, err := groupSetup.Call(p, s.ep, g.origin, msg.NoRole, &groupSetupReq{GID: g.gid, Node: s.node, NewMember: id})
	if err != nil {
		return err
	}
	if r.Err != nil {
		return fmt.Errorf("threadgroup: origin registration: %w", r.Err)
	}
	return nil
}

// Task returns this kernel's task with the given ID, if present.
func (s *Service) Task(gid vm.GID, id task.ID) (*task.Task, bool) {
	g, ok := s.groups[gid]
	if !ok {
		return nil, false
	}
	if t, ok := g.local[id]; ok {
		return t, true
	}
	t, ok := g.shadows[id]
	return t, ok
}

// PeerDied is the degradation hook: the failure detector on this kernel
// declared `dead` gone. The origin reaps members hosted there (completing
// group exit/join accounting) and marks shadows stranded there as lost, so
// a crashed kernel never wedges a joiner. Replicas whose
// origin died switch to local-only exits. Iteration orders are sorted so
// degradation is as deterministic as the schedule that triggered it.
func (s *Service) PeerDied(p *sim.Proc, dead msg.NodeID) {
	// Failover promotion first: mirrored groups whose origin just died
	// become origin groups on this kernel, so the sweep below restarts or
	// reaps their dead-hosted members exactly like any other origin group.
	s.promoteGroups(p, dead)
	gids := make([]vm.GID, 0, len(s.groups))
	for gid := range s.groups {
		gids = append(gids, gid)
	}
	slices.Sort(gids)
	for _, gid := range gids {
		g, ok := s.groups[gid]
		if !ok {
			continue // torn down while reaping an earlier group
		}
		// Shadows whose live thread was on the dead kernel: the execution is
		// gone. Mark the task lost and drop the husk so back-migration or
		// reap bookkeeping never waits on it.
		ids := make([]task.ID, 0, len(g.shadows))
		for id, sh := range g.shadows {
			if sh.MigratedTo == int(dead) {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		for _, id := range ids {
			sh := g.shadows[id]
			delete(g.shadows, id)
			sh.State = task.StateLost
			s.metrics.Counter("tg.shadow.lost").Inc()
		}
		if !g.isOrigin {
			if g.origin == dead && !g.originDead {
				g.originDead = true
				s.metrics.Counter("tg.origin.lost").Inc()
			}
			continue
		}
		delete(g.replicas, dead)
		// Reap members hosted on the dead kernel as if they exited; the last
		// reap tears the group down and releases WaitMembers.
		ids = ids[:0]
		for id, m := range g.members {
			if m.node == dead {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		for _, id := range ids {
			if m := g.members[id]; m.recoverable && !m.restarted && s.restart != nil {
				// Checkpointed restart: rebuild the thread here instead of
				// reaping it. At-most-once — mark before attempting so a
				// failed hook still burns the member's one restart.
				m.restarted = true
				g.members[id] = m
				if s.restartMember(p, g, id) {
					s.metrics.Counter("tg.member.restarted").Inc()
					continue
				}
			}
			s.metrics.Counter("tg.member.lost").Inc()
			if err := s.originMemberExited(p, g, id); err != nil {
				s.metrics.Counter("tg.reap.err").Inc()
			}
		}
	}
}
