package threadgroup

import (
	"repro/internal/msg"
	"repro/internal/task"
	"repro/internal/vm"
)

// The thread-group protocol. A leg is 64 B on the wire, a clone request 128 B,
// and a context rides along in a migration and a move registration. A one-way
// exit notification (a reap or a ghost drop) is answered only when it fails.
var (
	threadCreate   = msg.Kind[threadCreateReq, threadCreateReply]{Type: msg.TypeThreadCreate, Size: 128, ReplySize: 64}
	groupSetup     = msg.Kind[groupSetupReq, groupSetupReply]{Type: msg.TypeGroupSetup, SizeOf: setupSize, ReplySize: 64}
	migrate        = msg.Kind[migrateReq, migrateReply]{Type: msg.TypeMigrate, Size: task.ContextBytes + 64, ReplySize: 64}
	exitNotify     = msg.Kind[exitReq, errReply]{Type: msg.TypeExitNotify, Size: 64, ReplySize: 64, OneWayReply: func(r *errReply) bool { return r.Err != nil }}
	groupExit      = msg.Kind[groupExitReq, errReply]{Type: msg.TypeGroupExit, Size: 64, ReplySize: 64}
	signal         = msg.Kind[signalReq, errReply]{Type: msg.TypeSignal, Size: 64, ReplySize: 64}
	groupReplicate = msg.Kind[groupRepl, struct{}]{Type: msg.TypeGroupReplicate, SizeOf: groupReplSize, ReplySize: 64}
	originHandover = msg.Kind[handoverReq, struct{}]{Type: msg.TypeOriginHandover, Size: 64, ReplySize: 64}
)

func setupSize(r *groupSetupReq) int {
	if r.Checkpoint {
		return 64 + task.ContextBytes
	}
	return 64
}

// threadCreateReq asks a kernel to create a member thread (remote clone).
type threadCreateReq struct {
	GID    vm.GID
	Origin msg.NodeID
	// Recoverable marks the new member for checkpointed restart; the hosting
	// kernel's task carries it on every later migration.
	Recoverable bool
}

// threadCreateReply returns the new task's ID.
type threadCreateReply struct {
	TaskID task.ID
	Err    error
}

// groupSetupReq registers a replica kernel and/or membership changes with
// the origin.
type groupSetupReq struct {
	GID  vm.GID
	Node msg.NodeID
	// NewMember records a thread created on Node.
	NewMember task.ID
	// MovedMember records a thread that migrated to Node.
	MovedMember task.ID
	// Checkpoint piggybacks the moved member's migration payload so the
	// origin can refresh its restart checkpoint. Only set for recoverable
	// threads (the message grows by the context size).
	Checkpoint bool
	// MoveEpoch sequences MovedMember and ClaimMember requests against the
	// origin's accepted history for the member: a move registration must
	// carry a strictly newer epoch, a claim must match the current one.
	// Stale retransmits handled by a rebooted destination (whose dedup
	// window died with the crash) and rollbacks that lost the race against
	// a checkpointed restart are rejected here.
	MoveEpoch int
	// ClaimMember asks the origin, from a failed migration's source, for
	// permission to revive the member from its pre-migration shadow.
	ClaimMember task.ID
}

type groupSetupReply struct {
	Err error
	// Denied rejects a MovedMember or ClaimMember request whose epoch lost:
	// another incarnation of the thread owns the identity, so the requester
	// must discard its copy instead of running it.
	Denied bool
}

// migrateReq carries a thread's execution context to its new kernel.
type migrateReq struct {
	GID    vm.GID
	Origin msg.NodeID
	TaskID task.ID
	// Hops is the source task's own hop list, shipped by reference: the
	// source's task is a shadow until the reply, and a shadow's list is
	// never written. The destination copies it into its own task.
	Hops []int
	// Source is the kernel the thread leaves, the hop the destination adds.
	Source     int
	Migrations int
	// Pending carries the thread's undelivered signals to the new kernel.
	Pending []int
	// Recoverable travels with the thread: the destination must keep
	// refreshing the origin's restart checkpoint on later hops.
	Recoverable bool
}

type migrateReply struct {
	Task *task.Task
	Err  error
}

// exitReq reports a member exit to the origin (Reap=false) or reaps a
// shadow on a hop kernel (Reap=true).
type exitReq struct {
	GID    vm.GID
	TaskID task.ID
	Reap   bool
	// Ghost reaps an imported-but-never-registered local copy on the
	// destination of a migration whose move registration the origin
	// denied: the copy has no executor and must not be revivable.
	Ghost bool
}

// errReply answers an exit notification, a group exit or a signal.
type errReply struct {
	Err error
}

// groupExitReq tears down a replica's group state after the last member exit.
type groupExitReq struct {
	GID vm.GID
}
