package msg

// Origin failover plane (DESIGN.md §14). Each kernel's origin roles — the
// page-directory entries and thread-group metadata it is authoritative
// for — are mirrored to a deterministically chosen successor kernel over
// TypeDirReplicate/TypeGroupReplicate. When the failure detector declares
// the origin dead, the successor promotes itself under a new origin-epoch
// and announces TypeOriginHandover; the fabric tracks (epoch, holder) per
// original origin kernel so stale-epoch traffic — including anything a
// rejoining old origin still has in flight from before its crash — is
// fenced at delivery the way dead-incarnation traffic already is.

import "time"

// EnableFailover attaches the fabric's origin-failover plane: per-kernel
// origin-epoch and holder tables, epoch stamping of origin-addressed
// RPCs, and the stale-origin delivery fence. Call after boot, before the
// workload runs. A detached fabric pays one nil check per delivery and
// behaves exactly as before.
func (f *Fabric) EnableFailover() {
	if f.originEpoch != nil {
		return
	}
	f.originEpoch = make([]uint64, len(f.endpoints))
	f.originHolder = make([]NodeID, len(f.endpoints))
	for i := range f.endpoints {
		f.originEpoch[i] = 1
		f.originHolder[i] = NodeID(i)
	}
}

// Failover reports whether the origin-failover plane is attached: the one
// switch the services' replication and promotion paths read.
func (f *Fabric) Failover() bool { return f.originEpoch != nil }

// FailoverRetryDelay paces the services' retries against a dead origin
// while the detection-plus-promotion window runs.
const FailoverRetryDelay = 200 * time.Microsecond

// Successor returns the deterministically chosen replication successor for
// kernel n's origin roles: the next kernel in ring order. Every kernel
// computes the same answer locally, so no agreement protocol is needed to
// know where a given origin's log ships.
func (f *Fabric) Successor(n NodeID) NodeID {
	return NodeID((int(n) + 1) % len(f.endpoints))
}

// OriginHolder returns the kernel currently serving origin roles that
// kernel `role` owned at boot: role itself until a failover, then the
// promoted successor. With the failover plane detached it is the identity.
func (f *Fabric) OriginHolder(role NodeID) NodeID {
	if f.originEpoch == nil {
		return role
	}
	return f.originHolder[role]
}

// stampOrigin stamps m as origin-role traffic for `role` under the current
// epoch, unless role is NoRole. First-wins, like the incarnation stamps: a
// retransmitted copy keeps the epoch it was first prepared under, so copies
// that straddle a promotion are fenced instead of mutating the successor's
// state.
//
//popcornvet:hotpath
func (f *Fabric) stampOrigin(m *Message, role NodeID) {
	if f.originEpoch == nil || role == NoRole || m.OriginEpoch != 0 {
		return
	}
	m.OriginNode = role
	m.OriginEpoch = f.originEpoch[role]
}

// Promote records that `holder` now serves kernel `role`'s origin roles,
// under a bumped origin-epoch, and returns the new epoch. The promoting
// successor is the table's only writer. Idempotent per (role, holder) pair:
// promoting the current holder again does not bump the epoch, so the
// successor calls it once per promoted group.
func (f *Fabric) Promote(role, holder NodeID) uint64 {
	if f.originEpoch == nil {
		return 0
	}
	if f.originHolder[role] == holder {
		return f.originEpoch[role]
	}
	f.originHolder[role] = holder
	f.originEpoch[role]++
	f.metrics.Counter("msg.failover.promotions").Inc()
	return f.originEpoch[role]
}

// RecordDirCommit counts one directory-transaction commit at kernel n
// against the fault plan's protocol-relative origin-crash triggers and
// schedules any it arms — the replication-plane mirror of dispatchWire's
// TypeCrash arming. Services call it at each dirTransaction commit; a
// fabric without a plan (or a plan without OriginCrashes) pays a nil
// check.
func (f *Fabric) RecordDirCommit(n NodeID) {
	if f.plan == nil {
		return
	}
	for _, oc := range f.plan.RecordDirCommit(int(n)) {
		f.armCrash(NodeID(oc.Node), oc.After)
	}
}
