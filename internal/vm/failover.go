package vm

// Origin failover for the address-space layer (DESIGN.md §14). When the
// failover plane is enabled, every committed mutation of an origin's
// authoritative state — directory-entry transitions and VMA layout changes —
// is synchronously mirrored to the origin's ring successor over
// TypeDirReplicate (control lane, so the flow plane cannot starve the
// replication stream). The replica set is not mirrored here: it travels in
// the thread-group layer's group snapshot. The successor keeps a passive
// standby copy per group; when the failure detector declares the origin
// dead, the thread-group layer's promotion pass calls Promote for each
// group, which rebuilds the authoritative space from the mirror and purges
// the dead kernel's page copies itself — so a crash with a live successor
// loses no directory-known page contents (vm.pages.reclaimed stays zero for
// the failed-over groups).

import (
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// kernelShift splits an ID into the kernel that allocated it (the high bits)
// and that kernel's local counter: no kernel asks another for a unique ID —
// the paper's answer to SMP Linux's global PID-map lock.
const kernelShift = 44

// NewGID returns the n-th ID of node's partition, for groups and tasks alike.
func NewGID(node msg.NodeID, n int64) GID { return GID(int64(node)<<kernelShift | n) }

// OriginKernelOf returns the kernel that allocated gid — the group's
// boot-time origin. IDs are partitioned by kernel (NewGID), so the original
// origin role is recoverable from the ID alone even after a failover
// re-homes the group. Epoch stamping keys on this role, not on the current
// holder.
func OriginKernelOf(gid GID) msg.NodeID {
	return msg.NodeID(int64(gid) >> kernelShift)
}

// Replication record kinds carried by dirRepl.
const (
	// replEntry ships the post-transaction snapshot of one directory entry.
	replEntry = 1
	// replLayout ships one committed VMA layout mutation plus the allocator
	// cursors (nextMap, brk) needed to continue allocation after promotion.
	replLayout = 2
	// replValue patches a mirrored entry's value without touching its
	// protocol state: a revokee preserving the Modified copy it is about to
	// surrender, in case the revoking origin dies with the ack in flight.
	replValue = 3
)

// dirRepl is one origin-side mutation shipped to the successor. Exactly one
// of the kind-specific field groups is meaningful, selected by Kind.
type dirRepl struct {
	Kind int
	GID  GID

	// replEntry: the page and its entry's full post-transaction state.
	// replValue: the page, Entry.value and the Entry.version it belongs to.
	VPN   mem.VPN
	Entry dirState

	// replLayout: the committed change, stamped with its layout version, and
	// the allocator cursors needed to continue allocation after promotion.
	Layout  vmaUpdate
	NextMap mem.Addr
	Brk     mem.Addr
}

// dirMirror is the successor's standby copy of one origin's space: enough
// directory and layout state to rebuild an authoritative Space if the
// origin dies.
type dirMirror struct {
	entries mem.Radix[dirState]
	layout  Layout
}

// shipRepl synchronously mirrors one record of this origin's own state to its
// ring successor.
func (s *Service) shipRepl(p *sim.Proc, rep dirRepl) {
	s.metrics.Counter("dir.failover.replicated").Inc()
	s.shipTo(p, s.fabric.Successor(s.node), rep)
}

// shipTo delivers one replication record to succ, the mirror's host
// (msg.Kind.Replicate). A dead successor skips the record and the origin
// keeps running unreplicated — counted, so soaks can assert the window was
// empty.
func (s *Service) shipTo(p *sim.Proc, succ msg.NodeID, rep dirRepl) {
	if !dirReplicate.Replicate(p, s.ep, succ, OriginKernelOf(rep.GID), &rep) {
		s.metrics.Counter("dir.failover.skipped").Inc()
	}
}

// shipDirEntry mirrors one directory entry's post-transaction state to the
// successor. Called under the entry's mu (and the asLock shared), which
// serialises the per-entry replication stream; the handler side applies
// records in version order, so a fault-plan duplicate can never roll the
// mirror backwards.
func (sp *Space) shipDirEntry(p *sim.Proc, vpn mem.VPN, de *dirEntry) {
	sp.svc.shipRepl(p, dirRepl{Kind: replEntry, GID: sp.gid, VPN: vpn, Entry: de.dirState})
}

// shipLayout mirrors one committed layout change to the successor. Called
// under the asLock exclusive — the same lock that assigned the version — so
// the layout replication stream arrives in version order.
func (sp *Space) shipLayout(p *sim.Proc, u vmaUpdate) {
	sp.svc.shipRepl(p, dirRepl{
		Kind: replLayout, GID: sp.gid, Layout: u, NextMap: sp.layout.nextMap, Brk: sp.layout.brk,
	})
}

// shipSurrender preserves a surrendered Modified value at the holder's ring
// successor before the invalidation ack releases it to the (possibly dying)
// origin. Called from the invalidate handler on the revokee: the revoking
// transaction is blocked on our ack, so by the time the origin can commit —
// and therefore by the time a crash can lose the commit's own replEntry ship
// — the value is already durable in the mirror. The transaction's directory
// version guards the patch, so fault-plan duplicates can never roll a newer
// mirrored value backwards.
func (s *Service) shipSurrender(p *sim.Proc, gid GID, vpn mem.VPN, val int64, ver uint64) {
	succ := s.fabric.Successor(s.fabric.OriginHolder(OriginKernelOf(gid)))
	rep := dirRepl{Kind: replValue, GID: gid, VPN: vpn, Entry: dirState{value: val, version: uint32(ver)}}
	s.metrics.Counter("dir.failover.preserved").Inc()
	if succ == s.node {
		// The revokee is the mirror host itself; patch in place.
		s.applyRepl(&rep)
		return
	}
	s.shipTo(p, succ, rep)
}

// handleDirReplicate stores one replication record into this kernel's
// mirror for the group. Pure state installation: no locks, no outbound
// messages, so the origin's synchronous ship can never deadlock against it.
func (s *Service) handleDirReplicate(_ *sim.Proc, _ msg.NodeID, rep *dirRepl) struct{} {
	s.applyRepl(rep)
	return struct{}{}
}

// applyRepl installs one replication record into the mirror for its group,
// creating the mirror on first contact. Shared by the wire handler and the
// revokee-is-successor local path of shipSurrender.
func (s *Service) applyRepl(rep *dirRepl) {
	mir, ok := s.mirrors[rep.GID]
	if !ok {
		mir = &dirMirror{layout: NewLayout()}
		s.mirrors[rep.GID] = mir
	}
	switch rep.Kind {
	case replEntry:
		if old, dup := mir.entries.Lookup(rep.VPN); dup && rep.Entry.version <= old.version {
			break // fault-plan duplicate of an already-applied record
		}
		mir.entries.Set(rep.VPN, rep.Entry)
	case replLayout:
		u := rep.Layout
		if u.Version <= mir.layout.version {
			break // duplicate: the stream is Call-serialised, never reordered
		}
		mir.layout.vmas.apply(u)
		if u.Op == OpUnmap {
			mir.entries.DeleteRange(u.Lo, u.Hi)
		}
		mir.layout.version, mir.layout.nextMap, mir.layout.brk = u.Version, rep.NextMap, rep.Brk
	case replValue:
		// Patch the value, leaving state/owner/version alone: the origin's
		// own replEntry for the same transaction (same version) must still
		// apply over this if the origin survives to ship it.
		st, ok := mir.entries.Lookup(rep.VPN)
		switch {
		case !ok:
			// No entry was ever shipped (possible only if the grant that made
			// the revokee owner raced a successor change): keep the value as
			// a reclaimed-style entry so promotion transfers it.
			mir.entries.Set(rep.VPN, dirState{state: pageUnmapped, reclaimed: true, value: rep.Entry.value})
		case rep.Entry.version > st.version:
			st.value = rep.Entry.value
			mir.entries.Set(rep.VPN, st)
		}
	}
	s.metrics.Counter("dir.failover.applied").Inc()
}

// Promote makes this kernel the authoritative origin of gid, whose origin
// `dead` crashed. The thread-group layer's promotion pass calls it for each
// group it promotes and then registers the group snapshot's replica set, the
// only replicated copy of it. With a mirror, the space is rebuilt from it:
// this kernel's replica (or a fresh space, if no member ever ran here)
// becomes the origin copy, and the dead kernel's page copies are purged from
// the directory (under dir.failover.ownerlost, keeping the last written-back
// values), so the PeerDied reclaim sweep has nothing to lose on it. Without
// one — a group that crashed before its first directory or layout commit —
// it makes an empty origin space. Pure state rebuild, no blocking: the
// promotion is atomic in virtual time.
func (s *Service) Promote(gid GID, dead msg.NodeID) {
	mir, ok := s.mirrors[gid]
	if !ok {
		if sp, ok := s.spaces[gid]; !ok || !sp.isOrigin {
			s.makeOrigin(gid)
		}
		return
	}
	delete(s.mirrors, gid)
	s.metrics.Counter("dir.failover.promoted").Inc()
	sp := s.makeOrigin(gid)
	version := max(sp.layout.version, mir.layout.version)
	// The promoted layout takes over the mirror's backing arrays (areas and
	// remove's scratch). That is safe only because the mirror was deleted
	// above: nothing else can reach them.
	sp.layout = mir.layout
	sp.layout.version = version
	for vpn, st := range mir.entries.All {
		de := &dirEntry{dirState: st}
		de.mu.SetLabel(&dirEntryLabel)
		de.nextVersion()
		// Purge the dead kernel from the entry here, keeping the directory's
		// last written-back value: the promoted grant path re-faults it from
		// the home node, which is exactly the data loss the replication log
		// exists to prevent. Writes the dead origin performed against its own
		// copies *after* its last directory transaction are gone with it —
		// the log captures directory-known state, not page dirty bits.
		if de.loseCopies(dead) {
			s.metrics.Counter("dir.failover.ownerlost").Inc()
		}
		sp.dir.Set(vpn, de)
	}
}

// Retarget re-points this kernel's replica of gid at the promoted holder.
// Called from the thread-group layer when a TypeOriginHandover announcement
// arrives; origin spaces (including the freshly promoted one) are left
// alone.
func (s *Service) Retarget(gid GID, holder msg.NodeID) {
	if sp, ok := s.spaces[gid]; ok && !sp.isOrigin {
		sp.origin = holder
	}
}

// DropMirror discards this kernel's replication mirror for gid. The
// thread-group layer calls it when the origin ships a group's final
// (exited) snapshot: a torn-down group must not stay promotable.
func (s *Service) DropMirror(gid GID) {
	delete(s.mirrors, gid)
}
