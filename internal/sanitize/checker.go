// Package sanitize is the simulator's dynamic checking arm: a coherence
// sanitizer and happens-before race detector for the replicated-kernel DSM
// protocol. It shadows every page grant, revoke and access the vm layer
// performs, maintains vector clocks over the engine's scheduling and
// message edges, and reports violations with the page's own protocol
// history attached. Nothing here affects protocol behaviour: detached, the
// hooks cost one nil-check; attached, the checker only observes.
//
// See DESIGN.md §"Memory-model checking" for the model and cmd/popcornmc
// for seeded schedule exploration built on top.
package sanitize

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// rights is the copy a kernel may legally hold of a page.
type rights uint8

const (
	rRead rights = 1 << iota
	rWrite
)

type pageKey struct {
	gid int64
	vpn mem.VPN
}

// accessor is the last-writer / last-reader shadow state of one page plus
// the sanitizer's authoritative copy of its content.
type pageShadow struct {
	// holders mirrors the directory: which kernels may hold this page and
	// with what rights. Maintained from the origin's grant decisions and
	// the revoked kernels' invalidation acks.
	holders map[msg.NodeID]rights
	// value is the last value written anywhere; valueKnown gates the
	// stale-read comparison until the first grant or write defines it.
	value      int64
	valueKnown bool

	// Race-detector shadow: the last write epoch and the read epochs since.
	lastWrite     epoch
	lastWriteName string
	readers       map[int64]epoch
	readerNames   map[int64]string

	// history is a ring of the page's last maxEvents protocol records;
	// recorded counts every record ever made, so recorded%maxEvents is the
	// next slot.
	history  [maxEvents]record
	recorded int
}

// record appends one protocol step to the page's history ring, overwriting
// the oldest once the ring is full.
func (sh *pageShadow) record(r record) {
	sh.history[sh.recorded%maxEvents] = r
	sh.recorded++
}

// events returns the page's retained history, oldest first.
func (sh *pageShadow) events() []record {
	var out []record
	for i := max(sh.recorded-maxEvents, 0); i < sh.recorded; i++ {
		out = append(out, sh.history[i%maxEvents])
	}
	return out
}

type msgKey struct {
	from, to msg.NodeID
	seq      uint64
	reply    bool
}

// Config tunes a Checker.
type Config struct {
	// FailFast makes coherence violations panic in the offending proc
	// (unwound by the engine into a run failure) instead of only being
	// recorded. Race reports are never fail-fast: they are filtered against
	// inferred synchronisation addresses at the end of the run.
	FailFast bool
}

// maxEvents caps the protocol history each page keeps, and so the history
// attached per violation.
const maxEvents = 12

// Checker is the dynamic protocol checker. Wire one in with
// Engine.SetProcObserver, Fabric.SetObserver and each service's
// AttachChecker (core.OS.AttachSanitizer does all of it). All methods run
// on the engine loop; the Checker is not safe for use from other
// goroutines.
type Checker struct {
	e   sim.Engine
	cfg Config

	pages  map[pageKey]*pageShadow
	procs  map[int64]VC
	msgs   map[msgKey]VC
	locks  map[any]VC
	syncVC map[pageKey]VC
	// syncAddrs are addresses used with atomics or futexes: accesses to
	// them synchronise instead of racing.
	syncAddrs map[pageKey]bool
	// layout is the per-(kernel, group) high-water layout version.
	layout map[struct {
		node msg.NodeID
		gid  int64
	}]uint64

	// dead marks crashed kernels between NodeCrashed and NodeHealed:
	// grants addressed to them never install (the reply dies with the
	// wire), so recording them as holders would plant phantoms the crash
	// sweep has already run too early to clear.
	dead map[msg.NodeID]bool

	violations []*Violation
	candidates map[pageKey]*Violation
}

// New returns a checker bound to e.
func New(e sim.Engine, cfg Config) *Checker {
	return &Checker{
		e:         e,
		cfg:       cfg,
		pages:     make(map[pageKey]*pageShadow),
		procs:     make(map[int64]VC),
		msgs:      make(map[msgKey]VC),
		locks:     make(map[any]VC),
		syncVC:    make(map[pageKey]VC),
		syncAddrs: make(map[pageKey]bool),
		dead:      make(map[msg.NodeID]bool),
		layout: make(map[struct {
			node msg.NodeID
			gid  int64
		}]uint64),
		candidates: make(map[pageKey]*Violation),
	}
}

// Violations returns the coherence violations recorded so far.
func (c *Checker) Violations() []*Violation { return c.violations }

// Races returns the race reports that survive synchronisation-address
// filtering: a candidate on a page later used with atomics or futexes is
// discarded, because accesses to synchronisation words are ordered by the
// protocol itself (a barrier's spin-read of its sense word is not a race).
// Call it after the run completes.
func (c *Checker) Races() []*Violation {
	var out []*Violation
	for k, v := range c.candidates {
		if !c.syncAddrs[k] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// Report renders every violation and surviving race, or "" if clean.
func (c *Checker) Report() string {
	var b strings.Builder
	for _, v := range c.violations {
		fmt.Fprintf(&b, "%s\n", v)
	}
	for _, v := range c.Races() {
		fmt.Fprintf(&b, "%s\n", v)
	}
	return b.String()
}

func (c *Checker) shadow(k pageKey) *pageShadow {
	sh, ok := c.pages[k]
	if !ok {
		sh = &pageShadow{
			holders:     make(map[msg.NodeID]rights),
			readers:     make(map[int64]epoch),
			readerNames: make(map[int64]string),
		}
		c.pages[k] = sh
	}
	return sh
}

// vc returns p's clock, creating it at (p: 1) on first sight.
func (c *Checker) vc(p *sim.Proc) VC {
	v, ok := c.procs[p.ID()]
	if !ok {
		v = VC{p.ID(): 1}
		c.procs[p.ID()] = v
	}
	return v
}

// violate records a coherence violation with the page's protocol history
// attached, adds it to that history, and (under FailFast) panics in the
// offending proc.
func (c *Checker) violate(kind string, node msg.NodeID, gid int64, vpn mem.VPN, format string, args ...any) {
	sh := c.shadow(pageKey{gid, vpn})
	v := &Violation{
		Kind: kind, At: c.e.Now(), Node: int(node),
		GID: gid, VPN: vpn,
		Detail:  fmt.Sprintf(format, args...),
		history: sh.events(),
	}
	c.violations = append(c.violations, v)
	sh.record(record{at: v.At, kind: "san.violation", node: node, v: v})
	if c.cfg.FailFast {
		panic(v)
	}
}

// candidate records a possible race on k; the first report per page wins,
// and the decision whether it is real is deferred to Races().
func (c *Checker) candidate(k pageKey, node msg.NodeID, format string, args ...any) {
	if _, dup := c.candidates[k]; dup {
		return
	}
	c.candidates[k] = &Violation{
		Kind: "race", At: c.e.Now(), Node: int(node),
		GID: k.gid, VPN: k.vpn,
		Detail:  fmt.Sprintf(format, args...),
		history: c.pages[k].events(),
	}
}

// ---- sim.ProcObserver ------------------------------------------------

// ProcStarted gives the child the parent's view: spawn is a release/acquire
// pair.
func (c *Checker) ProcStarted(parent, child *sim.Proc) {
	if parent == nil {
		return
	}
	pv := c.vc(parent)
	pv.tick(parent.ID())
	cv := pv.clone()
	cv.tick(child.ID())
	c.procs[child.ID()] = cv
}

// ProcWoken is the wake-graph edge: whoever made a blocked proc runnable
// (mutex handoff, cond signal, futex wake, RPC completion) happens-before
// the proc's next step.
func (c *Checker) ProcWoken(waker, woken *sim.Proc) {
	if waker == nil {
		return
	}
	wv := c.vc(waker)
	wv.tick(waker.ID())
	c.vc(woken).join(wv)
}

// ProcFinished drops the proc's clock; recorded epochs stay valid because
// pids are never reused.
func (c *Checker) ProcFinished(p *sim.Proc) {
	delete(c.procs, p.ID())
}

// SyncAcquire/SyncRelease order critical sections on the same sim lock.
func (c *Checker) SyncAcquire(p *sim.Proc, key any) {
	if lv, ok := c.locks[key]; ok {
		c.vc(p).join(lv)
	}
}

func (c *Checker) SyncRelease(p *sim.Proc, key any) {
	pv := c.vc(p)
	pv.tick(p.ID())
	lv, ok := c.locks[key]
	if !ok {
		lv = VC{}
		c.locks[key] = lv
	}
	lv.join(pv)
}

// LockRetired forgets the clock of a lock its owner drops for good (vm's
// directory entries and address-space lock, at unmap and group exit). The
// clock is keyed by the lock's address, so keeping it would keep the lock's
// record alive for the rest of the run.
func (c *Checker) LockRetired(key any) {
	if c == nil {
		return
	}
	delete(c.locks, key)
}

// ---- msg.Observer ----------------------------------------------------

// MsgSent snapshots the sender's clock onto the message.
func (c *Checker) MsgSent(p *sim.Proc, m *msg.Message) {
	pv := c.vc(p)
	pv.tick(p.ID())
	c.msgs[msgKey{m.From, m.To, m.Seq, m.IsReply}] = pv.clone()
}

// MsgDelivered joins the message's clock into the receiving proc — the
// handler proc for requests, the RPC waiter for replies.
func (c *Checker) MsgDelivered(p *sim.Proc, m *msg.Message) {
	k := msgKey{m.From, m.To, m.Seq, m.IsReply}
	if mv, ok := c.msgs[k]; ok {
		c.vc(p).join(mv)
		delete(c.msgs, k)
	}
}

// NodeCrashed forgets a crashed kernel's holdings: every page copy it held
// vanishes with it, and a page it held writable loses its known value (the
// dead kernel's un-written-back stores are gone, so the next grant after
// ownership reclaim defines the value afresh). In-flight message clocks to
// or from the dead kernel are dropped — those messages will never deliver.
func (c *Checker) NodeCrashed(node msg.NodeID) {
	if c == nil {
		return
	}
	c.dead[node] = true
	keys := make([]pageKey, 0, len(c.pages))
	for k := range c.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].gid != keys[j].gid {
			return keys[i].gid < keys[j].gid
		}
		return keys[i].vpn < keys[j].vpn
	})
	for _, k := range keys {
		sh := c.pages[k]
		r, held := sh.holders[node]
		if !held {
			continue
		}
		delete(sh.holders, node)
		if r&rWrite != 0 {
			sh.valueKnown = false
		}
		sh.record(record{at: c.e.Now(), kind: "san.crash-reclaim", node: node, value: int64(r)})
	}
	for k := range c.msgs {
		if k.from == node || k.to == node {
			delete(c.msgs, k)
		}
	}
}

// NodeHealed marks a rebooted kernel live again. The fresh incarnation
// boots with no page copies (NodeCrashed forgot the old ones), so grants
// to it are real again from here on.
func (c *Checker) NodeHealed(node msg.NodeID) {
	if c == nil {
		return
	}
	delete(c.dead, node)
}

// ---- coherence hooks (called by internal/vm) -------------------------

// Grant records the origin's decision to hand to a copy of (gid, vpn).
// fresh means the grant ships page content (value is meaningful); a
// have-copy re-grant does not. lost means the requesting incarnation of to
// is gone (it rebooted since it asked), so the grant is never installed.
// Exclusive grants while any other kernel holds a copy, shared grants while
// a writer holds one, and grants shipping a value different from the
// sanitizer's shadow all fail.
func (c *Checker) Grant(p *sim.Proc, gid int64, vpn mem.VPN, to msg.NodeID, exclusive, fresh bool, value int64, lost bool) {
	if c == nil {
		return
	}
	k := pageKey{gid, vpn}
	sh := c.shadow(k)
	// Conflicting holders are counted first — the common grant has none and
	// allocates nothing — and reported in node order, so a multi-holder
	// violation names the same kernel first on every run.
	conflicts := 0
	for n, r := range sh.holders {
		if n != to && (exclusive || r&rWrite != 0) {
			conflicts++
		}
	}
	if conflicts > 0 {
		for _, n := range slices.Sorted(maps.Keys(sh.holders)) {
			switch r := sh.holders[n]; {
			case n == to:
			case exclusive:
				c.violate("single-writer", to, gid, vpn,
					"exclusive grant of %s to k%d while k%d still holds a copy (rights=%d)",
					pageToken(gid, vpn), to, n, r)
			case r&rWrite != 0:
				c.violate("single-writer", to, gid, vpn,
					"shared grant of %s to k%d while k%d holds the page writable",
					pageToken(gid, vpn), to, n)
			}
		}
	}
	if c.dead[to] || lost {
		// The grantee died while its request was being served, or died and
		// rebooted: the reply commits to a deleted wire or is fenced at the
		// new incarnation, and the copy is never installed. The crash sweep
		// already ran, so recording the holder here would leave a phantom
		// copy that blocks every later exclusive grant.
		sh.record(record{at: c.e.Now(), kind: "san.grant-dead", node: to})
		return
	}
	if fresh {
		if sh.valueKnown && value != sh.value {
			c.violate("stale-read", to, gid, vpn,
				"grant of %s to k%d carries stale value %d; last write was %d",
				pageToken(gid, vpn), to, value, sh.value)
		}
		sh.value = value
		sh.valueKnown = true
	}
	if exclusive {
		sh.holders[to] = rRead | rWrite
	} else {
		sh.holders[to] |= rRead
	}
	sh.record(record{at: c.e.Now(), kind: "san.grant", node: to, a: exclusive, b: fresh, value: value})
}

// Revoked records that the origin collected kernel at's invalidation ack
// (downgrade strips write; full invalidation drops the copy). A revoked
// copy whose written-back value disagrees with the shadow means a write was
// lost. The call is made at the origin on ack receipt, not at the revokee:
// a revokee that dies with its ack in flight never commits here, so its
// shadow holding stays writable until NodeCrashed forgets it — which also
// un-defines the value, accepting the directory's degraded older copy.
func (c *Checker) Revoked(p *sim.Proc, gid int64, vpn mem.VPN, at msg.NodeID, downgrade, hadCopy bool, value int64) {
	if c == nil {
		return
	}
	k := pageKey{gid, vpn}
	sh := c.shadow(k)
	if hadCopy && sh.valueKnown && value != sh.value {
		c.violate("lost-writeback", at, gid, vpn,
			"invalidation ack from k%d writes back %d, sanitizer shadow has %d",
			at, value, sh.value)
	}
	if downgrade && hadCopy {
		if r, ok := sh.holders[at]; ok {
			sh.holders[at] = r &^ rWrite
		}
	} else {
		// A full invalidation drops the copy. So does a downgrade ack
		// without a copy: the kernel had nothing to keep — its grant was
		// still in flight and will be discarded as stale — and the
		// directory likewise drops it from the sharer set.
		delete(sh.holders, at)
	}
	sh.record(record{at: c.e.Now(), kind: "san.revoke", node: at, a: downgrade, b: hadCopy, value: value})
}

// Unmapped forgets the shadow state for pages in [lo, hi): the origin
// removed them from the address space.
func (c *Checker) Unmapped(gid int64, lo, hi mem.VPN) {
	if c == nil {
		return
	}
	for vpn := lo; vpn < hi; vpn++ {
		k := pageKey{gid, vpn}
		delete(c.pages, k)
		delete(c.candidates, k)
		delete(c.syncVC, k)
		delete(c.syncAddrs, k)
	}
}

// LayoutApplied checks that a kernel's applied layout version for gid never
// goes backwards.
func (c *Checker) LayoutApplied(node msg.NodeID, gid int64, version uint64) {
	if c == nil {
		return
	}
	k := struct {
		node msg.NodeID
		gid  int64
	}{node, gid}
	if prev := c.layout[k]; version < prev {
		c.violate("version-regress", node, gid, 0,
			"layout version on k%d went backwards: %d after %d", node, version, prev)
		return
	}
	c.layout[k] = version
}

// ---- access hooks (called at vm's linearisation point) ---------------

// AccessRead checks a committed read: the kernel must hold a copy and the
// observed value must match the shadow (a mismatch means the kernel read a
// version that an acked invalidation should have destroyed).
func (c *Checker) AccessRead(p *sim.Proc, node msg.NodeID, gid int64, vpn mem.VPN, value int64) {
	if c == nil {
		return
	}
	k := pageKey{gid, vpn}
	sh := c.shadow(k)
	if sh.holders[node]&rRead == 0 {
		c.violate("no-grant", node, gid, vpn,
			"k%d read %s without a granted copy", node, pageToken(gid, vpn))
	}
	if sh.valueKnown && value != sh.value {
		c.violate("stale-read", node, gid, vpn,
			"k%d read %d from %s; last write was %d (stale copy survived invalidation)",
			node, value, pageToken(gid, vpn), sh.value)
	}
	c.raceRead(p, node, k, sh)
}

// AccessWrite checks a committed write: the kernel must hold the page
// writable and no other kernel may.
func (c *Checker) AccessWrite(p *sim.Proc, node msg.NodeID, gid int64, vpn mem.VPN, value int64) {
	if c == nil {
		return
	}
	k := pageKey{gid, vpn}
	sh := c.shadow(k)
	c.checkWriteRights(node, gid, vpn, sh)
	sh.value = value
	sh.valueKnown = true
	c.raceWrite(p, node, k, sh)
}

// AccessRMW checks a committed atomic (CompareAndSwap, FetchAdd): write
// rights are required even when the CAS fails, the observed old value must
// match the shadow, and the address becomes a synchronisation word — its
// accesses order instead of race.
func (c *Checker) AccessRMW(p *sim.Proc, node msg.NodeID, gid int64, vpn mem.VPN, old, new int64, wrote bool) {
	if c == nil {
		return
	}
	k := pageKey{gid, vpn}
	sh := c.shadow(k)
	c.checkWriteRights(node, gid, vpn, sh)
	if sh.valueKnown && old != sh.value {
		c.violate("stale-read", node, gid, vpn,
			"k%d atomic read %d from %s; last write was %d (stale copy survived invalidation)",
			node, old, pageToken(gid, vpn), sh.value)
	}
	if wrote {
		sh.value = new
		sh.valueKnown = true
	}
	c.syncAccess(p, k)
}

func (c *Checker) checkWriteRights(node msg.NodeID, gid int64, vpn mem.VPN, sh *pageShadow) {
	if sh.holders[node]&rWrite == 0 {
		c.violate("single-writer", node, gid, vpn,
			"k%d wrote %s without an exclusive grant", node, pageToken(gid, vpn))
	}
	// Sorted so a multi-holder violation reports the same kernel first on
	// every run.
	for _, n := range slices.Sorted(maps.Keys(sh.holders)) {
		if n != node && sh.holders[n]&rWrite != 0 {
			c.violate("single-writer", node, gid, vpn,
				"k%d wrote %s while k%d also holds it writable", node, pageToken(gid, vpn), n)
		}
	}
}

// SyncOp marks an address as a synchronisation word (futex wait/wake/
// requeue target) and orders the calling proc through it.
func (c *Checker) SyncOp(p *sim.Proc, gid int64, vpn mem.VPN) {
	if c == nil {
		return
	}
	c.syncAccess(p, pageKey{gid, vpn})
}

// syncAccess gives an access to a synchronisation word acquire+release
// semantics on the word's clock.
func (c *Checker) syncAccess(p *sim.Proc, k pageKey) {
	c.syncAddrs[k] = true
	pv := c.vc(p)
	av, ok := c.syncVC[k]
	if !ok {
		av = VC{}
		c.syncVC[k] = av
	}
	pv.join(av)
	pv.tick(p.ID())
	av.join(pv)
}

func (c *Checker) raceRead(p *sim.Proc, node msg.NodeID, k pageKey, sh *pageShadow) {
	if c.syncAddrs[k] {
		c.syncAccess(p, k)
		return
	}
	pv := c.vc(p)
	if sh.lastWrite.pid != p.ID() && !pv.covers(sh.lastWrite) {
		c.candidate(k, node, "unsynchronized read of %s by %q on k%d conflicts with write by %q",
			pageToken(k.gid, k.vpn), p.Name(), node, sh.lastWriteName)
	}
	sh.readers[p.ID()] = epoch{pid: p.ID(), t: pv[p.ID()]}
	sh.readerNames[p.ID()] = p.Name()
}

func (c *Checker) raceWrite(p *sim.Proc, node msg.NodeID, k pageKey, sh *pageShadow) {
	if c.syncAddrs[k] {
		c.syncAccess(p, k)
		return
	}
	pv := c.vc(p)
	if sh.lastWrite.pid != p.ID() && !pv.covers(sh.lastWrite) {
		c.candidate(k, node, "unsynchronized write of %s by %q on k%d conflicts with write by %q",
			pageToken(k.gid, k.vpn), p.Name(), node, sh.lastWriteName)
	}
	// Sorted so a write conflicting with several readers reports them in
	// the same order on every run.
	for _, pid := range slices.Sorted(maps.Keys(sh.readers)) {
		if pid != p.ID() && !pv.covers(sh.readers[pid]) {
			c.candidate(k, node, "unsynchronized write of %s by %q on k%d conflicts with read by %q",
				pageToken(k.gid, k.vpn), p.Name(), node, sh.readerNames[pid])
		}
	}
	sh.lastWrite = epoch{pid: p.ID(), t: pv[p.ID()]}
	sh.lastWriteName = p.Name()
	sh.readers = make(map[int64]epoch)
	sh.readerNames = make(map[int64]string)
}

// ---- threadgroup hooks -----------------------------------------------

// ThreadMigrated advances the migrating proc's clock across the kernel
// boundary.
func (c *Checker) ThreadMigrated(p *sim.Proc) {
	if c == nil {
		return
	}
	c.vc(p).tick(p.ID())
}

// ThreadExited advances the exiting proc's clock; its exit notification
// message carries the final view to the origin.
func (c *Checker) ThreadExited(p *sim.Proc, gid int64, id int64, node msg.NodeID) {
	if c == nil {
		return
	}
	c.vc(p).tick(p.ID())
}
