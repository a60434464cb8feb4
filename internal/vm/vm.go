// Package vm implements the paper's address-space consistency layer: each
// distributed thread group has one authoritative address space at its
// origin kernel and cached replicas on every other kernel hosting group
// members. Layout changes (mmap/munmap/mprotect) are coordinated by the
// origin and pushed to replicas; page contents move on demand under an
// MSI-style ownership protocol with a directory at the origin.
package vm

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/stats"
)

// GID identifies a distributed thread group (the SSI process) machine-wide.
type GID int64

// Errors reported by address-space operations.
var (
	// ErrSegv is returned for accesses to unmapped addresses.
	ErrSegv = errors.New("vm: segmentation fault (no mapping)")
	// ErrAccess is returned for accesses that violate the VMA protection.
	ErrAccess = errors.New("vm: access violates protection")
	// ErrNoSpace is returned when the hosting kernel's frame partition is
	// exhausted.
	ErrNoSpace = errors.New("vm: out of physical frames")
	// ErrBadRange is returned for unaligned or empty ranges.
	ErrBadRange = errors.New("vm: bad address range")
)

// FrameSource abstracts the hosting kernel's physical allocator so the
// kernel layer can charge its allocation-lock costs (the SMP baseline
// charges a contended zone lock here; the replicated kernel a local one).
type FrameSource interface {
	// AllocFrame returns a frame and its home NUMA node.
	AllocFrame(p *sim.Proc) (mem.FrameID, int, error)
	// FreeFrame returns a frame to the pool.
	FreeFrame(p *sim.Proc, f mem.FrameID)
}

// pageState is the directory state of one page; a byte, so it packs beside
// dirState.reclaimed.
type pageState uint8

const (
	// pageUnmapped: no kernel holds a copy.
	pageUnmapped pageState = iota
	// pageShared: one or more kernels hold read-only copies.
	pageShared
	// pageModified: exactly one kernel holds a writable copy.
	pageModified
)

// dirEntry is the origin's directory record for one page: its protocol state
// (24 B) and its mutex (40 B) in one 64 B allocation. Every first-touched
// page pays for one, so nothing else lives here: a transaction's scratch
// comes off the Service. An entry is never recycled — the sanitizer keys
// lock clocks by mutex identity, so a reused mutex would hand a new page the
// old page's clock, a happens-before edge that is not there; vm tells the
// sanitizer when it drops an entry, and the clock goes with it. A sweep that
// snapshotted an entry before the page was unmapped (PeerDied) locks the
// dropped entry, which nothing else reaches any more.
type dirEntry struct {
	dirState
	// mu serialises directory transactions for this page.
	mu sim.Mutex
}

// dirEntryLabel names every directory entry's mutex in deadlock reports.
var dirEntryLabel = "vm.dir-entry"

// dirState is a directory entry's protocol state: what a transaction commits,
// what the failover plane ships to the successor's mirror, and what a
// promotion rebuilds the directory from.
type dirState struct {
	// value is the origin's record of the page contents as of the last
	// write-back or shared grant; authoritative while state != pageModified.
	value int64
	// sharers holds the kernels with read copies (pageShared only).
	sharers nodeMask
	// version counts directory transactions on this page; grants and
	// revocations carry it so replicas can order a late grant against the
	// invalidation that overtook it (see pageGrant.Version). 32 bits are
	// four billion transactions on one page; nextVersion panics past them.
	version uint32
	// own is the kernel holding the modified copy (pageModified only), in a
	// byte: MaxKernels fits. See owner.
	own   uint8
	state pageState
	// reclaimed marks an entry whose last copies were lost when the kernel
	// holding them crashed; the next grant faults the directory's value back
	// from the home node instead of zero-filling.
	reclaimed bool
}

// owner returns the kernel holding the modified copy (pageModified only).
func (d *dirState) owner() msg.NodeID { return msg.NodeID(d.own) }

// setOwner records n as the kernel holding the modified copy.
func (d *dirState) setOwner(n msg.NodeID) { d.own = uint8(n) }

// nextVersion counts one more transaction on the page and returns its
// version.
func (d *dirState) nextVersion() uint64 {
	if d.version == math.MaxUint32 {
		panic("vm: directory entry version overflows 32 bits")
	}
	d.version++
	return uint64(d.version)
}

// pendingFault tracks an in-flight fault on a replica so concurrent faults
// on the same page coalesce and a racing invalidation forces a retry. Records
// come off Space.pendFree (beginFault/endFault).
type pendingFault struct {
	done        sim.Cond
	invalidated bool
	// grant is where the origin's own fault has its directory transaction
	// write the grant: storage the fault already has, not a fresh object.
	grant pageGrant
	// invalVersion is the highest directory version seen on an invalidation
	// while this fault was in flight; layout-level scrubs (munmap,
	// mprotect) set it to ^uint64(0) because they void any grant. A grant
	// with a higher version postdates every revocation observed and may
	// install; anything else retries.
	invalVersion uint64
}

// Space is one kernel's view of a group's address space: the authoritative
// copy at the origin, a cached replica elsewhere.
type Space struct {
	svc      *Service
	gid      GID
	origin   msg.NodeID
	isOrigin bool

	// Replica state (all kernels). The layout is authoritative at the
	// origin, a cache elsewhere.
	layout  Layout
	pt      mem.PageTable
	pending map[mem.VPN]*pendingFault
	// pendFree recycles pendingFault records (beginFault/endFault).
	pendFree []*pendingFault
	// localThreads counts live group members on this kernel; TLB
	// shootdowns for this space hit at most that many cores (the
	// replicated kernel's mm_cpumask analogue).
	localThreads int

	// Origin-only state.
	asLock *sim.RWMutex
	// dir is the page directory: one entry per page any kernel faulted in,
	// walked in page order.
	dir mem.Radix[*dirEntry]
	// replicas is the set of kernels that attached a replica (origin
	// excluded); layout updates are pushed to these.
	replicas nodeMask
	// pushNodes is pushUpdate's scratch for its targets; asLock is held
	// exclusively from filling it to the last use.
	pushNodes []msg.NodeID
}

// Service is the per-kernel VM service: it owns this kernel's group spaces
// and serves the consistency-protocol messages.
type Service struct {
	// eagerMapPush, when set on the origin's service, pushes new mappings
	// to replicas synchronously instead of letting them fault and fetch
	// (the D1 ablation; the paper's design is lazy).
	eagerMapPush bool
	// writeForwarding, when set on a replica's service, ships every write
	// to the origin instead of acquiring page ownership (the D5 ablation;
	// the paper's design is ownership migration).
	writeForwarding bool

	e       sim.Engine
	machine *hw.Machine
	fabric  *msg.Fabric
	node    msg.NodeID
	ep      *msg.Endpoint
	frames  FrameSource
	metrics *stats.Registry
	// hot caches the handles of the per-fault and per-operation metrics, each
	// filled on first use (stats.Registry.CounterIn) so a run registers
	// exactly the names it always did.
	hot struct {
		faultLocal, faultRemote, faultCoalesced, faultRetried, vmaFetch *stats.Counter
		zeroFill, transfer, invalSent, invalApplied                     *stats.Counter
		opMap, opUnmap, opProtect, updatePushed                         *stats.Counter
		latLocal, latRemote, latMap, latUnmap, latProtect               *stats.Histogram
	}
	spaces map[GID]*Space
	// localCores is how many cores this kernel drives; TLB shootdowns on a
	// layout change hit all of them.
	localCores int

	// mirrors holds the standby copies this kernel keeps as a replication
	// successor, keyed by group; Promote rebuilds an authoritative space
	// from one when the origin dies.
	mirrors map[GID]*dirMirror

	// originGIDs and dropped are scratch: checkDirectory's sorted list of
	// the groups this kernel is origin of, and the entries dropEntries
	// clears for the sanitizer. Neither is kept past the call that fills it.
	originGIDs []GID
	dropped    []*dirEntry

	// revokeFree holds the buffers a shared page's write fault fills with
	// the kernels to revoke: one is taken per revocation and given back when
	// it returns, so a blocked transaction keeps its own.
	revokeFree []*[]msg.NodeID

	// checker, when attached, shadows every grant, revoke and access this
	// kernel performs; nil costs one comparison per hook.
	checker *sanitize.Checker
	// injectSkipRevoke deliberately breaks the protocol for sanitizer
	// tests: invalidations destined for skipRevokeTarget are silently
	// dropped, leaving stale copies behind.
	injectSkipRevoke bool
	skipRevokeTarget msg.NodeID
}

// NewService creates the kernel's VM service and registers its message
// handlers on the kernel's endpoint.
func NewService(e sim.Engine, machine *hw.Machine, fabric *msg.Fabric, node msg.NodeID, frames FrameSource, localCores int, metrics *stats.Registry) *Service {
	if metrics == nil {
		metrics = stats.NewRegistry()
	}
	s := &Service{
		e:          e,
		machine:    machine,
		fabric:     fabric,
		node:       node,
		ep:         fabric.Endpoint(node),
		frames:     frames,
		metrics:    metrics,
		spaces:     make(map[GID]*Space),
		mirrors:    make(map[GID]*dirMirror),
		localCores: localCores,
	}
	vmaOp.Handle(s.ep, s.handleVMAOp)
	dirReplicate.Handle(s.ep, s.handleDirReplicate)
	vmaPush.Handle(s.ep, s.handleVMAUpdate)
	vmaFetch.Handle(s.ep, s.handleVMAFetch)
	pageFetch.Handle(s.ep, s.handlePageFetch)
	pageInvalidate.Handle(s.ep, s.handlePageInvalidate)
	e.Invariant(fmt.Sprintf("vm.dir.k%d", node), s.checkDirectory)
	return s
}

// checkDirectory is the registered engine invariant for this kernel's page
// directories: every entry's sharer/owner bookkeeping must match its MSI
// state. The engine runs it at quiescence (and periodically when enabled),
// catching protocol bugs at the virtual instant they corrupt the model. It
// reports the failing entry with the smallest (group, page): groups in
// ascending order off the Service's scratch list, each directory in page
// order. Once the list has grown it allocates nothing while the directories
// are consistent.
func (s *Service) checkDirectory() error {
	gids := s.originGIDs[:0]
	for gid, sp := range s.spaces {
		if sp.isOrigin {
			gids = append(gids, gid)
		}
	}
	slices.Sort(gids)
	s.originGIDs = gids
	for _, gid := range gids {
		for vpn, de := range s.spaces[gid].dir.All {
			if err := s.checkEntry(gid, vpn, de); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkEntry reports how one directory entry's bookkeeping contradicts its
// MSI state, or nil.
func (s *Service) checkEntry(gid GID, vpn mem.VPN, de *dirEntry) error {
	switch de.state {
	case pageUnmapped:
		if de.sharers != 0 {
			return fmt.Errorf("vm: group %d page %#x unmapped but has %d sharers", gid, uint64(vpn.Base()), de.sharers.len())
		}
	case pageShared:
		if de.sharers == 0 {
			return fmt.Errorf("vm: group %d page %#x shared with no sharers", gid, uint64(vpn.Base()))
		}
	case pageModified:
		if de.sharers != 0 {
			return fmt.Errorf("vm: group %d page %#x modified (owner k%d) but has %d read sharers", gid, uint64(vpn.Base()), de.owner(), de.sharers.len())
		}
		if int(de.owner()) >= s.fabric.Nodes() {
			return fmt.Errorf("vm: group %d page %#x owned by unknown kernel %d", gid, uint64(vpn.Base()), de.owner())
		}
	default:
		return fmt.Errorf("vm: group %d page %#x in impossible state %d", gid, uint64(vpn.Base()), de.state)
	}
	return nil
}

// homeCoreHint returns a representative local core for costing handler-side
// accesses.
func (s *Service) homeCoreHint() int {
	return int(s.node) * s.localCores
}

// Metrics returns the registry this service records into.
func (s *Service) Metrics() *stats.Registry { return s.metrics }

// LocalCores returns how many cores this kernel drives.
func (s *Service) LocalCores() int { return s.localCores }

// SetEagerMapPush toggles synchronous propagation of new mappings (the D1
// ablation). Call before running workloads.
func (s *Service) SetEagerMapPush(on bool) { s.eagerMapPush = on }

// SetWriteForwarding toggles forwarding of this kernel's writes to group
// origins instead of migrating page ownership here (the D5 ablation). Call
// before running workloads.
func (s *Service) SetWriteForwarding(on bool) { s.writeForwarding = on }

// AttachChecker wires the coherence sanitizer into this kernel's VM
// service; nil detaches it. Attach before running workloads (mid-run
// attachment misses earlier grants and reports them as no-grant accesses).
func (s *Service) AttachChecker(c *sanitize.Checker) { s.checker = c }

// InjectSkipRevoke deliberately breaks this (origin) kernel's directory:
// invalidations destined for node are silently skipped, leaving stale
// copies behind. It exists so tests and popcornmc can prove the sanitizer
// catches a protocol bug; never enable it outside checking runs.
func (s *Service) InjectSkipRevoke(node msg.NodeID) {
	s.injectSkipRevoke = true
	s.skipRevokeTarget = node
}

// Create sets up a new, empty authoritative address space for gid with this
// kernel as origin.
func (s *Service) Create(gid GID) (*Space, error) {
	if _, dup := s.spaces[gid]; dup {
		return nil, fmt.Errorf("vm: group %d already present on kernel %d", gid, s.node)
	}
	return s.makeOrigin(gid), nil
}

// addSpace enters an empty space for gid, shaped as a replica of origin's, in
// this kernel's table.
func (s *Service) addSpace(gid GID, origin msg.NodeID) *Space {
	sp := &Space{
		svc:     s,
		gid:     gid,
		origin:  origin,
		layout:  NewLayout(),
		pending: make(map[mem.VPN]*pendingFault),
	}
	s.spaces[gid] = sp
	return sp
}

// makeOrigin makes this kernel's space for gid the group's authoritative one,
// with empty origin-side state: a new group's (Create), or — after a failover
// — a replica's or that of a group no member of which ever ran here, for the
// promotion to fill from its mirror.
func (s *Service) makeOrigin(gid GID) *Space {
	sp, ok := s.spaces[gid]
	if !ok {
		sp = s.addSpace(gid, s.node)
	}
	sp.origin, sp.isOrigin = s.node, true
	sp.asLock = sim.NewRWMutex(s.e).SetLabel(fmt.Sprintf("vm.asLock.g%d", gid))
	sp.dir = mem.Radix[*dirEntry]{}
	sp.replicas = 0
	return sp
}

// Attach sets up a cached replica of gid's address space (whose origin is
// elsewhere). The thread-group layer calls this when a kernel is about to
// host its first member of the group; the origin learns of the replica from
// the group-setup message, so Attach itself is local.
func (s *Service) Attach(gid GID, origin msg.NodeID) (*Space, error) {
	if origin == s.node {
		return nil, fmt.Errorf("vm: Attach with self as origin for group %d", gid)
	}
	if _, dup := s.spaces[gid]; dup {
		return nil, fmt.Errorf("vm: group %d already present on kernel %d", gid, s.node)
	}
	return s.addSpace(gid, origin), nil
}

// RegisterReplica records (at the origin) that node now hosts a replica and
// must receive layout updates.
func (s *Service) RegisterReplica(gid GID, node msg.NodeID) error {
	sp, ok := s.spaces[gid]
	if !ok || !sp.isOrigin {
		return fmt.Errorf("vm: RegisterReplica on kernel %d which is not origin of group %d", s.node, gid)
	}
	sp.replicas.add(node)
	return nil
}

// Space returns this kernel's space for gid, if attached.
func (s *Service) Space(gid GID) (*Space, bool) {
	sp, ok := s.spaces[gid]
	return sp, ok
}

// Drop discards this kernel's space for gid, freeing all locally held
// frames. Used at group exit.
func (s *Service) Drop(p *sim.Proc, gid GID) {
	sp, ok := s.spaces[gid]
	if !ok {
		return
	}
	for _, e := range sp.pt.Drain {
		if e.Frame != mem.NoFrame {
			s.frames.FreeFrame(p, e.Frame)
		}
	}
	if s.checker != nil && sp.isOrigin {
		for _, de := range sp.dir.All {
			s.checker.LockRetired(&de.mu)
		}
		s.checker.LockRetired(sp.asLock)
	}
	delete(s.spaces, gid)
}

// dropEntries deletes the directory entries of [lo, hi), the origin's pages
// an unmap removed; the sanitizer forgets their lock clocks with them.
func (sp *Space) dropEntries(lo, hi mem.VPN) {
	s := sp.svc
	if s.checker == nil {
		sp.dir.DeleteRange(lo, hi)
		return
	}
	s.dropped = sp.dir.ClearRange(s.dropped[:0], lo, hi)
	for _, de := range s.dropped {
		s.checker.LockRetired(&de.mu)
	}
	clear(s.dropped)
}

// Reboot discards every space this kernel hosts, for a kernel reboot after
// a crash. Unlike Drop it does not free frames one by one: the physical
// allocator is reset wholesale by the reboot (a crashed kernel's frame
// bookkeeping is gone), so per-page frees would double-free.
func (s *Service) Reboot() {
	s.spaces = make(map[GID]*Space)
	s.mirrors = make(map[GID]*dirMirror)
}

// PeerDied reclaims, on every origin directory this kernel hosts, the page
// ownership and read copies held by a crashed kernel: modified pages lose
// their (never written back) exclusive copy and fall back to the directory's
// last value; the dead kernel leaves every sharer set. Runs from the fabric's
// failure-degradation hook once the local detector declares the peer dead.
// It does not promote: the thread-group layer's promotion pass calls Promote.
func (s *Service) PeerDied(p *sim.Proc, dead msg.NodeID) {
	gids := make([]GID, 0, len(s.spaces))
	for gid := range s.spaces {
		gids = append(gids, gid)
	}
	slices.Sort(gids)
	for _, gid := range gids {
		sp, ok := s.spaces[gid]
		if !ok || !sp.isOrigin {
			continue
		}
		sp.replicas.remove(dead)
		// Snapshot the entries, in page order, before locking any: the sweep
		// blocks on each entry's lock, transactions racing with it can add
		// fresh pages, but a fresh entry cannot involve the dead kernel.
		var snap []*dirEntry
		for _, de := range sp.dir.All {
			snap = append(snap, de)
		}
		for _, de := range snap {
			de.mu.Lock(p)
			if de.loseCopies(dead) {
				s.metrics.Counter("vm.pages.reclaimed").Inc()
			}
			de.mu.Unlock(p)
		}
	}
}

// loseCopies takes a crashed kernel out of the entry and reports whether it
// held a copy: a modified page loses its (never written back) exclusive copy
// and falls back to the directory's last value; a sharer just leaves the set.
// An entry left with no copy is marked reclaimed.
func (de *dirEntry) loseCopies(dead msg.NodeID) bool {
	switch {
	case de.state == pageModified && de.owner() == dead:
		de.state, de.own, de.reclaimed = pageUnmapped, 0, true
		return true
	case de.state == pageShared:
		if de.sharers.has(dead) {
			de.sharers.remove(dead)
			if de.sharers == 0 {
				de.state, de.reclaimed = pageUnmapped, true
			}
			return true
		}
	}
	return false
}

// Version returns the replica's layout version.
func (sp *Space) Version() uint64 { return sp.layout.version }

// ThreadArrived records a live group member on this kernel (clone or
// inbound migration); ThreadLeft records an exit or outbound migration.
// The thread-group layer maintains these so shootdown costs track the
// cores that can actually cache this space's translations.
func (sp *Space) ThreadArrived() { sp.localThreads++ }

// ThreadLeft undoes ThreadArrived.
func (sp *Space) ThreadLeft() {
	if sp.localThreads > 0 {
		sp.localThreads--
	}
}

// shootdownCores returns how many remote cores a local mapping change must
// interrupt.
func (sp *Space) shootdownCores() int {
	n := sp.localThreads
	if n > sp.svc.localCores {
		n = sp.svc.localCores
	}
	if n <= 1 {
		return 0
	}
	return n - 1
}
