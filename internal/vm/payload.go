package vm

import (
	"math/bits"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
)

// Wire payload sizes (bytes) for message costing. Headers and small fixed
// requests fit one or two cache lines; page grants carry the page itself.
const (
	sizeSmallReq  = 64
	sizeVMAReply  = 96
	sizePageGrant = hw.PageSize + 64
)

// The address-space protocol: layout operations forwarded to the origin and
// pushed to replicas, VMA and page fetches, invalidations, and the mirror.
var (
	vmaOp          = msg.Kind[vmaOpReq, vmaOpReply]{Type: msg.TypeVMAOp, Size: sizeSmallReq, ReplySize: sizeVMAReply}
	vmaPush        = msg.Kind[vmaUpdate, vmaOpReply]{Type: msg.TypeVMAUpdate, Size: sizeSmallReq, ReplySize: sizeSmallReq}
	vmaFetch       = msg.Kind[vmaFetchReq, vmaFetchReply]{Type: msg.TypeVMAFetch, Size: sizeSmallReq, ReplySize: sizeVMAReply}
	pageFetch      = msg.Kind[pageFetchReq, pageGrant]{Type: msg.TypePageFetch, Size: sizeSmallReq, ReplySizeOf: grantSize}
	pageInvalidate = msg.Kind[pageInval, pageInvalAck]{Type: msg.TypePageInvalidate, Size: sizeSmallReq, ReplySizeOf: invalAckSize}
	dirReplicate   = msg.Kind[dirRepl, struct{}]{Type: msg.TypeDirReplicate, Size: sizeSmallReq, ReplySize: 64}
)

// vmaOpReq forwards a layout operation from a remote kernel to the origin.
type vmaOpReq struct {
	GID    GID
	Op     LayoutOp
	Addr   mem.Addr
	Length uint64
	Prot   mem.Prot
}

// vmaOpReply returns the operation result to the remote kernel.
type vmaOpReply struct {
	Addr    mem.Addr
	Version uint64
	Err     error
}

// vmaUpdate pushes a committed layout change from the origin to a replica.
type vmaUpdate struct {
	GID     GID
	Op      LayoutOp
	Lo, Hi  mem.VPN
	Prot    mem.Prot
	Version uint64
}

// vmaFetchReq asks the origin for the VMA covering a page.
type vmaFetchReq struct {
	GID GID
	VPN mem.VPN
}

// vmaFetchReply returns the covering VMA, if one exists.
type vmaFetchReply struct {
	OK      bool
	VMA     VMA
	Version uint64
}

// pageFetchReq asks the origin's directory for access to a page, or (when Op
// is not a load) asks the origin to apply the write on the requester's behalf
// (the D5 ablation: remote kernels ship writes to the origin instead of
// taking page ownership), or (Count > 0) for a read-only batch grant of Count
// consecutive pages (the prefetch path: one round trip instead of Count).
type pageFetchReq struct {
	GID   GID
	VPN   mem.VPN
	Write bool
	Count int
	// NoCopy declares that the requester holds no copy of the page even if
	// the directory lists it as a sharer. A faulting kernel sets it after a
	// grant assumed a copy it does not have (an abandoned prefetch or a
	// failed install left the directory ahead of the page table); the origin
	// then drops the stale sharer entry so the regrant carries the data.
	NoCopy bool
	// Addr and Op are a forwarded write's word and the access to apply to it.
	Addr mem.Addr
	Op   mem.Op
}

// batchEntry is one page's grant inside a batched (prefetch) reply.
type batchEntry struct {
	Err   error
	Value int64
	Src   int
	Prot  mem.Prot
}

// Grant data-source markers.
const (
	srcZeroFill = -1 // first touch: requester zero-fills a local frame
	srcHaveCopy = -2 // requester already holds the data (upgrade)
	srcApplied  = -3 // the origin applied the operation remotely, or refused it; nothing to install
)

// pageGrant is the directory's response to a fault.
type pageGrant struct {
	// Err is the error the origin decided, nil for a grant.
	Err error
	// Batch carries per-page grants for a prefetch request.
	Batch []batchEntry
	// Value is the page contents (the simulation's one-word proxy), or a
	// forwarded write's result.
	Value int64
	// Src is the kernel the data came from, or srcZeroFill / srcHaveCopy.
	Src int
	// Prot is the protection to install (write bit present iff exclusive).
	Prot mem.Prot
	// Version is the directory entry's transaction counter at grant time.
	// A replica discards a grant older than the latest invalidation it has
	// seen for the page — without FIFO delivery (fault plans delay and
	// retransmit), the version is the only way to order a late grant
	// against the revocation that overtook it.
	Version uint64
}

// pageInval revokes or downgrades a copy at its destination kernel.
type pageInval struct {
	GID GID
	VPN mem.VPN
	// Downgrade keeps a read-only copy instead of discarding it.
	Downgrade bool
	// Version is the directory transaction this revocation belongs to; see
	// pageGrant.Version.
	Version uint64
}

// pageInvalAck acknowledges an invalidation, carrying the written-back
// contents when the destination held a modified copy.
type pageInvalAck struct {
	Value   int64
	HadCopy bool
}

// grantSize returns the reply size for a grant: page data is included only
// when contents actually travel, and a batch carries each page it grants. A
// refusal carries no page, whatever its zero Src reads as.
func grantSize(g *pageGrant) int {
	switch {
	case g.Err != nil:
		return sizeVMAReply
	case g.Batch != nil:
		size := sizeVMAReply
		for _, be := range g.Batch {
			if be.Err == nil {
				size += hw.PageSize
			}
		}
		return size
	case g.Src >= 0:
		return sizePageGrant
	}
	return sizeVMAReply
}

// invalAckSize returns the ack size (page data included on write-back).
func invalAckSize(a *pageInvalAck) int {
	if a.HadCopy {
		return sizePageGrant
	}
	return sizeSmallReq
}

// MaxKernels bounds the kernels a machine may boot: a set of kernels (a
// page's sharers, a space's replicas) is one nodeMask word.
const MaxKernels = 64

// nodeMask is a set of kernels, bit n for kernel n: a value, so a directory
// entry's state copies (to a grant, to the failover mirror) without sharing
// storage, and it lists its members in ascending order, the order the
// protocol's fan-outs go out in.
type nodeMask uint64

func (s nodeMask) has(n msg.NodeID) bool { return s&(1<<uint(n)) != 0 }
func (s *nodeMask) add(n msg.NodeID)     { *s |= 1 << uint(n) }
func (s *nodeMask) remove(n msg.NodeID)  { *s &^= 1 << uint(n) }
func (s nodeMask) len() int              { return bits.OnesCount64(uint64(s)) }

// first returns the lowest kernel in a non-empty set.
func (s nodeMask) first() msg.NodeID { return msg.NodeID(bits.TrailingZeros64(uint64(s))) }

// nodes returns the set's kernels but skip, ascending, in buf's storage. The
// caller must own buf until its last use of the result — across blocking
// steps too: under a lock that covers them, or off a free list until it gives
// buf back.
func (s nodeMask) nodes(buf []msg.NodeID, skip msg.NodeID) []msg.NodeID {
	s.remove(skip)
	if cap(buf) < s.len() {
		buf = make([]msg.NodeID, 0, s.len())
	}
	out := buf[:0]
	for ; s != 0; s &= s - 1 {
		out = append(out, s.first())
	}
	return out
}
