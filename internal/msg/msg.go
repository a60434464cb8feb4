// Package msg implements the inter-kernel message-passing layer of the
// replicated-kernel OS. In Popcorn Linux, kernels share no data structures
// and communicate exclusively over shared-memory message rings with
// IPI-based notification; this package models that transport: typed
// messages, slot-granular fragmentation costs, per-pair FIFO delivery, a
// per-kernel receive pump (the kernel's message work queue: a chain of
// engine events that charges receive cost and starts one handler process
// per request, holding no process of its own), and a request/response (RPC)
// convention on top.
package msg

import (
	"fmt"
	"time"

	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// NodeID identifies a kernel instance in the replicated-kernel OS.
type NodeID int

// Type enumerates the inter-kernel message types. The set mirrors the
// protocol families the paper describes: thread-group management, context
// migration, address-space consistency, futex, and control traffic.
type Type int

// Message types. Start at 1 so the zero value is invalid.
const (
	TypeInvalid Type = iota
	// TypePing is control traffic used by tests and the T1 benchmark.
	TypePing
	// TypeThreadCreate asks a remote kernel to create a thread in a
	// distributed thread group (remote clone).
	TypeThreadCreate
	// TypeGroupSetup instantiates a thread-group replica (address space
	// skeleton) on a kernel about to host its first member thread.
	TypeGroupSetup
	// TypeMigrate carries a thread's execution context to its new kernel.
	TypeMigrate
	// TypeExitNotify propagates a member thread's exit to the group origin.
	TypeExitNotify
	// TypeGroupExit broadcasts group-wide termination.
	TypeGroupExit
	// TypeVMAOp forwards an address-space operation (mmap/munmap/mprotect)
	// from a remote kernel to the group origin, which owns the
	// authoritative layout.
	TypeVMAOp
	// TypeVMAUpdate propagates an address-space layout change
	// (mmap/munmap/mprotect/brk) from the group origin to replicas.
	TypeVMAUpdate
	// TypeVMAFetch asks the origin for the VMA covering a faulting address.
	TypeVMAFetch
	// TypePageFetch requests a page's contents/ownership from its owner.
	TypePageFetch
	// TypePageInvalidate revokes read replicas before a write.
	TypePageInvalidate
	// TypeFutexOp forwards a futex wait/wake/requeue to the key's home
	// kernel.
	TypeFutexOp
	// TypeFutexWakeup wakes a remotely blocked futex waiter.
	TypeFutexWakeup
	// TypeSignal delivers a signal to a thread on another kernel.
	TypeSignal
	// TypeHeartbeat is the failure detector's liveness probe. It is consumed
	// by the fabric itself (never enqueued or dispatched to a handler) and is
	// exempt from probabilistic fault rules, though partitions and crashes
	// still silence it — that silence is exactly what the detector measures.
	TypeHeartbeat
	// TypeRejoin is the handshake a rebooted kernel sends every survivor: it
	// announces the kernel's new incarnation so the survivor finishes any
	// reclamation it owes the previous incarnation, forgets its death
	// verdict, and resumes traffic. EnableFaults registers its handler on
	// every endpoint; without a fault plan it is never sent.
	TypeRejoin
	// TypeDirReplicate ships one page-directory mutation (or one
	// address-space layout mutation) from a group's origin kernel to its
	// designated successor, which mirrors the state so it can promote
	// itself if the origin dies. Control-lane: replication must not starve
	// behind bulk page traffic, or the successor's mirror goes stale
	// exactly when load is highest.
	TypeDirReplicate
	// TypeGroupReplicate ships a thread group's metadata snapshot
	// (membership, move epochs, checkpoints) from its origin kernel to the
	// designated successor after each origin-side mutation. Control-lane,
	// like TypeDirReplicate.
	TypeGroupReplicate
	// TypeOriginHandover announces cluster-wide that a successor kernel has
	// promoted itself to origin for a dead kernel's groups, under a new
	// origin-epoch. Receivers re-point their replicas at the new holder;
	// traffic still stamped with the old epoch is fenced at delivery.
	TypeOriginHandover
	// TypeUser carries application-level traffic (the multikernel
	// baseline's explicit inter-domain channels).
	TypeUser

	// numTypes terminates the enum; every declared type is below it. It
	// must stay last so AllTypes and the exhaustiveness tests see new
	// entries automatically.
	numTypes
)

// AllTypes returns every declared message type (excluding the invalid zero
// value), in declaration order. Exhaustiveness tests iterate it so that
// adding a type without wiring a String name and a handler fails loudly.
func AllTypes() []Type {
	ts := make([]Type, 0, numTypes-1)
	for t := TypeInvalid + 1; t < numTypes; t++ {
		ts = append(ts, t)
	}
	return ts
}

// typeNames is populated once by this literal and only ever read.
var typeNames = map[Type]string{
	TypePing:           "ping",
	TypeThreadCreate:   "thread-create",
	TypeGroupSetup:     "group-setup",
	TypeMigrate:        "migrate",
	TypeExitNotify:     "exit-notify",
	TypeVMAOp:          "vma-op",
	TypeGroupExit:      "group-exit",
	TypeVMAUpdate:      "vma-update",
	TypeVMAFetch:       "vma-fetch",
	TypePageFetch:      "page-fetch",
	TypePageInvalidate: "page-invalidate",
	TypeFutexOp:        "futex-op",
	TypeFutexWakeup:    "futex-wakeup",
	TypeSignal:         "signal",
	TypeHeartbeat:      "heartbeat",
	TypeRejoin:         "rejoin",
	TypeDirReplicate:   "dir-replicate",
	TypeGroupReplicate: "group-replicate",
	TypeOriginHandover: "origin-handover",
	TypeUser:           "user",
}

// String returns the type's wire name ("migrate", "page-fetch", ...), used
// in trace events, span names, and metrics keys.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("msg.Type(%d)", int(t))
}

// Span, trace and process names are derived from the type names once at
// package init, so the per-message paths index an array instead of
// concatenating strings, and neither a boot nor a handler registration formats
// one. A process name carries no kernel: the span, the sanitizer's report and
// a lock's label name it. All six tables are written only by init below and
// read-only after.
var (
	wireSpanNames      [numTypes]string
	wireReplySpanNames [numTypes]string
	rpcSpanNames       [numTypes]string
	handleSpanNames    [numTypes]string
	handlerProcNames   [numTypes]string // a handler's process
	eachProcNames      [numTypes]string // a multicast worker's process
)

func init() {
	for t := TypeInvalid + 1; t < numTypes; t++ {
		n := t.String()
		wireSpanNames[t] = "wire." + n
		wireReplySpanNames[t] = "wire." + n + ".reply"
		rpcSpanNames[t] = "rpc." + n
		handleSpanNames[t] = "handle." + n
		handlerProcNames[t] = "msg-handler-" + n
		eachProcNames[t] = "msg-calleach-" + n
	}
}

// Message is one inter-kernel message. Size is the serialised payload size
// in bytes and drives the fragmentation cost; Payload carries the typed
// protocol body (the simulation passes pointers rather than serialising).
type Message struct {
	// Type selects the handler on the destination kernel.
	Type Type
	// From is the sending kernel; the fabric stamps it on send.
	From NodeID
	// To is the destination kernel.
	To NodeID
	// Seq is the fabric-assigned sequence number matching replies to calls.
	Seq uint64
	// IsReply marks the response leg of an RPC.
	IsReply bool
	// rpc marks an RPC request (Call sets it): recovered by the caller's
	// retransmission, never link-layer redelivery; deduplicated until Floor.
	rpc bool
	// flowCredit marks a message holding one of its link's flow-control
	// credits (flow plane only). The credit is returned — and the flag
	// cleared, making release idempotent across retransmitted copies — at the
	// message's end of life: pump dequeue or drop; a crash wipe just clears
	// it (resetFlowLinks refilled the account).
	flowCredit bool
	// pooled marks a message born in one of its fabric's slots (a Kind's
	// request or reply) that the pool still accounts for. Pinning clears it (a copy of
	// the header inherits the cleared flag), leaving the message to the
	// collector like every message built by hand. Four flags, one word.
	pooled bool
	// Size is the serialised payload size in bytes (drives fragmentation).
	Size int
	// Payload is the typed protocol body, passed by pointer.
	Payload any

	// SrcInc/DstInc are the sender's and destination's incarnation numbers
	// as the sender knew them when the message was first prepared (fault
	// mode only; zero on a reliable fabric). Retransmissions and cached-reply
	// resends keep the original stamps, so any copy of a message that
	// straddles a kernel reboot — a zombie reply, a delayed grant, a
	// pre-crash heartbeat — is fenced at delivery instead of corrupting the
	// new incarnation's state.
	SrcInc uint64
	// DstInc is the destination's incarnation as the sender knew it; see
	// SrcInc.
	DstInc uint64
	// Floor is the sender's implicit acknowledgement (fault mode, stamped
	// with SrcInc): no RPC of the sender's to To below this seq has a caller
	// left — the seq of its oldest open call to To, else the message's own.
	// The receiver retires the dedup entries it covers (Endpoint.retire).
	Floor uint64

	// OriginNode/OriginEpoch fence stale-origin traffic after a failover
	// (failover plane only; zero otherwise). A message addressed to a
	// group's origin role carries the role's original kernel and the
	// origin-epoch the sender believed current; like SrcInc the stamp is
	// first-wins, so retransmitted copies keep the epoch they were prepared
	// under and are dropped at delivery once a successor has promoted under
	// a newer one.
	OriginNode NodeID
	// OriginEpoch is the origin-epoch the sender believed current for
	// OriginNode's roles; see OriginNode.
	OriginEpoch uint64

	// Span is the causal-tracing span for this message's wire transit (zero
	// when no collector is attached). The sender opens it when the message
	// first enters the ring and the fabric closes it at delivery, so its
	// extent is exactly the leg's time on the wire — including fault-plane
	// delays. Retransmissions and cached-reply resends keep the original
	// span (the stamp is first-wins), mirroring how SrcInc/DstInc travel.
	Span uint64
	// SpanParent is the sender-side span this message's work belongs to:
	// the RPC round for requests, the handler span for replies, or the
	// sending process's current span for one-way traffic. The receiving
	// kernel parents its handler span under it, which is the only piece of
	// state that lets a span tree cross the kernel boundary.
	SpanParent uint64

	// attempts counts transport-level redeliveries of a dropped
	// fire-and-forget message (the ring's link-layer retry); RPC requests
	// instead rely on the caller's timeout/retransmit loop.
	attempts int

	// enqAt is when the message entered its destination's inbound queue
	// (flow plane only), feeding the per-lane queue-wait histograms that the
	// control-lane starvation assertions read.
	enqAt sim.Time
}

// reset returns a released message to its free state before reuse. It keeps
// exactly what makes the message its slot's — Payload, pointing at the body
// allocated beside the header (zeroed by the slot), and pooled — and clears
// every other field: a survivor would leak one message's identity into an
// unrelated later one. TestMessageResetZeroesEveryField enforces this
// exhaustively by reflection. A free message's Type is TypeInvalid, which is
// how release tells a second release of it.
func (m *Message) reset() { *m = Message{Payload: m.Payload, pooled: m.pooled} }

// Handler is a raw handler (Endpoint.Handle): it processes one received
// message on the destination kernel, in its own simulated process, and may
// block on simulator primitives. A non-nil return value is sent back as the
// RPC reply.
type Handler func(p *sim.Proc, m *Message) *Message

// Config tunes the transport's cost structure.
type Config struct {
	// SlotBytes is the ring slot payload size; messages larger than one
	// slot are fragmented and charged per slot. Popcorn's rings used
	// cache-line-multiple slots.
	SlotBytes int
}

// perSlot is the cost of writing or reading one ring slot. Every send also
// charges an IPI to notify the receiving kernel, as Popcorn does when the
// receiver is not already polling.
const perSlot = 120 * time.Nanosecond

// DefaultConfig returns the transport configuration used by the paper-style
// experiments: 128-byte slots.
func DefaultConfig() Config {
	return Config{SlotBytes: 128}
}

func (c Config) validate() error {
	if c.SlotBytes <= 0 {
		return fmt.Errorf("msg: SlotBytes must be positive, got %d", c.SlotBytes)
	}
	return nil
}

// slots returns the number of ring slots a payload of the given size needs
// (header always occupies at least one slot).
func (c Config) slots(size int) int {
	if size <= 0 {
		return 1
	}
	return (size + c.SlotBytes - 1) / c.SlotBytes
}

// Fabric is the machine-wide message transport connecting all kernels.
type Fabric struct {
	e         sim.Engine
	machine   *hw.Machine
	cfg       Config
	endpoints []*Endpoint
	// nodeCore maps each kernel to a representative core, used for
	// NUMA-aware IPI and transfer costs.
	nodeCore []int
	metrics  *stats.Registry
	// hot caches the handles of the per-message metrics, each filled on
	// first use so a run registers exactly the names it always did.
	hot struct {
		sent, rpc, delivered, queueDepth, ctrlDepth *stats.Counter
		rtt, ctrlWait, bulkWait                     *stats.Histogram
	}
	nextSeq uint64
	// wires holds the per-directed-pair rings. Slot order is reserved when
	// a send begins and deliveries respect it, so messages between one
	// kernel pair can never overtake each other (a large in-progress send
	// head-of-line blocks later small ones, as on a real ring). Indexed by
	// pair(from, to).
	wires []fifo[*wireEntry]
	// collector, when attached, records causal spans for every non-heartbeat
	// message (wire transit, RPC round, handler execution); nil means one
	// pointer check per message and not a single allocation.
	collector *trace.Collector
	// observer, when attached, sees the happens-before edges messages carry.
	observer Observer

	// The free lists (sim.Take/Give): plain LIFO slices, engine-ordered and
	// deterministic — never sync.Pool. pool holds the messages (pool.go),
	// entryFree recycles wireEntry objects between reserve and commit,
	// callFree RPC wait records, runFree the records of endpoint-owned
	// processes (peak concurrent handlers and workers), fanFree their rounds,
	// dedupFree the at-most-once table's entries (fault plane).
	pool      msgPool
	entryFree []*wireEntry
	callFree  []*call
	runFree   []*handlerRun
	fanFree   []*fanout
	dedupFree []*dedupEntry
	// linkCounters caches the per-link metric counters countLink would
	// otherwise re-derive with Sprintf on every fault-plane event.
	linkCounters map[linkKey]*stats.Counter

	// flow, when attached via EnableFlow, is the credit/breaker/gray-failure
	// plane; nil means the unbounded transport and costs one pointer check
	// per message (the same detached pattern as plan and collector).
	flow *flowState
	// jrng drives the retransmit-backoff jitter, a dedicated splitmix64
	// stream derived from the engine seed in EnableFaults so jitter draws
	// never shift the engine RNG the tie chooser draws from.
	jrng *sim.RNG

	// plan, when attached via EnableFaults, intercepts every wire commit;
	// nil means a perfectly reliable fabric and costs one pointer check per
	// message (the sanitizer's detached pattern). The remaining fields are
	// the fault plane's state; see failure.go.
	plan     *faultinj.Plan
	fcfg     FaultConfig
	hooks    FaultHooks
	straggle time.Duration // the dedup horizon: faultinj.Plan.Straggle
	// plannedCrashes/crashesDone track whether every plan crash has fired,
	// which gates the failure detectors' exit (see settled).
	plannedCrashes int
	crashesDone    int
	// incarnation holds each kernel's current epoch (1 at boot, bumped by
	// every reboot); messages carry the sender's view and stale stamps are
	// fenced at delivery. plannedHeals/healsDone mirror the crash counters.
	incarnation  []uint64
	plannedHeals int
	healsDone    int

	// originEpoch/originHolder are the failover plane's view of who serves
	// each kernel's origin roles (nil until EnableFailover; see
	// failover.go). originEpoch[k] starts at 1 and is bumped by every
	// promotion of kernel k's roles; originHolder[k] is the kernel
	// currently serving them (k itself until a failover).
	originEpoch  []uint64
	originHolder []NodeID
}

// SetCollector attaches a causal span collector; nil detaches it. Attached
// or not, the fabric's virtual-time behaviour is identical: the collector
// only records timestamps the simulation already produced.
func (f *Fabric) SetCollector(c *trace.Collector) { f.collector = c }

// Collector returns the attached span collector (nil when detached). The
// protocol services read it through their fabric so one attachment covers
// every layer.
func (f *Fabric) Collector() *trace.Collector { return f.collector }

// Observer receives transport-level events for dynamic checkers: the
// sanitizer's vector clocks ride on these edges. MsgSent fires in the
// sending proc when the message is committed to the wire; MsgDelivered
// fires in the receiving context — the handler proc for requests, the RPC
// waiter for replies — before any handler or continuation code runs.
// Callbacks must not block.
type Observer interface {
	MsgSent(p *sim.Proc, m *Message)
	MsgDelivered(p *sim.Proc, m *Message)
}

// SetObserver attaches o to the fabric; nil detaches it. The fabric pays
// only a nil-check per message when detached.
func (f *Fabric) SetObserver(o Observer) { f.observer = o }

// pair indexes the per-directed-pair tables (wires, flow links).
func (f *Fabric) pair(from, to NodeID) int { return int(from)*len(f.endpoints) + int(to) }

// fifo is the one queue in this package: the two receive lanes, the wires, the
// credit waiters and the dedup queues. items[head:] is the backlog; pop
// advances head instead of reslicing and resets both once drained, and push
// slides a backlog that never drains down once the array is full and half
// popped, else moves it to an array twice its size (not append's, which rounds
// up to a size class): the array stays within twice the largest backlog.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

// front returns the oldest item without removing it; the queue must not be empty.
func (q *fifo[T]) front() T { return q.items[q.head] }

func (q *fifo[T]) push(v T) {
	if n := q.len(); len(q.items) == cap(q.items) {
		if q.head > 0 && 2*q.head >= len(q.items) {
			copy(q.items, q.items[q.head:])
			clear(q.items[n:]) // the moved items' old slots
			q.items = q.items[:n]
		} else {
			items := make([]T, n, 2*max(n, 1))
			copy(items, q.items[q.head:])
			q.items = items
		}
		q.head = 0
	}
	q.items = append(q.items, v)
}

// pop removes and returns the oldest item; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

type wireEntry struct {
	m     *Message
	ready bool
	wiped bool // its wire died inside the send window (Fabric.wipeWire)
	// What the commit of a handler's reply (onSent, bound once as sentFn)
	// needs: its incarnation's pump, its dedup entry, its handle.* span.
	pu     *pump
	de     *dedupEntry
	span   trace.SpanID
	sentFn func()
}

// allocWireEntry takes a reservation record off the free list, or allocates
// one on a cold miss.
//
//popcornvet:hotpath
func (f *Fabric) allocWireEntry(m *Message) *wireEntry {
	e := sim.Take(&f.entryFree)
	if e == nil {
		e = &wireEntry{}
		e.sentFn = e.onSent
	}
	e.m = m
	return e
}

// releaseWireEntry returns a drained reservation to the free list.
//
//popcornvet:hotpath
func (f *Fabric) releaseWireEntry(e *wireEntry) {
	*e = wireEntry{sentFn: e.sentFn}
	sim.Give(&f.entryFree, e)
}

// reserve claims the next ring slot sequence for m on its pair's wire.
//
//popcornvet:hotpath
func (f *Fabric) reserve(m *Message) *wireEntry {
	entry := f.allocWireEntry(m)
	f.wires[f.pair(m.From, m.To)].push(entry)
	return entry
}

// commit marks a reserved send complete and delivers every wire-order-ready
// message at the head of the pair's queue. Each delivery passes through the
// fault plane (dispatchWire), which is a straight f.deliver when no plan is
// attached. An entry a kernel crash wiped off its wire inside the send window
// is no longer queued: its commit is the message's end instead.
//
//popcornvet:hotpath
func (f *Fabric) commit(entry *wireEntry) {
	if entry.wiped {
		if entry.m.Type == TypeHeartbeat && entry.m.pooled {
			f.pool.detached-- // counted aside by wipeWire
		}
		f.endWiped(entry.m)
		f.releaseWireEntry(entry)
		return
	}
	entry.ready = true
	w := &f.wires[f.pair(entry.m.From, entry.m.To)]
	for w.len() > 0 && w.front().ready {
		head := w.pop()
		m := head.m
		f.releaseWireEntry(head)
		f.dispatchWire(m)
	}
}

// NewFabric creates a transport for `nodes` kernels. nodeCore[i] gives a
// representative core of kernel i for NUMA cost purposes; it must have
// exactly `nodes` entries.
func NewFabric(e sim.Engine, machine *hw.Machine, nodes int, nodeCore []int, cfg Config, metrics *stats.Registry) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("msg: need at least one node, got %d", nodes)
	}
	if len(nodeCore) != nodes {
		return nil, fmt.Errorf("msg: nodeCore has %d entries for %d nodes", len(nodeCore), nodes)
	}
	if metrics == nil {
		metrics = stats.NewRegistry()
	}
	f := &Fabric{
		e:            e,
		machine:      machine,
		cfg:          cfg,
		nodeCore:     append([]int(nil), nodeCore...),
		metrics:      metrics,
		wires:        make([]fifo[*wireEntry], nodes*nodes),
		linkCounters: make(map[linkKey]*stats.Counter),
	}
	f.endpoints = make([]*Endpoint, nodes)
	for i := 0; i < nodes; i++ {
		f.endpoints[i] = newEndpoint(f, NodeID(i))
	}
	// End-of-run leak assertions. Every open call must belong to a live
	// caller: Call removes its entry on every exit path (reply, timeout
	// exhaustion, peer death, kill-unwind), so an entry whose waiter has
	// finished is a transport bug, not a blocked process (those are the
	// deadlock detector's department). Finished by pid: a handler's Proc
	// storage runs another process later, and reads unfinished again. And
	// every message the pool made must be accounted for (checkPool).
	e.Invariant("msg.pending-leak", func() error {
		for _, ep := range f.endpoints {
			if c := ep.leakedCall(); c != nil {
				return fmt.Errorf("node %d leaked pending RPC seq=%d to node %d (caller %q finished)",
					ep.node, c.m.Seq, c.m.To, c.waiter.Name())
			}
		}
		return nil
	})
	e.Invariant("msg.pool", f.checkPool)
	return f, nil
}

// leakedCall returns the open call with the lowest seq whose caller has
// finished, or nil, walking the per-peer lists in order. The pending-leak
// invariant runs it on every endpoint at every quiescence, so it allocates
// nothing.
func (ep *Endpoint) leakedCall() (leaked *call) {
	for i := range ep.peers {
		for c := ep.peers[i].oldest; c != nil; c = c.next {
			if c.waiter.Finished() || c.waiter.ID() != c.waiterPID {
				if leaked == nil || c.m.Seq < leaked.m.Seq {
					leaked = c
				}
				break // the rest of this list is younger
			}
		}
	}
	return leaked
}

// Nodes returns the number of kernels on the fabric.
func (f *Fabric) Nodes() int { return len(f.endpoints) }

// Endpoint returns kernel n's endpoint. Setup code wires each service its
// own kernel's endpoint through this; it is also the fabric-internal
// resolver behind delivery.
//
//popcornvet:allow kernlocal the endpoint resolver itself; callers are policed at their own call sites
func (f *Fabric) Endpoint(n NodeID) *Endpoint {
	if int(n) < 0 || int(n) >= len(f.endpoints) {
		panic(fmt.Sprintf("msg: endpoint %d out of range [0,%d)", n, len(f.endpoints)))
	}
	return f.endpoints[n]
}

// Metrics returns the registry the fabric records into.
func (f *Fabric) Metrics() *stats.Registry { return f.metrics }

// sendCost is the sender-side cost of pushing m onto the destination ring.
func (f *Fabric) sendCost(m *Message) time.Duration {
	slots := f.cfg.slots(m.Size)
	return time.Duration(slots)*perSlot + f.machine.IPI(f.nodeCore[m.From], f.nodeCore[m.To])
}

// recvCost is the receiver-side cost of draining m from the ring: the
// per-slot processing, one latency-bound line pull to reach the sender's
// dirty data, then a bandwidth-bound streaming copy of the payload (bulk
// transfers pipeline; they do not pay the single-line latency per line).
func (f *Fabric) recvCost(m *Message) time.Duration {
	slots := f.cfg.slots(m.Size)
	cross := !f.machine.Topology.SameNode(f.nodeCore[m.From], f.nodeCore[m.To])
	line := f.machine.Cost.LineTransferLocal
	perKB := f.machine.Cost.BulkPerKBLocal
	if cross {
		line = f.machine.Cost.LineTransferRemote
		perKB = f.machine.Cost.BulkPerKBRemote
	}
	bulk := time.Duration(m.Size) * perKB / 1024
	return time.Duration(slots)*perSlot + line + bulk
}
